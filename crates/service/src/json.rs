//! A minimal JSON value, parser, and writer.
//!
//! The build environment is offline (no serde), so the wire protocol
//! carries a small hand-rolled JSON implementation: enough of RFC 8259
//! for the request/response types — objects, arrays, strings with
//! escapes, finite numbers, booleans, null. Two deliberate
//! restrictions keep the service deterministic:
//!
//! * objects preserve **insertion order** (they are association lists,
//!   not hash maps), so encoding is byte-stable run to run;
//! * non-finite numbers are unrepresentable — [`Json::num`] panics on
//!   NaN/∞ rather than emitting invalid JSON.

use std::fmt::{self, Write as _};

/// A JSON value. Objects are ordered association lists.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A finite IEEE-754 double.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A number value. Panics on non-finite input (invalid JSON).
    pub fn num(v: f64) -> Json {
        assert!(v.is_finite(), "JSON cannot represent {v}");
        Json::Num(v)
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// Look up a key in an object (`None` for non-objects).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as an f64, if it is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a non-negative integer, if it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v <= 2f64.powi(53) => Some(*v as u64),
            _ => None,
        }
    }

    /// The value as a string slice, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array slice, if it is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(v) => Some(v),
            _ => None,
        }
    }

    /// Compact one-line encoding (the framing layer forbids interior
    /// newlines, which this never produces).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::Num(v) => write_num(*v, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

fn write_num(v: f64, out: &mut String) {
    debug_assert!(v.is_finite());
    // Formatting straight into `out` allocates nothing per number;
    // writing to a `String` cannot fail.
    let _ = if v == v.trunc() && v.abs() < 9.0e15 {
        // Integral doubles print without a fraction ("5", not "5.0"),
        // matching how lengths/counters read on the wire.
        write!(out, "{}", v as i64)
    } else {
        // Rust's f64 Display is the shortest round-trip representation.
        write!(out, "{v}")
    };
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            '\u{08}' => out.push_str("\\b"),
            '\u{0c}' => out.push_str("\\f"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// A JSON parse failure: byte offset plus message.
#[derive(Debug, Clone, PartialEq)]
pub struct JsonError {
    /// Byte offset of the failure in the input.
    pub at: usize,
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid JSON at byte {}: {}", self.at, self.message)
    }
}

impl std::error::Error for JsonError {}

/// Parse one JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser {
        bytes: text.as_bytes(),
        pos: 0,
        depth: 0,
    };
    p.skip_ws();
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters after document"));
    }
    Ok(v)
}

/// [`parse`] refuses a value nested inside `MAX_DEPTH` or more
/// containers ("nesting too deep").
pub(crate) const MAX_DEPTH: usize = 64;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, message: impl Into<String>) -> JsonError {
        JsonError {
            at: self.pos,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected {:?}", b as char)))
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(self.err(format!("expected {lit:?}")))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        if self.depth >= MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        match self.peek() {
            None => Err(self.err("unexpected end of input")),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.pos += 1;
                self.depth += 1;
                let mut items = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        items.push(self.value()?);
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b']') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.err("expected ',' or ']'")),
                        }
                    }
                }
                self.depth -= 1;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.pos += 1;
                self.depth += 1;
                let mut pairs = Vec::new();
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                } else {
                    loop {
                        self.skip_ws();
                        let k = self.string()?;
                        self.skip_ws();
                        self.expect(b':')?;
                        self.skip_ws();
                        let v = self.value()?;
                        pairs.push((k, v));
                        self.skip_ws();
                        match self.peek() {
                            Some(b',') => self.pos += 1,
                            Some(b'}') => {
                                self.pos += 1;
                                break;
                            }
                            _ => return Err(self.err("expected ',' or '}'")),
                        }
                    }
                }
                self.depth -= 1;
                Ok(Json::Obj(pairs))
            }
            Some(_) => self.number(),
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'/') => out.push('/'),
                        Some(b'n') => out.push('\n'),
                        Some(b'r') => out.push('\r'),
                        Some(b't') => out.push('\t'),
                        Some(b'b') => out.push('\u{08}'),
                        Some(b'f') => out.push('\u{0c}'),
                        Some(b'u') => {
                            let cp = self.hex4()?;
                            // Surrogate pair handling for BMP-external
                            // characters.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.pos += 1; // past the first 'u' escape's last digit
                                if self.bytes[self.pos..].starts_with(b"\\u") {
                                    self.pos += 1; // '\'
                                    let lo = self.hex4()?;
                                    if !(0xDC00..0xE000).contains(&lo) {
                                        return Err(self.err("invalid low surrogate"));
                                    }
                                    let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                    char::from_u32(combined)
                                        .ok_or_else(|| self.err("invalid surrogate pair"))?
                                } else {
                                    return Err(self.err("unpaired surrogate"));
                                }
                            } else if (0xDC00..0xE000).contains(&cp) {
                                return Err(self.err("unpaired low surrogate"));
                            } else {
                                char::from_u32(cp).ok_or_else(|| self.err("invalid codepoint"))?
                            };
                            out.push(c);
                        }
                        _ => return Err(self.err("invalid escape")),
                    }
                    self.pos += 1;
                }
                Some(b) if b < 0x20 => return Err(self.err("raw control character in string")),
                Some(_) => {
                    // Consume one UTF-8 character (input is &str, so
                    // boundaries are valid).
                    let s = &self.bytes[self.pos..];
                    let len = utf8_len(s[0]);
                    let chunk = std::str::from_utf8(&s[..len.min(s.len())])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    out.push_str(chunk);
                    self.pos += chunk.len();
                }
            }
        }
    }

    /// Parse the 4 hex digits after `\u`, leaving `pos` on the final
    /// digit (the caller's shared `pos += 1` steps past it).
    fn hex4(&mut self) -> Result<u32, JsonError> {
        let start = self.pos + 1;
        if start + 4 > self.bytes.len() {
            return Err(self.err("truncated \\u escape"));
        }
        let digits = std::str::from_utf8(&self.bytes[start..start + 4])
            .ok()
            .and_then(|s| u32::from_str_radix(s, 16).ok())
            .ok_or_else(|| self.err("invalid \\u escape"))?;
        self.pos = start + 3;
        Ok(digits)
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(
            self.peek(),
            Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
        ) {
            self.pos += 1;
        }
        match small_integer(&self.bytes[start..self.pos]) {
            Some(v) => Ok(Json::Num(v)),
            None => self.parsed_number(start),
        }
    }

    /// The number token from `start` to here, through `str::parse`.
    fn parsed_number(&self, start: usize) -> Result<Json, JsonError> {
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        let v: f64 = text
            .parse()
            .map_err(|_| self.err(format!("invalid number {text:?}")))?;
        if !v.is_finite() {
            return Err(self.err("number overflows f64"));
        }
        Ok(Json::Num(v))
    }
}

/// The value of a token that is `-?[0-9]{1,15}`, else `None`. Such an
/// integer is below 10^15 < 2^53, so `acc as f64` is exact: the value
/// `str::parse` returns, `-0` as `-0.0` included. Edge lists and
/// counters are all integers, so most numbers on the wire take this
/// path.
fn small_integer(token: &[u8]) -> Option<f64> {
    let (negative, digits) = match token {
        [b'-', rest @ ..] => (true, rest),
        _ => (false, token),
    };
    if digits.is_empty() || digits.len() > 15 || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let acc = digits
        .iter()
        .fold(0u64, |acc, d| 10 * acc + u64::from(d - b'0'));
    Some(if negative { -(acc as f64) } else { acc as f64 })
}

fn utf8_len(first: u8) -> usize {
    match first {
        0x00..=0x7F => 1,
        0xC0..=0xDF => 2,
        0xE0..=0xEF => 3,
        _ => 4,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn scalar_round_trips() {
        for (v, s) in [
            (Json::Null, "null"),
            (Json::Bool(true), "true"),
            (Json::Bool(false), "false"),
            (Json::num(5.0), "5"),
            (Json::num(-1.25), "-1.25"),
            (Json::str("a\"b\\c\nd"), r#""a\"b\\c\nd""#),
        ] {
            assert_eq!(v.encode(), s);
            assert_eq!(parse(s).unwrap(), v);
        }
    }

    #[test]
    fn containers_round_trip_and_preserve_order() {
        let v = Json::Obj(vec![
            ("z".into(), Json::Arr(vec![Json::num(1.0), Json::Null])),
            ("a".into(), Json::Obj(vec![("k".into(), Json::str("v"))])),
        ]);
        let s = v.encode();
        assert_eq!(s, r#"{"z":[1,null],"a":{"k":"v"}}"#);
        assert_eq!(parse(&s).unwrap(), v);
    }

    #[test]
    fn float_precision_survives() {
        let x = 0.1 + 0.2; // 0.30000000000000004
        let v = Json::num(x);
        let back = parse(&v.encode()).unwrap();
        assert_eq!(back.as_f64(), Some(x));
    }

    #[test]
    fn accessors() {
        let v = parse(r#"{"n": 3, "s": "x", "b": true, "a": [1,2]}"#).unwrap();
        assert_eq!(v.get("n").and_then(Json::as_u64), Some(3));
        assert_eq!(v.get("s").and_then(Json::as_str), Some("x"));
        assert_eq!(v.get("b").and_then(Json::as_bool), Some(true));
        assert_eq!(
            v.get("a").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
        assert_eq!(v.get("missing"), None);
        assert_eq!(Json::num(1.5).as_u64(), None);
        assert_eq!(Json::num(-1.0).as_u64(), None);
    }

    #[test]
    fn unicode_escapes() {
        assert_eq!(parse(r#""\u0041""#).unwrap(), Json::str("A"));
        // Surrogate pair: U+1F600.
        assert_eq!(parse(r#""\ud83d\ude00""#).unwrap(), Json::str("😀"));
        assert!(parse(r#""\ud83d""#).is_err());
        assert!(parse(r#""\ude00""#).is_err());
        // Raw multi-byte characters pass through both directions.
        let v = Json::str("énergie ≤ ∞");
        assert_eq!(parse(&v.encode()).unwrap(), v);
    }

    #[test]
    fn malformed_inputs_error_cleanly() {
        for bad in [
            "",
            "{",
            "[",
            "\"",
            "{\"a\"}",
            "[1,]",
            "{\"a\":1,}",
            "tru",
            "nul",
            "01x",
            "1e999",
            "[1 2]",
            "{\"a\" 1}",
            "\"\\q\"",
            "\u{1}",
            "[1]]",
        ] {
            assert!(parse(bad).is_err(), "{bad:?} should fail");
        }
        // Depth bomb stops at the cap instead of overflowing the stack.
        let deep = "[".repeat(100_000);
        assert!(parse(&deep).is_err());
    }

    /// What the parser makes of a whole number token through
    /// `str::parse` alone, the path every token took before the
    /// integer fast path.
    fn via_str_parse(token: &str) -> Result<Json, JsonError> {
        let end = Parser {
            bytes: token.as_bytes(),
            pos: token.len(),
            depth: 0,
        };
        end.parsed_number(0)
    }

    /// Equal results, numbers compared by their bits (`-0.0 != 0.0`).
    fn assert_same(token: &str, got: Result<Json, JsonError>, want: Result<Json, JsonError>) {
        match (&got, &want) {
            (Ok(Json::Num(a)), Ok(Json::Num(b))) => {
                assert_eq!(a.to_bits(), b.to_bits(), "{token:?}: {a} vs {b}")
            }
            _ => assert_eq!(got, want, "{token:?}"),
        }
    }

    /// A token the number scanner consumes whole: a signed integer of
    /// 1–20 digits (past 15 it leaves the fast path), a decimal with an
    /// optional exponent, or a random run over the scanner's alphabet,
    /// which is mostly malformed.
    fn arb_number_token() -> impl Strategy<Value = String> {
        fn pick(
            alphabet: &'static [u8],
            len: std::ops::Range<usize>,
        ) -> impl Strategy<Value = String> {
            prop::collection::vec(0..alphabet.len(), len)
                .prop_map(move |ix| ix.iter().map(|&i| alphabet[i] as char).collect())
        }
        const DIGITS: &[u8] = b"0123456789";
        let sign = || prop_oneof![Just(""), Just("-")];
        prop_oneof![
            (sign(), pick(DIGITS, 1..21)).prop_map(|(s, d)| format!("{s}{d}")),
            (sign(), pick(DIGITS, 1..9), pick(DIGITS, 1..9))
                .prop_map(|(s, i, f)| format!("{s}{i}.{f}")),
            (
                sign(),
                pick(DIGITS, 1..4),
                pick(b"eE", 1..2),
                pick(b"+-", 0..2),
                pick(DIGITS, 1..4)
            )
                .prop_map(|(s, m, e, es, x)| format!("{s}{m}{e}{es}{x}")),
            pick(b"0123456789.eE+-", 1..12),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]
        #[test]
        fn integer_fast_path_matches_str_parse(token in arb_number_token()) {
            // Scanning is shared, so equal token values and errors mean
            // equal documents.
            assert_same(&token, parse(&token), via_str_parse(&token));
        }
    }

    #[test]
    fn edge_tokens_match_str_parse() {
        for token in [
            "0",
            "-0",
            "00",
            "-007",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740993",
            "-",
            "--1",
            "1-",
            "+1",
            "-+1",
            "1e999",
            "-1e999",
            "1.",
            ".5",
            "1e",
            "01",
        ] {
            assert_same(token, parse(token), via_str_parse(token));
        }
    }

    #[test]
    #[should_panic(expected = "cannot represent")]
    fn non_finite_numbers_rejected_at_construction() {
        let _ = Json::num(f64::NAN);
    }
}
