//! The `reclaimd` wire protocol: length-prefixed JSON lines,
//! versioned request/response envelopes, and the structured error
//! mapping from [`SolveError`].
//!
//! # Framing
//!
//! One message = one frame:
//!
//! ```text
//! <decimal byte length of payload> '\n' <payload JSON, one line> '\n'
//! ```
//!
//! The payload is compact JSON (no interior newlines). Frames above
//! [`MAX_FRAME`] bytes are rejected before allocation; a stream that
//! ends mid-frame is a [`FrameError::Truncated`], while a stream that
//! ends cleanly *between* frames reads as end-of-session.
//!
//! # Envelopes and versions
//!
//! Every request carries `"v"` (the protocol version), an optional
//! client-chosen `"id"` (an integer in `0..=2^53`, echoed in the
//! response so pipelined requests can be matched even when the worker
//! pool completes them out of order), and a `"type"` tag. Responses
//! carry `"ok"` plus either a typed `"result"` or an `"error"` object.
//!
//! This build speaks versions **1 through 5** ([`MIN_PROTOCOL_VERSION`]
//! ..= [`PROTOCOL_VERSION`]). Negotiation is per request: the server
//! accepts any version in that range, answers with the version the
//! request used, and rejects anything else with an
//! [`ErrorKind::Protocol`] error naming the supported range. The only
//! v2 request is `patch`; the only v3 feature is the `"exact": true`
//! flag on `energy_curve` (closed-form segments instead of samples);
//! v4 adds the `corpus` request (a sharded job bundle solved through
//! the daemon cache) and the optional `"timeout_ms"` envelope field
//! (a queue-time bound answered with [`ErrorKind::Timeout`]); v5 adds
//! the `lineage` query and the optional `"as_of"` envelope field
//! (time travel: answer `solve`/`energy_curve` against the instance as
//! it stood `as_of` patches ago, re-materialized from the disk store's
//! lineage log) — sending any of them under an older `"v"` is a
//! protocol error, so an old-only intermediary never sees
//! half-understood traffic.
//!
//! A worked request/response pair (docs/PROTOCOL.md walks the same
//! exchange byte by byte):
//!
//! ```text
//! → {"v":1,"id":7,"type":"solve","graph":{"weights":[2,4],"edges":[[0,1]]},
//!    "model":{"kind":"continuous"},"deadline":3}
//! ← {"v":1,"id":7,"ok":true,"type":"solve","result":{"energy":24,...}}
//! ```
//!
//! and the v2 `patch` — edits against a cached instance named by its
//! content key, instead of resending the graph:
//!
//! ```text
//! → {"v":2,"id":8,"type":"patch","base":"0x36bd06bca277317937d02054da46d064",
//!    "edits":[{"op":"set_weight","task":1,"weight":3.5}],"deadline":3}
//! ← {"v":2,"id":8,"ok":true,"type":"patch","result":{"energy":27.8,…,
//!    "prep_ns":0,"key":"0x…","warm_lp":false}}
//! ```
//!
//! # Codec
//!
//! Each wire object is declared once, and the declaration generates
//! both directions of its JSON codec (the crate-private `Wire` trait,
//! which the store's records share):
//!
//! * `wire_struct!` covers objects whose JSON keys are their field
//!   names, listed in wire order. A bare field is required; `f = d`
//!   reads as `d` when absent or malformed (fields newer than the
//!   peer); `f: opt` is left off the wire while unset (`None`, or a
//!   `false` flag), so older peers never see it.
//! * The `stats` blocks are counter tables
//!   ([`taskgraph::counters!`]), and one codec serves them all: keys
//!   in table order, and a counter the peer omits reads as 0.
//! * `wire_enum!` covers objects told apart by a tag: requests by
//!   `type`, edits by `op`, curve-segment energies by `form`.
//! * The rest is written by hand, only where the JSON shape is not the
//!   Rust shape: scalars (content keys are hex strings), graphs and
//!   models (validated on decode), flattened curve segments, patch
//!   reports and corpus entries, sweep items, and the two envelopes
//!   (version gates; an `energy_curve` result that is an array or an
//!   object).
//!
//! Malformed content decodes to an [`ErrorKind::BadRequest`] error that
//! names its field: `missing "deadline"`, `"deadline": expected a
//! number`.

use crate::corpus::{CorpusEntry, CorpusJob, ShardOutcome};
use crate::json::{self, Json};
use models::{DiscreteModes, EnergyModel, IncrementalModes};
use reclaim_core::{CurveEnergy, CurveSegment, SolveError};
use std::fmt;
use std::io::{self, Read, Write};
use taskgraph::edit::GraphEdit;
use taskgraph::profiling::CounterTable;
use taskgraph::{counters, TaskGraph};

/// The newest protocol version this build speaks.
pub const PROTOCOL_VERSION: u64 = 5;

/// The oldest protocol version this build still accepts.
pub const MIN_PROTOCOL_VERSION: u64 = 1;

/// Hard cap on one frame's payload, in bytes.
pub const MAX_FRAME: usize = 64 << 20;

// ---------------------------------------------------------------
// Framing
// ---------------------------------------------------------------

/// Why a frame could not be read.
#[derive(Debug)]
pub enum FrameError {
    /// The underlying transport failed.
    Io(io::Error),
    /// The declared length exceeds [`MAX_FRAME`].
    TooLarge(usize),
    /// The stream ended mid-frame, or the header/terminator was not
    /// where the length said it would be.
    Truncated(String),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Io(e) => write!(f, "frame I/O error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds cap {MAX_FRAME}"),
            FrameError::Truncated(what) => write!(f, "truncated frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<io::Error> for FrameError {
    fn from(e: io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// The wire bytes of one frame: `<len>\n<payload>\n`.
pub fn frame(payload: &str) -> Vec<u8> {
    debug_assert!(!payload.contains('\n'), "payload must be one line");
    let mut buf = Vec::with_capacity(payload.len() + 24);
    buf.extend_from_slice(format!("{}\n", payload.len()).as_bytes());
    buf.extend_from_slice(payload.as_bytes());
    buf.push(b'\n');
    buf
}

/// Write one [`frame`] as a single transport write (three small writes
/// would interact badly with Nagle's algorithm on TCP endpoints).
pub fn write_frame(w: &mut impl Write, payload: &str) -> io::Result<()> {
    w.write_all(&frame(payload))?;
    w.flush()
}

/// Longest length header, in digits (`u64::MAX` has 20).
const MAX_HEADER: usize = 20;

/// Parse the length header at the start of `bytes`: decimal digits up
/// to `'\n'`, at most [`MAX_HEADER`] of them, naming at most
/// [`MAX_FRAME`] payload bytes. `Ok(Some((len, body)))` once the
/// `'\n'` is in, with the payload starting at `body`; `Ok(None)` while
/// more bytes may still complete the header.
fn frame_header(bytes: &[u8]) -> Result<Option<(usize, usize)>, FrameError> {
    let Some(end) = bytes.iter().take(MAX_HEADER + 1).position(|&b| b == b'\n') else {
        if bytes.len() > MAX_HEADER {
            return Err(FrameError::Truncated("length header too long".into()));
        }
        return Ok(None);
    };
    let header = &bytes[..end];
    let len: usize = std::str::from_utf8(header)
        .ok()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| {
            FrameError::Truncated(format!(
                "bad length header {:?}",
                String::from_utf8_lossy(header)
            ))
        })?;
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    Ok(Some((len, end + 1)))
}

/// A payload read together with its terminator (`len + 1` bytes) as
/// text: the terminator must be `'\n'` and the payload UTF-8. The bytes
/// move into the `String` without a copy.
fn frame_payload(mut bytes: Vec<u8>) -> Result<String, FrameError> {
    if bytes.pop() != Some(b'\n') {
        return Err(FrameError::Truncated("missing frame terminator".into()));
    }
    String::from_utf8(bytes).map_err(|_| FrameError::Truncated("payload is not UTF-8".into()))
}

/// Read one frame. `Ok(None)` means the peer closed the stream cleanly
/// at a frame boundary; ending anywhere else is [`FrameError::Truncated`].
/// The header is read byte by byte, so nothing past the frame is
/// consumed.
pub fn read_frame(r: &mut impl Read) -> Result<Option<String>, FrameError> {
    let mut header = Vec::with_capacity(MAX_HEADER + 1);
    let mut byte = [0u8; 1];
    let len = loop {
        match r.read(&mut byte) {
            Ok(0) if header.is_empty() => return Ok(None), // clean end-of-session
            Ok(0) => return Err(FrameError::Truncated("EOF inside length header".into())),
            Ok(_) => {
                header.push(byte[0]);
                if let Some((len, _)) = frame_header(&header)? {
                    break len;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e.into()),
        }
    };
    let mut payload = vec![0u8; len + 1];
    r.read_exact(&mut payload)
        .map_err(|_| FrameError::Truncated(format!("EOF inside {len}-byte payload")))?;
    frame_payload(payload).map(Some)
}

/// An incremental frame decoder for nonblocking transports: bytes go
/// in as they arrive (in chunks of any size, split or coalesced at
/// arbitrary boundaries), complete frames come out. The event-driven
/// daemon keeps one per connection; [`FrameBuffer::next_frame`]
/// applies exactly the [`read_frame`] grammar — decimal length header
/// (at most 20 digits), `'\n'`, payload, `'\n'` — and reports the
/// same violations as [`FrameError`]s. A framing error is not
/// recoverable: the stream has no resynchronization point, so the
/// caller should answer once and drop the connection.
#[derive(Default)]
pub struct FrameBuffer {
    buf: Vec<u8>,
    /// Bytes before `pos` are consumed; compacted opportunistically so
    /// a long-lived connection doesn't grow its buffer forever.
    pos: usize,
}

impl FrameBuffer {
    /// An empty buffer.
    pub fn new() -> FrameBuffer {
        FrameBuffer::default()
    }

    /// Append freshly read bytes.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Whether any unconsumed bytes remain (a nonempty buffer at EOF
    /// means the peer died mid-frame).
    pub fn is_empty(&self) -> bool {
        self.pos == self.buf.len()
    }

    /// Extract the next complete frame, if the buffered bytes hold
    /// one. `Ok(None)` means "need more bytes"; errors mirror
    /// [`read_frame`] and poison the stream.
    pub fn next_frame(&mut self) -> Result<Option<String>, FrameError> {
        let avail = &self.buf[self.pos..];
        let Some((len, body)) = frame_header(avail)? else {
            return Ok(None);
        };
        if avail.len() < body + len + 1 {
            return Ok(None);
        }
        let payload = frame_payload(avail[body..=body + len].to_vec())?;
        self.pos += body + len + 1;
        if self.pos == self.buf.len() || self.pos >= 64 * 1024 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------
// Errors
// ---------------------------------------------------------------

/// Structured error categories on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// The instance admits no schedule meeting the deadline
    /// ([`SolveError::Infeasible`] — carries `deadline`/`min_makespan`).
    Infeasible,
    /// A numerical substrate failed ([`SolveError::Numerical`]).
    Numerical,
    /// The model/graph/parameter combination is not supported
    /// ([`SolveError::Unsupported`]).
    Unsupported,
    /// An exact search exhausted its node budget with no incumbent in
    /// hand ([`SolveError::BudgetExhausted`]); the solve produced
    /// nothing usable but the instance is not known infeasible.
    BudgetExhausted,
    /// The request decoded as JSON but its content is invalid
    /// (unknown type, malformed graph, bad field).
    BadRequest,
    /// A `patch` request named a `base` content key the daemon's cache
    /// does not hold (never cached, or since evicted). The client
    /// should fall back to sending the full edited instance.
    UnknownBase,
    /// The envelope itself is unusable: not JSON, wrong version,
    /// framing violation.
    Protocol,
    /// **v4.** The request's `timeout_ms` budget elapsed before a
    /// worker reached it (the daemon answers without solving). The
    /// work was *not* performed; retry, raise the bound, or shed load.
    Timeout,
}

/// Every error kind with its wire name.
const ERROR_KINDS: [(ErrorKind, &str); 8] = [
    (ErrorKind::Infeasible, "infeasible"),
    (ErrorKind::Numerical, "numerical"),
    (ErrorKind::Unsupported, "unsupported"),
    (ErrorKind::BudgetExhausted, "budget_exhausted"),
    (ErrorKind::BadRequest, "bad_request"),
    (ErrorKind::UnknownBase, "unknown_base"),
    (ErrorKind::Protocol, "protocol"),
    (ErrorKind::Timeout, "timeout"),
];

impl ErrorKind {
    fn wire(self) -> &'static str {
        ERROR_KINDS
            .iter()
            .find(|(kind, _)| *kind == self)
            .map(|(_, name)| *name)
            .expect("ERROR_KINDS lists every kind")
    }
}

/// A structured wire error.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorBody {
    /// The category.
    pub kind: ErrorKind,
    /// Human-readable detail.
    pub message: String,
    /// For [`ErrorKind::Infeasible`]: the requested deadline.
    pub deadline: Option<f64>,
    /// For [`ErrorKind::Infeasible`]: the minimum achievable makespan.
    pub min_makespan: Option<f64>,
}

impl ErrorBody {
    /// A plain error with no infeasibility numbers.
    pub fn new(kind: ErrorKind, message: impl Into<String>) -> ErrorBody {
        ErrorBody {
            kind,
            message: message.into(),
            deadline: None,
            min_makespan: None,
        }
    }
}

impl fmt::Display for ErrorBody {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.kind.wire(), self.message)
    }
}

impl From<&SolveError> for ErrorBody {
    fn from(e: &SolveError) -> ErrorBody {
        match e {
            SolveError::Infeasible {
                deadline,
                min_makespan,
            } => ErrorBody {
                kind: ErrorKind::Infeasible,
                message: e.to_string(),
                // JSON has no ∞ (a non-positive deadline reports an
                // infinite minimum makespan): omit the field instead.
                deadline: Some(*deadline).filter(|d| d.is_finite()),
                min_makespan: Some(*min_makespan).filter(|m| m.is_finite()),
            },
            SolveError::Numerical(_) => ErrorBody::new(ErrorKind::Numerical, e.to_string()),
            SolveError::Unsupported(_) => ErrorBody::new(ErrorKind::Unsupported, e.to_string()),
            SolveError::BudgetExhausted { .. } => {
                ErrorBody::new(ErrorKind::BudgetExhausted, e.to_string())
            }
        }
    }
}

// ---------------------------------------------------------------
// Requests
// ---------------------------------------------------------------

/// One request body.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Solve one instance.
    Solve {
        /// The execution graph.
        graph: TaskGraph,
        /// The energy model.
        model: EnergyModel,
        /// The deadline `D`.
        deadline: f64,
    },
    /// Solve one graph at many deadlines (shares one preparation).
    SolveDeadlines {
        /// The execution graph.
        graph: TaskGraph,
        /// The energy model.
        model: EnergyModel,
        /// The deadlines, solved in order.
        deadlines: Vec<f64>,
    },
    /// Sample the energy–deadline curve (see `Engine::energy_curve`),
    /// or — with `exact` set, **v3** — return it as closed-form
    /// segments (`Engine::energy_curve_exact`): the daemon keeps the
    /// computed ray with the cached instance, so repeat exact-curve
    /// requests are near-free.
    EnergyCurve {
        /// The execution graph.
        graph: TaskGraph,
        /// The energy model.
        model: EnergyModel,
        /// Number of geometrically spaced sample points (≥ 2).
        /// Ignored when `exact` is set (the breakpoint walk picks its
        /// own resolution).
        points: usize,
        /// Low deadline factor.
        lo: f64,
        /// High deadline factor.
        hi: f64,
        /// Request exact closed-form segments instead of samples
        /// (protocol v3).
        exact: bool,
    },
    /// Solve many `(graph, deadline)` jobs under one model.
    Batch {
        /// The shared energy model.
        model: EnergyModel,
        /// The jobs, answered in order.
        jobs: Vec<(TaskGraph, f64)>,
    },
    /// **v2.** Edit an instance the daemon already holds: apply
    /// `edits` to the cached instance whose content key is `base` and
    /// solve the result, re-keying the cache entry in place. The
    /// client never resends the graph; on a weight-only batch the
    /// daemon also skips every structural re-analysis *and* (for
    /// Vdd-Hopping) the cold solve.
    Patch {
        /// Content key of the cached base instance
        /// ([`reclaim_core::engine::content_key`]).
        base: u128,
        /// The edit batch, applied in order.
        edits: Vec<GraphEdit>,
        /// The deadline to solve the edited instance at.
        deadline: f64,
    },
    /// **v4.** Solve a sharded corpus bundle through the daemon's
    /// content-addressed cache: jobs are partitioned by
    /// `content_key mod shards` (the same pure-content discipline as
    /// the local [`crate::corpus::run_corpus`]), solved shard by
    /// shard, and answered as one [`Response::Corpus`] whose manifests
    /// are byte-identical to a local run — but instances the daemon
    /// has seen before skip preparation entirely.
    Corpus {
        /// Shard count (clamped to ≥ 1).
        shards: usize,
        /// The corpus jobs.
        jobs: Vec<crate::corpus::CorpusJob>,
    },
    /// **v5.** Read the patch lineage of a stored instance: the chain
    /// of `(parent_key, edits, child_key)` records leading from the
    /// oldest stored ancestor down to `key`. Requires a daemon running
    /// with `--store`.
    Lineage {
        /// Content key of the instance whose history is wanted.
        key: u128,
    },
    /// Read cache and worker counters.
    Stats,
    /// Stop accepting connections and exit once drained.
    Shutdown,
}

impl Request {
    /// The lowest protocol version that can carry this request.
    pub fn min_version(&self) -> u64 {
        match self {
            Request::Patch { .. } => 2,
            Request::EnergyCurve { exact: true, .. } => 3,
            Request::Corpus { .. } => 4,
            Request::Lineage { .. } => 5,
            _ => MIN_PROTOCOL_VERSION,
        }
    }
}

/// A request plus its envelope metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestEnvelope {
    /// The protocol version of this exchange (the response echoes it).
    pub version: u64,
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// **v4.** Optional queue-time bound, in milliseconds: if the
    /// request waits longer than this before a worker picks it up, the
    /// daemon answers [`ErrorKind::Timeout`] without solving.
    pub timeout_ms: Option<u64>,
    /// **v5.** Optional time-travel depth: answer a `solve` or
    /// `energy_curve` against the instance as it stood this many
    /// patches ago, re-materialized in O(edits) from the disk store's
    /// lineage log. `Some(0)` means "current" (same as `None`); any
    /// other request type rejects the field with
    /// [`ErrorKind::BadRequest`].
    pub as_of: Option<u64>,
    /// The request body.
    pub request: Request,
}

impl RequestEnvelope {
    /// An envelope at the lowest version able to carry `request` —
    /// what the bundled client sends, so v1 servers keep understanding
    /// everything but `patch`.
    pub fn new(id: u64, request: Request) -> RequestEnvelope {
        RequestEnvelope {
            version: request.min_version(),
            id,
            timeout_ms: None,
            as_of: None,
            request,
        }
    }

    /// Attach a v4 queue-time bound (bumping the envelope to v4 —
    /// the field does not exist in older versions). `None` leaves the
    /// envelope untouched.
    pub fn with_timeout_ms(mut self, timeout_ms: Option<u64>) -> RequestEnvelope {
        if timeout_ms.is_some() {
            self.timeout_ms = timeout_ms;
            self.version = self.version.max(4);
        }
        self
    }

    /// Attach a v5 time-travel depth (bumping the envelope to v5 —
    /// the field does not exist in older versions). `None` and
    /// `Some(0)` leave the envelope untouched: depth 0 is the current
    /// instance, which every version already answers.
    pub fn with_as_of(mut self, as_of: Option<u64>) -> RequestEnvelope {
        if let Some(depth) = as_of {
            if depth > 0 {
                self.as_of = Some(depth);
                self.version = self.version.max(5);
            }
        }
        self
    }
}

/// Render a content key the way the wire carries it (128 bits exceed
/// JSON's interoperable integer range, so keys travel as fixed-width
/// hex strings).
pub fn key_to_hex(key: u128) -> String {
    format!("0x{key:032x}")
}

/// Parse a [`key_to_hex`]-formatted content key (the `0x` prefix is
/// optional, case is ignored).
pub fn key_from_hex(s: &str) -> Option<u128> {
    let digits = s
        .strip_prefix("0x")
        .or_else(|| s.strip_prefix("0X"))
        .unwrap_or(s);
    u128::from_str_radix(digits, 16).ok()
}

// ---------------------------------------------------------------
// Responses
// ---------------------------------------------------------------

/// The result of one solve, as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct SolveReport {
    /// Optimal (or model-approximated) energy.
    pub energy: f64,
    /// Which registry algorithm produced it.
    pub algorithm: String,
    /// Makespan of the returned schedule.
    pub makespan: f64,
    /// Nanoseconds spent solving — preparation excluded.
    pub solve_ns: u64,
    /// Nanoseconds spent preparing the graph analysis; `0` on a cache
    /// hit (the point of the content-addressed cache).
    pub prep_ns: u64,
    /// Whether the prepared instance came from the cache.
    pub cached: bool,
    /// Index of the worker that served the request.
    pub worker: u64,
}

/// An exact energy–deadline curve, as reported on the wire (v3).
#[derive(Debug, Clone, PartialEq)]
pub struct CurveExactReport {
    /// Contiguous closed-form segments in increasing deadline order
    /// ([`reclaim_core::CurveSegment`]).
    pub segments: Vec<reclaim_core::CurveSegment>,
    /// Whether every segment is an exact closed form (Vdd, unbounded
    /// Continuous) as opposed to adaptively refined interpolation.
    pub exact: bool,
    /// Whether the daemon served the curve from the cached instance's
    /// retained ray (a repeat request — near-free).
    pub cached_curve: bool,
}

/// The result of one `patch`, as reported on the wire.
#[derive(Debug, Clone, PartialEq)]
pub struct PatchReport {
    /// The solve of the edited instance. `prep_ns` is `0` when every
    /// structural analysis was carried over (weight-only batches);
    /// otherwise it is the time spent re-warming what the edits
    /// dropped. `cached` reports whether the *base* was a cache hit
    /// (always true — a miss is an [`ErrorKind::UnknownBase`] error).
    pub report: SolveReport,
    /// Content key of the edited instance — the `base` for the next
    /// patch in a chain.
    pub key: u128,
    /// Whether the Vdd-Hopping solve reused the retained min-cost flow
    /// (`vdd-lp-warm`) instead of a cold solve from zero flow.
    pub warm_lp: bool,
}

/// One edge of a patch lineage chain (v5): `parent` was patched with
/// `edits` to produce `child`.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageHop {
    /// Content key of the pre-patch instance.
    pub parent: u128,
    /// The edit batch that was applied.
    pub edits: Vec<GraphEdit>,
    /// Content key of the post-patch instance.
    pub child: u128,
}

/// Answer to a v5 [`Request::Lineage`]: the recorded patch history of
/// one instance, oldest hop first.
#[derive(Debug, Clone, PartialEq)]
pub struct LineageReport {
    /// The queried content key.
    pub key: u128,
    /// Number of recorded hops above `key` (== `hops.len()`).
    pub depth: u64,
    /// The chain from the oldest recorded ancestor down to `key`.
    pub hops: Vec<LineageHop>,
}

counters! {
    /// Cache counters, as reported by `stats`.
    pub struct CacheStatsReport / SharedCacheStats {
        /// Live entries.
        entries,
        /// Estimated resident bytes of live entries.
        bytes,
        /// Lookup hits since start (plain requests resolving to a cached
        /// instance — patch traffic is counted separately below).
        hits,
        /// Lookup misses since start.
        misses,
        /// Evictions since start.
        evictions,
        /// `patch` requests whose base key was held (served in place).
        patch_hits,
        /// `patch` requests whose base key was absent
        /// ([`ErrorKind::UnknownBase`] answers).
        patch_misses,
        /// In-place re-keys: patched entries that replaced their base
        /// entry under the edited content key.
        rekeys,
    }

    /// Event-loop admission counters (v4; older daemons report zeros).
    pub struct NetStatsReport / SharedNetStats {
        /// Currently open connections.
        connections,
        /// Admitted requests sitting in the worker queue right now.
        queue_depth,
        /// Admitted requests not yet answered (queued + solving +
        /// completion not yet written back).
        inflight,
        /// Connections refused at accept because `--max-connections` was
        /// reached.
        rejected,
        /// Requests answered with [`ErrorKind::Timeout`] because their
        /// `timeout_ms` budget elapsed in the queue.
        timeouts,
    }

    /// Disk-store counters (v5; daemons without `--store`, and older
    /// daemons, report zeros).
    pub struct StoreStatsReport / SharedStoreStats {
        /// Instance entries on disk.
        entries,
        /// Total bytes of instance entries on disk.
        bytes,
        /// Valid instance records recovered by the boot scan.
        recovered,
        /// Corrupt or torn records skipped (boot scan plus later loads) —
        /// every damaged record is accounted here, never lost silently.
        corrupt_skipped,
        /// Lineage replay steps performed to materialize historical
        /// versions (`as_of` traffic).
        replays,
        /// Failed instance writes and lineage appends: each left its
        /// entry in RAM only, or its patch out of the lineage log.
        write_failures,
    }
}

/// One worker's counters: its whole [`taskgraph::profiling`] ledger,
/// the running total of the counts its requests recorded.
pub type WorkerStatsReport = taskgraph::profiling::Counts;

/// The `stats` response body.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StatsReport {
    /// Cache counters.
    pub cache: CacheStatsReport,
    /// Per-worker counters, indexed by worker id.
    pub workers: Vec<WorkerStatsReport>,
    /// Event-loop admission counters (v4).
    pub net: NetStatsReport,
    /// Disk-store counters (v5; zeros without `--store`).
    pub store: StoreStatsReport,
}

/// One response body.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Answer to [`Request::Solve`].
    Solve(SolveReport),
    /// Answer to [`Request::SolveDeadlines`]: one entry per deadline,
    /// in request order.
    Deadlines(Vec<Result<SolveReport, ErrorBody>>),
    /// Answer to [`Request::EnergyCurve`]: `(deadline, energy)`
    /// samples (infeasible points are skipped, as in the engine).
    Curve(Vec<(f64, f64)>),
    /// Answer to a v3 [`Request::EnergyCurve`] with `exact` set:
    /// closed-form segments.
    CurveExact(CurveExactReport),
    /// Answer to [`Request::Batch`]: one entry per job, in order.
    Batch(Vec<Result<SolveReport, ErrorBody>>),
    /// Answer to [`Request::Patch`] (v2).
    Patch(PatchReport),
    /// Answer to [`Request::Corpus`] (v4): one outcome per shard, in
    /// shard order, manifest-compatible with a local corpus run.
    Corpus(Vec<crate::corpus::ShardOutcome>),
    /// Answer to [`Request::Lineage`] (v5).
    Lineage(LineageReport),
    /// Answer to [`Request::Stats`].
    Stats(StatsReport),
    /// Answer to [`Request::Shutdown`].
    Shutdown,
    /// The request failed as a whole.
    Error(ErrorBody),
}

/// A response plus its envelope metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct ResponseEnvelope {
    /// The protocol version, echoing the request's.
    pub version: u64,
    /// The correlation id echoed from the request.
    pub id: u64,
    /// The response body.
    pub response: Response,
}

// ---------------------------------------------------------------
// Codec: one declaration per wire object
// ---------------------------------------------------------------

/// A value with one JSON wire form.
pub(crate) trait Wire: Sized {
    /// The wire form.
    fn to_json(&self) -> Json;

    /// Read the wire form back; anything malformed is an
    /// [`ErrorKind::BadRequest`] error.
    fn from_json(v: &Json) -> Result<Self, ErrorBody>;
}

fn bad(msg: impl Into<String>) -> ErrorBody {
    ErrorBody::new(ErrorKind::BadRequest, msg)
}

/// A value of the wrong JSON shape. The [`field`] it was read from
/// names itself in the message.
fn shape(expected: &str) -> ErrorBody {
    bad(format!("expected {expected}"))
}

/// Required field `key` of object `v`.
fn field<T: Wire>(v: &Json, key: &str) -> Result<T, ErrorBody> {
    let x = v
        .get(key)
        .ok_or_else(|| bad(format!("missing \"{key}\"")))?;
    T::from_json(x).map_err(|e| {
        if e.message.starts_with("expected ") {
            bad(format!("\"{key}\": {}", e.message))
        } else {
            e // already names its own field, or a domain error
        }
    })
}

/// Required field `key` of object `v`, borrowed through `read` (tags
/// and arrays that are inspected, not decoded).
fn read<'a, T>(
    v: &'a Json,
    key: &str,
    expected: &str,
    get: impl FnOnce(&'a Json) -> Option<T>,
) -> Result<T, ErrorBody> {
    let x = v
        .get(key)
        .ok_or_else(|| bad(format!("missing \"{key}\"")))?;
    get(x).ok_or_else(|| bad(format!("\"{key}\": expected {expected}")))
}

/// An array of wire values.
fn arr<T: Wire>(items: &[T]) -> Json {
    Json::Arr(items.iter().map(T::to_json).collect())
}

fn put<T: Wire>(pairs: &mut Vec<(String, Json)>, key: &str, val: &T) {
    pairs.push((key.to_string(), val.to_json()));
}

/// A field left off the wire while unset, so older peers never see
/// it. Absent or malformed, it reads back as unset.
trait OptWire {
    fn to_wire(&self) -> Option<Json>;
    fn from_wire(v: Option<&Json>) -> Self;
}

impl<T: Wire> OptWire for Option<T> {
    fn to_wire(&self) -> Option<Json> {
        self.as_ref().map(T::to_json)
    }

    fn from_wire(v: Option<&Json>) -> Self {
        v.and_then(|v| T::from_json(v).ok())
    }
}

/// A flag is unset while `false`.
impl OptWire for bool {
    fn to_wire(&self) -> Option<Json> {
        self.then_some(Json::Bool(true))
    }

    fn from_wire(v: Option<&Json>) -> Self {
        v.and_then(Json::as_bool).unwrap_or(false)
    }
}

fn put_opt<T: OptWire>(pairs: &mut Vec<(String, Json)>, key: &str, val: &T) {
    if let Some(j) = val.to_wire() {
        pairs.push((key.to_string(), j));
    }
}

/// One field of a table row, keyed by its Rust name: `f` is required,
/// `f = d` reads as `d` when absent or malformed, and `f: opt` is an
/// [`OptWire`] field.
macro_rules! wire_field {
    (put $pairs:ident, $val:expr, $key:ident : opt) => {
        put_opt(&mut $pairs, stringify!($key), $val)
    };
    (put $pairs:ident, $val:expr, $key:ident) => {
        put(&mut $pairs, stringify!($key), $val)
    };
    (get $v:ident, $key:ident : opt) => {
        OptWire::from_wire($v.get(stringify!($key)))
    };
    (get $v:ident, $key:ident = $default:expr) => {
        field($v, stringify!($key)).unwrap_or_else(|_| $default)
    };
    (get $v:ident, $key:ident) => {
        field($v, stringify!($key))?
    };
}

/// [`Wire`] for a struct whose JSON keys are its field names, listed
/// in wire order.
macro_rules! wire_struct {
    ($ty:ident { $($key:ident $(: $opt:ident)? $(= $default:expr)?),* $(,)? }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                let mut pairs = Vec::new();
                $(wire_field!(put pairs, &self.$key, $key $(: $opt)?);)*
                Json::Obj(pairs)
            }

            fn from_json(v: &Json) -> Result<Self, ErrorBody> {
                Ok($ty { $($key: wire_field!(get v, $key $(: $opt)? $(= $default)?),)* })
            }
        }
    };
}

/// [`Wire`] for an enum whose variants are told apart by the string
/// under `tag`, each variant's fields as in `wire_struct!`. `what`
/// names the tag in the error for an unknown one.
macro_rules! wire_enum {
    ($ty:ident, $tag:literal, $what:literal {
        $($variant:ident = $wire:literal { $($key:ident $(: $opt:ident)?),* }),* $(,)?
    }) => {
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                match self {
                    $($ty::$variant { $($key),* } => {
                        #[allow(unused_mut)]
                        let mut pairs = vec![($tag.to_string(), Json::str($wire))];
                        $(wire_field!(put pairs, $key, $key $(: $opt)?);)*
                        Json::Obj(pairs)
                    })*
                }
            }

            fn from_json(v: &Json) -> Result<Self, ErrorBody> {
                Ok(match read(v, $tag, "a string", Json::as_str)? {
                    $($wire => $ty::$variant { $($key: wire_field!(get v, $key $(: $opt)?)),* },)*
                    other => return Err(bad(format!(concat!("unknown ", $what, " {:?}"), other))),
                })
            }
        }
    };
}

wire_enum!(Request, "type", "request type" {
    Solve = "solve" { graph, model, deadline },
    SolveDeadlines = "solve_deadlines" { graph, model, deadlines },
    EnergyCurve = "energy_curve" { graph, model, points, lo, hi, exact: opt },
    Batch = "batch" { model, jobs },
    Patch = "patch" { base, edits, deadline },
    Corpus = "corpus" { shards, jobs },
    Lineage = "lineage" { key },
    Stats = "stats" {},
    Shutdown = "shutdown" {},
});

wire_enum!(GraphEdit, "op", "edit op" {
    SetWeight = "set_weight" { task, weight },
    InsertEdge = "insert_edge" { from, to },
    RemoveEdge = "remove_edge" { from, to },
    AddTask = "add_task" { weight, preds, succs },
    RemoveTask = "remove_task" { task },
});

wire_enum!(CurveEnergy, "form", "segment form" {
    Affine = "affine" { a, b },
    Power = "power" { c, p },
});

wire_struct!(CorpusJob {
    name,
    graph,
    model,
    deadline
});

wire_struct!(SolveReport {
    energy,
    algorithm,
    makespan,
    solve_ns,
    prep_ns,
    cached,
    worker
});

wire_struct!(CurveExactReport { exact, cached_curve = false, segments });

wire_struct!(ErrorBody { kind, message = String::new(), deadline: opt, min_makespan: opt });

wire_struct!(LineageHop {
    parent,
    edits,
    child
});

wire_struct!(LineageReport { key, depth, hops });

/// The `stats` blocks: counter tables that share one codec.
trait StatsBlock: CounterTable {}

impl StatsBlock for CacheStatsReport {}
impl StatsBlock for WorkerStatsReport {}
impl StatsBlock for NetStatsReport {}
impl StatsBlock for StoreStatsReport {}

/// Keys in table order; a counter absent from the object (newer than
/// the peer's build) or malformed reads as 0.
impl<T: StatsBlock> Wire for T {
    fn to_json(&self) -> Json {
        Json::Obj(
            self.fields()
                .map(|(k, n)| (k.to_string(), n.to_json()))
                .collect(),
        )
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        if !matches!(v, Json::Obj(_)) {
            return Err(shape("an object"));
        }
        Ok(T::from_fn(|k| v.get(k).and_then(Json::as_u64).unwrap_or(0)))
    }
}

// Older daemons leave out the `net` (v4) and `store` (v5) blocks.
wire_struct!(StatsReport {
    cache,
    workers,
    net = NetStatsReport::default(),
    store = StoreStatsReport::default(),
});

// Written by hand: values whose JSON shape is not their Rust shape.

/// [`Wire`] for JSON scalars: each type's expected shape, encoder and
/// reader.
macro_rules! wire_scalar {
    ($($ty:ty: $expected:literal, $encode:expr, $decode:expr;)*) => {$(
        impl Wire for $ty {
            fn to_json(&self) -> Json {
                $encode(self)
            }

            fn from_json(v: &Json) -> Result<Self, ErrorBody> {
                $decode(v).ok_or_else(|| shape($expected))
            }
        }
    )*};
}

wire_scalar! {
    f64: "a number", |x: &f64| Json::num(*x), Json::as_f64;
    u64: "an integer in 0..=2^53", |x: &u64| Json::num(*x as f64), Json::as_u64;
    usize: "an integer in 0..=2^53", |x: &usize| Json::num(*x as f64),
        |v: &Json| v.as_u64().map(|n| n as usize);
    bool: "a boolean", |x: &bool| Json::Bool(*x), Json::as_bool;
    String: "a string", |x: &String| Json::str(x.clone()),
        |v: &Json| v.as_str().map(str::to_string);
    // Content keys travel as fixed-width hex strings.
    u128: "a hex content key", |x: &u128| Json::str(key_to_hex(*x)),
        |v: &Json| v.as_str().and_then(key_from_hex);
}

impl<T: Wire> Wire for Vec<T> {
    fn to_json(&self) -> Json {
        arr(self)
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        v.as_arr()
            .ok_or_else(|| shape("an array"))?
            .iter()
            .map(T::from_json)
            .collect()
    }
}

impl Wire for ErrorKind {
    fn to_json(&self) -> Json {
        Json::str(self.wire())
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        let name = v.as_str().ok_or_else(|| shape("a string"))?;
        ERROR_KINDS
            .iter()
            .find(|(_, n)| *n == name)
            .map(|(kind, _)| *kind)
            .ok_or_else(|| bad(format!("unknown error kind {name:?}")))
    }
}

/// Edges travel as `[u, v]` pairs, and [`TaskGraph::new`] validates.
impl Wire for TaskGraph {
    fn to_json(&self) -> Json {
        let edge = |&(u, v): &(taskgraph::TaskId, taskgraph::TaskId)| {
            Json::Arr(vec![u.index().to_json(), v.index().to_json()])
        };
        Json::Obj(vec![
            ("weights".into(), arr(self.weights())),
            (
                "edges".into(),
                Json::Arr(self.edges().iter().map(edge).collect()),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        let weights: Vec<f64> = field(v, "weights")?;
        let edges = read(v, "edges", "an array", Json::as_arr)?
            .iter()
            .map(|e| match e.as_arr() {
                Some([u, v]) => u.as_u64().zip(v.as_u64()),
                _ => None,
            })
            .map(|pair| {
                pair.map(|(u, v)| (u as usize, v as usize))
                    .ok_or_else(|| bad("each edge must be a [u, v] pair of task ids"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        TaskGraph::new(weights, &edges).map_err(|e| bad(format!("invalid graph: {e}")))
    }
}

/// Tagged by `kind`; the mode constructors validate.
impl Wire for EnergyModel {
    fn to_json(&self) -> Json {
        let kind = match self {
            EnergyModel::Continuous { .. } => "continuous",
            EnergyModel::Discrete(_) => "discrete",
            EnergyModel::VddHopping(_) => "vdd",
            EnergyModel::Incremental(_) => "incremental",
        };
        let mut pairs = vec![("kind".to_string(), Json::str(kind))];
        match self {
            EnergyModel::Continuous { s_max } => put_opt(&mut pairs, "s_max", s_max),
            EnergyModel::Discrete(m) | EnergyModel::VddHopping(m) => {
                pairs.push(("speeds".into(), arr(m.speeds())))
            }
            EnergyModel::Incremental(m) => {
                put(&mut pairs, "s_min", &m.s_min());
                put(&mut pairs, "s_max", &m.s_max());
                put(&mut pairs, "delta", &m.delta());
            }
        }
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        let kind = read(v, "kind", "a string", Json::as_str)?;
        match kind {
            "continuous" => match v.get("s_max") {
                None => Ok(EnergyModel::continuous_unbounded()),
                Some(s) => s
                    .as_f64()
                    .filter(|s| *s > 0.0)
                    .map(EnergyModel::continuous)
                    .ok_or_else(|| bad("\"s_max\" must be a positive number")),
            },
            "discrete" | "vdd" => {
                let speeds: Vec<f64> = field(v, "speeds")?;
                let modes = DiscreteModes::new(&speeds)
                    .map_err(|e| bad(format!("invalid mode ladder: {e}")))?;
                Ok(if kind == "discrete" {
                    EnergyModel::Discrete(modes)
                } else {
                    EnergyModel::VddHopping(modes)
                })
            }
            "incremental" => {
                let modes = IncrementalModes::new(
                    field(v, "s_min")?,
                    field(v, "s_max")?,
                    field(v, "delta")?,
                )
                .map_err(|e| bad(format!("invalid incremental grid: {e}")))?;
                Ok(EnergyModel::Incremental(modes))
            }
            other => Err(bad(format!("unknown model kind {other:?}"))),
        }
    }
}

/// The pairs of an encoded object, to flatten into another.
fn pairs_of(v: Json) -> Vec<(String, Json)> {
    match v {
        Json::Obj(pairs) => pairs,
        _ => unreachable!("tables encode objects"),
    }
}

/// The closed form flattens into the segment, tagged by `form`.
impl Wire for CurveSegment {
    fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(5);
        put(&mut pairs, "lo", &self.deadline_lo);
        put(&mut pairs, "hi", &self.deadline_hi);
        pairs.extend(pairs_of(self.energy.to_json()));
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        Ok(CurveSegment {
            deadline_lo: field(v, "lo")?,
            deadline_hi: field(v, "hi")?,
            energy: CurveEnergy::from_json(v)?,
        })
    }
}

/// One outcome of a deadline sweep or batch: `{"ok":true,"result":R}`
/// or `{"ok":false,"error":E}`.
impl Wire for Result<SolveReport, ErrorBody> {
    fn to_json(&self) -> Json {
        Json::Obj(match self {
            Ok(r) => vec![
                ("ok".into(), Json::Bool(true)),
                ("result".into(), r.to_json()),
            ],
            Err(e) => vec![
                ("ok".into(), Json::Bool(false)),
                ("error".into(), e.to_json()),
            ],
        })
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        Ok(if field(v, "ok")? {
            Ok(field(v, "result")?)
        } else {
            Err(field(v, "error")?)
        })
    }
}

/// [`Wire`] for pairs that travel as two-key objects.
macro_rules! wire_pair {
    ($($a:ident: $ta:ty, $b:ident: $tb:ty;)*) => {$(
        impl Wire for ($ta, $tb) {
            fn to_json(&self) -> Json {
                Json::Obj(vec![
                    (stringify!($a).into(), self.0.to_json()),
                    (stringify!($b).into(), self.1.to_json()),
                ])
            }

            fn from_json(v: &Json) -> Result<Self, ErrorBody> {
                Ok((field(v, stringify!($a))?, field(v, stringify!($b))?))
            }
        }
    )*};
}

wire_pair! {
    deadline: f64, energy: f64; // a sampled curve point
    graph: TaskGraph, deadline: f64; // a batch job
}

/// `name` travels as `file`, and the result flattens into the entry:
/// `energy` and `algorithm`, or `error`.
impl Wire for CorpusEntry {
    fn to_json(&self) -> Json {
        let mut pairs = Vec::with_capacity(7);
        put(&mut pairs, "file", &self.name);
        put(&mut pairs, "key", &self.key);
        put(&mut pairs, "tasks", &self.tasks);
        put(&mut pairs, "deadline", &self.deadline);
        put(&mut pairs, "model", &self.model);
        match &self.result {
            Ok((energy, algorithm)) => {
                put(&mut pairs, "energy", energy);
                put(&mut pairs, "algorithm", algorithm);
            }
            Err(e) => put(&mut pairs, "error", e),
        }
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        let result = match v.get("error") {
            Some(e) => Err(ErrorBody::from_json(e)?),
            None => Ok((field(v, "energy")?, field(v, "algorithm")?)),
        };
        Ok(CorpusEntry {
            name: field(v, "file")?,
            key: field(v, "key")?,
            tasks: field(v, "tasks")?,
            deadline: field(v, "deadline")?,
            model: field(v, "model")?,
            result,
        })
    }
}

/// `elapsed_ns` travels as a plain number: f64 resolution is plenty
/// for a throughput figure, and an integer would cap it at 2^53 ns.
impl Wire for ShardOutcome {
    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("shard".into(), self.shard.to_json()),
            ("shards".into(), self.shards.to_json()),
            ("elapsed_ns".into(), Json::num(self.elapsed_ns as f64)),
            ("entries".into(), self.entries.to_json()),
        ])
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        Ok(ShardOutcome {
            shard: field(v, "shard")?,
            shards: field(v, "shards")?,
            elapsed_ns: field::<f64>(v, "elapsed_ns")? as u128,
            entries: field(v, "entries")?,
        })
    }
}

/// A solve report extended with `key` and `warm_lp`.
impl Wire for PatchReport {
    fn to_json(&self) -> Json {
        let mut pairs = pairs_of(self.report.to_json());
        put(&mut pairs, "key", &self.key);
        put(&mut pairs, "warm_lp", &self.warm_lp);
        Json::Obj(pairs)
    }

    fn from_json(v: &Json) -> Result<Self, ErrorBody> {
        Ok(PatchReport {
            report: SolveReport::from_json(v)?,
            key: field(v, "key")?,
            warm_lp: field(v, "warm_lp")?,
        })
    }
}

fn protocol(msg: impl Into<String>) -> ErrorBody {
    ErrorBody::new(ErrorKind::Protocol, msg)
}

impl RequestEnvelope {
    /// Encode to the one-line JSON payload (framing is separate).
    pub fn encode(&self) -> String {
        let mut pairs = Vec::new();
        put(&mut pairs, "v", &self.version);
        put(&mut pairs, "id", &self.id);
        // Left off while unset, so v1–v4 bytes are unchanged.
        put_opt(&mut pairs, "timeout_ms", &self.timeout_ms);
        put_opt(&mut pairs, "as_of", &self.as_of);
        pairs.extend(pairs_of(self.request.to_json()));
        Json::Obj(pairs).encode()
    }

    /// The `id` of a payload that parses as JSON with an integer
    /// `id`, else 0: a frame that fails [`RequestEnvelope::decode`] is
    /// answered under it, so a pipelined client can still match the
    /// error to its request.
    pub fn id_of(payload: &str) -> u64 {
        json::parse(payload)
            .ok()
            .and_then(|v| v.get("id").and_then(Json::as_u64))
            .unwrap_or(0)
    }

    /// Decode a payload. Version/JSON failures come back as
    /// [`ErrorKind::Protocol`], content failures as
    /// [`ErrorKind::BadRequest`].
    pub fn decode(payload: &str) -> Result<RequestEnvelope, ErrorBody> {
        let v = json::parse(payload).map_err(|e| protocol(e.to_string()))?;
        let version = match v.get("v").and_then(Json::as_u64) {
            Some(n) if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&n) => n,
            Some(n) => {
                return Err(protocol(format!(
                    "unsupported protocol version {n} (this build speaks \
                     {MIN_PROTOCOL_VERSION}..={PROTOCOL_VERSION})"
                )))
            }
            None => return Err(protocol("missing protocol version \"v\"")),
        };
        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        let request = Request::from_json(&v)?;
        if version < request.min_version() {
            let typ = v.get("type").and_then(Json::as_str).unwrap_or_default();
            return Err(protocol(format!(
                "request type {typ:?} requires protocol version {} (request used {version})",
                request.min_version()
            )));
        }
        let timeout_ms = Option::<u64>::from_wire(v.get("timeout_ms"));
        if timeout_ms.is_some() && version < 4 {
            return Err(protocol(format!(
                "\"timeout_ms\" requires protocol version 4 (request used {version})"
            )));
        }
        let as_of = Option::<u64>::from_wire(v.get("as_of"));
        if as_of.is_some() && version < 5 {
            return Err(protocol(format!(
                "\"as_of\" requires protocol version 5 (request used {version})"
            )));
        }
        Ok(RequestEnvelope {
            version,
            id,
            timeout_ms,
            as_of,
            request,
        })
    }
}

impl ResponseEnvelope {
    /// Encode to the one-line JSON payload (framing is separate).
    pub fn encode(&self) -> String {
        let mut pairs = Vec::with_capacity(5);
        put(&mut pairs, "v", &self.version);
        put(&mut pairs, "id", &self.id);
        let (typ, result) = match &self.response {
            Response::Error(e) => {
                put(&mut pairs, "ok", &false);
                put(&mut pairs, "error", e);
                return Json::Obj(pairs).encode();
            }
            Response::Solve(r) => ("solve", r.to_json()),
            Response::Deadlines(items) => ("solve_deadlines", items.to_json()),
            Response::Curve(points) => ("energy_curve", points.to_json()),
            Response::CurveExact(c) => ("energy_curve", c.to_json()),
            Response::Batch(items) => ("batch", items.to_json()),
            Response::Patch(p) => ("patch", p.to_json()),
            Response::Corpus(shards) => ("corpus", shards.to_json()),
            Response::Lineage(l) => ("lineage", l.to_json()),
            Response::Stats(s) => ("stats", s.to_json()),
            Response::Shutdown => (
                "shutdown",
                Json::Obj(vec![("stopping".into(), Json::Bool(true))]),
            ),
        };
        put(&mut pairs, "ok", &true);
        pairs.push(("type".into(), Json::str(typ)));
        pairs.push(("result".into(), result));
        Json::Obj(pairs).encode()
    }

    /// Decode a payload (the client side of [`Self::encode`]).
    pub fn decode(payload: &str) -> Result<ResponseEnvelope, ErrorBody> {
        let v = json::parse(payload).map_err(|e| protocol(e.to_string()))?;
        let version = match v.get("v").and_then(Json::as_u64) {
            Some(n) if (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&n) => n,
            _ => {
                return Err(protocol(
                    "missing or unsupported protocol version in response",
                ))
            }
        };
        let id = v.get("id").and_then(Json::as_u64).unwrap_or(0);
        let response = if field(&v, "ok")? {
            let typ = read(&v, "type", "a string", Json::as_str)?;
            let result = v.get("result").ok_or_else(|| bad("missing \"result\""))?;
            match typ {
                "solve" => Response::Solve(field(&v, "result")?),
                "solve_deadlines" => Response::Deadlines(field(&v, "result")?),
                // A sampled curve is an array of points; an exact
                // curve is an object carrying closed-form segments (v3).
                "energy_curve" if result.as_arr().is_none() => {
                    Response::CurveExact(field(&v, "result")?)
                }
                "energy_curve" => Response::Curve(field(&v, "result")?),
                "batch" => Response::Batch(field(&v, "result")?),
                "patch" => Response::Patch(field(&v, "result")?),
                "corpus" => Response::Corpus(field(&v, "result")?),
                "lineage" => Response::Lineage(field(&v, "result")?),
                "stats" => Response::Stats(field(&v, "result")?),
                "shutdown" => Response::Shutdown,
                other => return Err(bad(format!("unknown response type {other:?}"))),
            }
        } else {
            Response::Error(field(&v, "error")?)
        };
        Ok(ResponseEnvelope {
            version,
            id,
            response,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> TaskGraph {
        TaskGraph::new(vec![2.0, 4.0, 1.0], &[(0, 1), (0, 2)]).unwrap()
    }

    #[test]
    fn request_encode_decode_identity() {
        let reqs = vec![
            Request::Solve {
                graph: graph(),
                model: EnergyModel::continuous(2.0),
                deadline: 8.0,
            },
            Request::SolveDeadlines {
                graph: graph(),
                model: EnergyModel::continuous_unbounded(),
                deadlines: vec![4.0, 5.5, 7.25],
            },
            Request::EnergyCurve {
                graph: graph(),
                model: EnergyModel::Discrete(DiscreteModes::new(&[1.0, 2.0]).unwrap()),
                points: 8,
                lo: 1.05,
                hi: 4.0,
                exact: false,
            },
            Request::EnergyCurve {
                graph: graph(),
                model: EnergyModel::VddHopping(DiscreteModes::new(&[1.0, 2.0]).unwrap()),
                points: 8,
                lo: 1.05,
                hi: 4.0,
                exact: true,
            },
            Request::Batch {
                model: EnergyModel::VddHopping(DiscreteModes::new(&[0.5, 1.5]).unwrap()),
                jobs: vec![(graph(), 6.0), (graph(), 9.0)],
            },
            Request::Patch {
                base: 0x36bd_06bc_a277_3179_37d0_2054_da46_d064,
                edits: vec![
                    GraphEdit::SetWeight {
                        task: 1,
                        weight: 3.5,
                    },
                    GraphEdit::InsertEdge { from: 0, to: 2 },
                    GraphEdit::RemoveEdge { from: 0, to: 1 },
                    GraphEdit::AddTask {
                        weight: 1.0,
                        preds: vec![0, 1],
                        succs: vec![2],
                    },
                    GraphEdit::RemoveTask { task: 2 },
                ],
                deadline: 7.5,
            },
            Request::Lineage {
                key: 0x36bd_06bc_a277_3179_37d0_2054_da46_d064,
            },
            Request::Stats,
            Request::Shutdown,
        ];
        for (i, request) in reqs.into_iter().enumerate() {
            let env = RequestEnvelope::new(i as u64 + 1, request);
            let back = RequestEnvelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn envelope_version_tracks_request_needs() {
        // Plain requests ride v1 (older daemons keep understanding
        // them); patch needs v2.
        assert_eq!(RequestEnvelope::new(1, Request::Stats).version, 1);
        let patch = Request::Patch {
            base: 1,
            edits: vec![],
            deadline: 1.0,
        };
        assert_eq!(RequestEnvelope::new(1, patch.clone()).version, 2);
        // A patch forced into a v1 envelope is rejected at decode.
        let bogus = RequestEnvelope {
            version: 1,
            id: 1,
            timeout_ms: None,
            as_of: None,
            request: patch,
        };
        let e = RequestEnvelope::decode(&bogus.encode()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires protocol version 2"), "{e}");
    }

    #[test]
    fn response_encode_decode_identity() {
        let report = SolveReport {
            energy: 24.5,
            algorithm: "continuous".into(),
            makespan: 7.75,
            solve_ns: 12_345,
            prep_ns: 0,
            cached: true,
            worker: 3,
        };
        let infeasible = ErrorBody {
            kind: ErrorKind::Infeasible,
            message: "too tight".into(),
            deadline: Some(1.0),
            min_makespan: Some(2.5),
        };
        let responses = vec![
            Response::Solve(report.clone()),
            Response::Deadlines(vec![Ok(report.clone()), Err(infeasible.clone())]),
            Response::Curve(vec![(4.0, 10.0), (8.0, 2.5)]),
            Response::CurveExact(CurveExactReport {
                segments: vec![
                    reclaim_core::CurveSegment {
                        deadline_lo: 2.0,
                        deadline_hi: 3.5,
                        energy: reclaim_core::CurveEnergy::Affine { a: 40.0, b: -8.0 },
                    },
                    reclaim_core::CurveSegment {
                        deadline_lo: 3.5,
                        deadline_hi: 8.0,
                        energy: reclaim_core::CurveEnergy::Power { c: 96.0, p: 2.0 },
                    },
                ],
                exact: true,
                cached_curve: true,
            }),
            Response::Patch(PatchReport {
                report: report.clone(),
                key: 0xdead_beef_0123_4567_89ab_cdef_0000_0001,
                warm_lp: true,
            }),
            Response::Batch(vec![Err(infeasible.clone()), Ok(report)]),
            Response::Stats(StatsReport {
                cache: CacheStatsReport {
                    entries: 2,
                    bytes: 4096,
                    hits: 10,
                    misses: 3,
                    evictions: 1,
                    patch_hits: 6,
                    patch_misses: 2,
                    rekeys: 5,
                },
                workers: vec![
                    WorkerStatsReport {
                        requests: 5,
                        solves: 9,
                        solve_ns: 777,
                        warm_lost: 2,
                        bnb_nodes: 123_456,
                        bnb_steals: 7,
                        sp_splice: 11,
                        sp_splice_miss: 1,
                        cone_nodes: 42,
                        topo_order: 13,
                        classify: 3,
                        sp_from_graph: 2,
                        transitive_reduction: 1,
                    },
                    WorkerStatsReport::default(),
                ],
                net: NetStatsReport {
                    connections: 4,
                    queue_depth: 1,
                    inflight: 3,
                    rejected: 2,
                    timeouts: 1,
                },
                store: StoreStatsReport {
                    entries: 7,
                    bytes: 8192,
                    recovered: 6,
                    corrupt_skipped: 1,
                    replays: 4,
                    write_failures: 3,
                },
            }),
            Response::Lineage(LineageReport {
                key: 0xdead_beef_0123_4567_89ab_cdef_0000_0002,
                depth: 1,
                hops: vec![LineageHop {
                    parent: 0xdead_beef_0123_4567_89ab_cdef_0000_0001,
                    edits: vec![GraphEdit::SetWeight {
                        task: 1,
                        weight: 3.5,
                    }],
                    child: 0xdead_beef_0123_4567_89ab_cdef_0000_0002,
                }],
            }),
            Response::Shutdown,
            Response::Error(infeasible),
        ];
        for (i, response) in responses.into_iter().enumerate() {
            let env = ResponseEnvelope {
                version: PROTOCOL_VERSION,
                id: i as u64,
                response,
            };
            let back = ResponseEnvelope::decode(&env.encode()).unwrap();
            assert_eq!(back, env);
        }
    }

    #[test]
    fn unknown_version_rejected_known_range_accepted() {
        // All live versions decode…
        for v in [1, 2, 3, 4, 5] {
            let payload = format!(r#"{{"v":{v},"id":1,"type":"stats"}}"#);
            let env = RequestEnvelope::decode(&payload).unwrap();
            assert_eq!(env.version, v);
        }
        // …anything newer (or missing) is a protocol error.
        let payload = r#"{"v":6,"id":1,"type":"stats"}"#;
        let e = RequestEnvelope::decode(payload).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("version 6"), "{}", e.message);
        let none = r#"{"id":1,"type":"stats"}"#;
        assert_eq!(
            RequestEnvelope::decode(none).unwrap_err().kind,
            ErrorKind::Protocol
        );
    }

    #[test]
    fn timeout_needs_v4_and_rides_the_envelope() {
        // Attaching a timeout bumps the envelope to v4, even on a
        // request type that itself rides v1.
        let env = RequestEnvelope::new(9, Request::Stats).with_timeout_ms(Some(250));
        assert_eq!(env.version, 4);
        let back = RequestEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back.timeout_ms, Some(250));
        assert_eq!(back, env);
        // `None` changes nothing — v1 bytes stay v1.
        let plain = RequestEnvelope::new(9, Request::Stats).with_timeout_ms(None);
        assert_eq!(plain.version, 1);
        assert!(!plain.encode().contains("timeout_ms"));
        // A timeout smuggled into an older envelope is rejected.
        let smuggled = r#"{"v":3,"id":1,"type":"stats","timeout_ms":250}"#;
        let e = RequestEnvelope::decode(smuggled).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("timeout_ms"), "{}", e.message);
    }

    #[test]
    fn as_of_needs_v5_and_rides_the_envelope() {
        // Attaching a time-travel depth bumps the envelope to v5, even
        // on a request type that itself rides v1.
        let solve = Request::Solve {
            graph: graph(),
            model: EnergyModel::continuous_unbounded(),
            deadline: 8.0,
        };
        let env = RequestEnvelope::new(9, solve.clone()).with_as_of(Some(2));
        assert_eq!(env.version, 5);
        let back = RequestEnvelope::decode(&env.encode()).unwrap();
        assert_eq!(back.as_of, Some(2));
        assert_eq!(back, env);
        // `None` and depth 0 change nothing — v1 bytes stay v1.
        for depth in [None, Some(0)] {
            let plain = RequestEnvelope::new(9, solve.clone()).with_as_of(depth);
            assert_eq!(plain.version, 1);
            assert!(!plain.encode().contains("as_of"));
        }
        // A depth smuggled into an older envelope is rejected.
        let smuggled = r#"{"v":4,"id":1,"type":"stats","as_of":2}"#;
        let e = RequestEnvelope::decode(smuggled).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("as_of"), "{}", e.message);
    }

    #[test]
    fn lineage_needs_v5() {
        let req = Request::Lineage { key: 0xabc };
        let env = RequestEnvelope::new(4, req);
        assert_eq!(env.version, 5, "lineage is a v5 request");
        assert_eq!(RequestEnvelope::decode(&env.encode()).unwrap(), env);
        // Forcing it into v4 is a protocol error.
        let mut bogus = env;
        bogus.version = 4;
        let e = RequestEnvelope::decode(&bogus.encode()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires protocol version 5"), "{e}");
    }

    #[test]
    fn stats_store_block_defaults_to_zero_for_old_daemons() {
        // A v4 daemon's stats payload has no "store" section: a v5
        // client decodes it as zeros instead of erroring.
        let payload =
            r#"{"cache":{"entries":1,"bytes":64,"hits":2,"misses":1,"evictions":0},"workers":[]}"#;
        let v = json::parse(payload).unwrap();
        let s = StatsReport::from_json(&v).unwrap();
        assert_eq!(s.store, StoreStatsReport::default());
    }

    /// Every `stats` block is a counter table: each name once, and a
    /// by-name build over its by-name read gives the value back.
    #[test]
    fn counter_tables_name_each_counter_once_and_rebuild_by_name() {
        fn check<T: CounterTable + PartialEq + fmt::Debug>() {
            let mut names = T::NAMES.to_vec();
            names.sort_unstable();
            names.dedup();
            assert_eq!(names.len(), T::NAMES.len(), "{:?}", T::NAMES);
            // Distinct values, so a swapped pair of fields shows.
            let mut n = 0;
            let t = T::from_fn(|_| {
                n += 1;
                n
            });
            let fields: Vec<_> = t.fields().collect();
            assert_eq!(fields.len(), T::NAMES.len());
            assert!(fields.iter().map(|(k, _)| k).eq(T::NAMES));
            let rebuilt = T::from_fn(|k| fields.iter().find(|(f, _)| *f == k).unwrap().1);
            assert_eq!(rebuilt, t);
        }
        check::<WorkerStatsReport>();
        check::<CacheStatsReport>();
        check::<NetStatsReport>();
        check::<StoreStatsReport>();
    }

    #[test]
    fn corpus_request_and_response_round_trip_at_v4() {
        use crate::corpus::{CorpusEntry, CorpusJob, ShardOutcome};
        let req = Request::Corpus {
            shards: 2,
            jobs: vec![
                CorpusJob {
                    name: "a.inst".into(),
                    graph: graph(),
                    model: EnergyModel::continuous_unbounded(),
                    deadline: 6.0,
                },
                CorpusJob {
                    name: "b.inst".into(),
                    graph: graph(),
                    model: EnergyModel::VddHopping(DiscreteModes::new(&[1.0, 2.0]).unwrap()),
                    deadline: 4.5,
                },
            ],
        };
        let env = RequestEnvelope::new(3, req);
        assert_eq!(env.version, 4, "corpus is a v4 request");
        assert_eq!(RequestEnvelope::decode(&env.encode()).unwrap(), env);
        // Forcing it into v3 is a protocol error.
        let mut bogus = env.clone();
        bogus.version = 3;
        let e = RequestEnvelope::decode(&bogus.encode()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);

        let resp = Response::Corpus(vec![
            ShardOutcome {
                shard: 0,
                shards: 2,
                entries: vec![CorpusEntry {
                    name: "a.inst".into(),
                    key: 0xabc,
                    tasks: 3,
                    deadline: 6.0,
                    model: "continuous".into(),
                    result: Ok((12.5, "continuous".into())),
                }],
                elapsed_ns: 1_234_567,
            },
            ShardOutcome {
                shard: 1,
                shards: 2,
                entries: vec![CorpusEntry {
                    name: "b.inst".into(),
                    key: 0xdef,
                    tasks: 3,
                    deadline: 4.5,
                    model: "vdd".into(),
                    result: Err(ErrorBody {
                        kind: ErrorKind::Infeasible,
                        message: "too tight".into(),
                        deadline: Some(4.5),
                        min_makespan: Some(5.0),
                    }),
                }],
                elapsed_ns: 0,
            },
        ]);
        let env = ResponseEnvelope {
            version: 4,
            id: 3,
            response: resp,
        };
        assert_eq!(ResponseEnvelope::decode(&env.encode()).unwrap(), env);
    }

    #[test]
    fn frame_buffer_reassembles_arbitrary_chunking() {
        // Three frames, pushed one byte at a time: every frame comes
        // out intact, in order, regardless of chunk boundaries.
        let payloads = ["hello", r#"{"v":4}"#, ""];
        let mut wire = Vec::new();
        for p in payloads {
            write_frame(&mut wire, p).unwrap();
        }
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for chunk in wire.chunks(1) {
            fb.push(chunk);
            while let Some(frame) = fb.next_frame().unwrap() {
                got.push(frame);
            }
        }
        assert_eq!(got, payloads);
        assert!(fb.is_empty());

        // Coalesced in one push: same result.
        let mut fb = FrameBuffer::new();
        fb.push(&wire);
        for p in payloads {
            assert_eq!(fb.next_frame().unwrap().as_deref(), Some(p));
        }
        assert_eq!(fb.next_frame().unwrap(), None);

        // A violated grammar poisons the stream exactly like
        // `read_frame`: bad header, bad terminator, oversized length.
        let mut fb = FrameBuffer::new();
        fb.push(b"abc\nxyz\n");
        assert!(matches!(fb.next_frame(), Err(FrameError::Truncated(_))));
        let mut fb = FrameBuffer::new();
        fb.push(b"2\nhiX");
        assert!(matches!(fb.next_frame(), Err(FrameError::Truncated(_))));
        let mut fb = FrameBuffer::new();
        fb.push(format!("{}\n", MAX_FRAME + 1).as_bytes());
        assert!(matches!(fb.next_frame(), Err(FrameError::TooLarge(_))));
        let mut fb = FrameBuffer::new();
        fb.push(b"999999999999999999999"); // 21 digits, no newline
        assert!(matches!(fb.next_frame(), Err(FrameError::Truncated(_))));
    }

    #[test]
    fn exact_curve_needs_v3_plain_curve_rides_v1() {
        let plain = Request::EnergyCurve {
            graph: graph(),
            model: EnergyModel::continuous_unbounded(),
            points: 8,
            lo: 1.05,
            hi: 4.0,
            exact: false,
        };
        assert_eq!(RequestEnvelope::new(1, plain.clone()).version, 1);
        // The false flag is omitted on the wire: v1 bytes unchanged.
        assert!(!RequestEnvelope::new(1, plain).encode().contains("exact"));
        let exact = Request::EnergyCurve {
            graph: graph(),
            model: EnergyModel::continuous_unbounded(),
            points: 8,
            lo: 1.05,
            hi: 4.0,
            exact: true,
        };
        assert_eq!(RequestEnvelope::new(1, exact.clone()).version, 3);
        // An exact request forced into an older envelope is rejected.
        let bogus = RequestEnvelope {
            version: 2,
            id: 1,
            timeout_ms: None,
            as_of: None,
            request: exact,
        };
        let e = RequestEnvelope::decode(&bogus.encode()).unwrap_err();
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("requires protocol version 3"), "{e}");
    }

    #[test]
    fn key_hex_round_trips() {
        for key in [
            0u128,
            1,
            u128::MAX,
            0x36bd_06bc_a277_3179_37d0_2054_da46_d064,
        ] {
            let hex = key_to_hex(key);
            assert_eq!(hex.len(), 2 + 32, "fixed width: {hex}");
            assert_eq!(key_from_hex(&hex), Some(key));
        }
        assert_eq!(key_from_hex("ff"), Some(255), "prefix is optional");
        assert_eq!(key_from_hex("0xzz"), None);
    }

    #[test]
    fn malformed_requests_are_bad_request_not_protocol() {
        for payload in [
            r#"{"v":1,"type":"warp"}"#,
            r#"{"v":1,"type":"solve"}"#,
            r#"{"v":1,"type":"solve","graph":{"weights":[1],"edges":[[0,0]]},"model":{"kind":"continuous"},"deadline":1}"#,
            r#"{"v":1,"type":"solve","graph":{"weights":[1],"edges":[]},"model":{"kind":"warp"},"deadline":1}"#,
        ] {
            let e = RequestEnvelope::decode(payload).unwrap_err();
            assert_eq!(e.kind, ErrorKind::BadRequest, "{payload}");
        }
        // Non-JSON is a protocol error.
        assert_eq!(
            RequestEnvelope::decode("not json").unwrap_err().kind,
            ErrorKind::Protocol
        );
    }

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "hello").unwrap();
        write_frame(&mut buf, r#"{"v":1}"#).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some("hello"));
        assert_eq!(read_frame(&mut r).unwrap().as_deref(), Some(r#"{"v":1}"#));
        assert!(read_frame(&mut r).unwrap().is_none(), "clean EOF");
    }

    #[test]
    fn truncated_frames_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, "payload-of-some-length").unwrap();
        // Every strict prefix must fail loudly, except the empty one
        // (clean end-of-session).
        for cut in 1..buf.len() {
            let mut r = &buf[..cut];
            assert!(
                matches!(read_frame(&mut r), Err(FrameError::Truncated(_))),
                "prefix of {cut} bytes should be a truncation error"
            );
        }
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
    }

    #[test]
    fn oversized_and_garbage_headers_rejected() {
        let mut r: &[u8] = b"99999999999999999999\nx";
        assert!(matches!(
            read_frame(&mut r),
            Err(FrameError::Truncated(_)) | Err(FrameError::TooLarge(_))
        ));
        let huge = format!("{}\n", MAX_FRAME + 1);
        let mut r = huge.as_bytes();
        assert!(matches!(read_frame(&mut r), Err(FrameError::TooLarge(_))));
        let mut r: &[u8] = b"abc\nxyz\n";
        assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated(_))));
    }

    #[test]
    fn both_frame_readers_agree_on_every_complete_frame() {
        let oversized = format!("{}\n", MAX_FRAME + 1);
        let cases: [&[u8]; 7] = [
            &frame(r#"{"v":1,"type":"stats"}"#),
            b"12a\nxyz\n",
            b"3\nabcX",
            b"2\n\xff\xfe\n",
            oversized.as_bytes(),
            b"999999999999999999999",
            b"0\n\n",
        ];
        for bytes in cases {
            let mut r = bytes;
            let blocking = format!("{:?}", read_frame(&mut r));
            let mut fb = FrameBuffer::new();
            fb.push(bytes);
            let buffered = format!("{:?}", fb.next_frame());
            assert_eq!(blocking, buffered, "{bytes:?}");
        }
    }

    #[test]
    fn solve_error_mapping_carries_structure() {
        let e = SolveError::Infeasible {
            deadline: 1.5,
            min_makespan: 3.0,
        };
        let body = ErrorBody::from(&e);
        assert_eq!(body.kind, ErrorKind::Infeasible);
        assert_eq!(body.deadline, Some(1.5));
        assert_eq!(body.min_makespan, Some(3.0));
        let body = ErrorBody::from(&SolveError::Numerical("stall".into()));
        assert_eq!(body.kind, ErrorKind::Numerical);
        assert!(body.message.contains("stall"));
    }
}
