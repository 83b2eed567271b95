//! In-memory spans for the traced run: name, start, end, parent and
//! request id, recorded around each timed call and written out when the
//! benchmark ends.

use crate::stats::jstr;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u64,
    pub thread: u64,
}

/// Span recorder shared by the client threads and the layer suite.
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

fn thread_tag() -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    std::thread::current().id().hash(&mut h);
    h.finish()
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; returns its handle for [`Tracer::close`] and as a
    /// parent for child spans.
    pub fn open(&self, name: &'static str, parent: Option<usize>, request: u64) -> usize {
        let start_ns = self.now();
        let mut spans = self.spans.lock().expect("span lock poisoned");
        spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            thread: thread_tag(),
        });
        spans.len() - 1
    }

    pub fn close(&self, span: usize) {
        let end = self.now();
        self.spans.lock().expect("span lock poisoned")[span].end_ns = end;
    }

    /// Run `f` inside a span.
    pub fn within<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let s = self.open(name, parent, request);
        let out = f();
        self.close(s);
        out
    }

    pub fn count(&self) -> usize {
        self.spans.lock().expect("span lock poisoned").len()
    }

    /// Per span name: `(spans, total self time in ns)`. A span's self
    /// time is its duration minus the part its children cover
    /// (children of one parent never overlap: they run on the parent's
    /// thread in sequence).
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, u64)> {
        let spans = self.spans.lock().expect("span lock poisoned");
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
        for (i, s) in spans.iter().enumerate() {
            let e = out.entry(s.name).or_default();
            e.0 += 1;
            e.1 += (s.end_ns - s.start_ns).saturating_sub(child_ns[i]);
        }
        out
    }

    /// All spans as a JSON array.
    pub fn to_json(&self) -> String {
        let spans = self.spans.lock().expect("span lock poisoned");
        let rows: Vec<String> = spans
            .iter()
            .map(|s| {
                format!(
                    "{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{},\"thread\":{}}}",
                    jstr(s.name),
                    s.start_ns,
                    s.end_ns,
                    s.parent.map_or("null".into(), |p| p.to_string()),
                    s.request,
                    s.thread
                )
            })
            .collect();
        format!("[\n{}\n]\n", rows.join(",\n"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_children() {
        let t = Tracer::new();
        let root = t.open("root", None, 1);
        t.within("child", Some(root), 1, || {
            std::thread::sleep(std::time::Duration::from_millis(5))
        });
        t.close(root);
        let st = t.self_times();
        let (n, root_self) = st["root"];
        let (_, child_self) = st["child"];
        assert_eq!(n, 1);
        assert!(child_self >= 5_000_000);
        assert!(
            root_self < child_self,
            "root self {root_self} vs child {child_self}"
        );
    }
}
