//! The disk-backed, content-addressed instance store (protocol v5).
//!
//! A daemon started with `--store DIR` persists every prepared
//! instance it builds under its FNV-128 content key, one file per key.
//! A record keeps only what a load cannot cheaply re-derive: the
//! graph, the model, the topological order and the shape class with
//! its SP tree ([`taskgraph::AnalysisSnapshot`]), and the retained
//! exact curve. The critical path and the transitive reduction are
//! re-derived on load ([`taskgraph::PreparedInstance::restore`]); the
//! reduction costs a pass only for a `General` graph. The layout:
//!
//! ```text
//! DIR/instances/<32-hex-digit key>.inst    one record per file
//! DIR/lineage.log                          append-only patch records
//! ```
//!
//! Because keys are content hashes, files are **immutable facts**: a
//! patch never rewrites its base's file, it appends a lineage record
//! `(parent_key, edits, child_key)` and writes the child under its own
//! key. Old versions therefore accumulate, and any historical version
//! re-materializes in O(edits) by replaying its edit chain forward
//! from the nearest stored ancestor ([`Store::materialize`]) — the
//! substrate of the v5 `as_of` time-travel requests and the `lineage`
//! query.
//!
//! # Record format and crash safety
//!
//! One record is three lines:
//!
//! ```text
//! <decimal byte length of payload> '\n'
//! <16 hex digits: FNV-1a-64 of the payload bytes> '\n'
//! <payload JSON, one line> '\n'
//! ```
//!
//! Instance files are written to a temp name and atomically renamed,
//! so a reader (or a recovery scan) never observes a half-written
//! file under a real key. The lineage log is append-only; a crash can
//! leave a **torn tail** (the last record cut mid-write), and a
//! damaged disk can flip bytes anywhere. Recovery
//! ([`Store::open`]) is therefore strict and structured:
//!
//! * a record whose framing is intact but whose checksum mismatches is
//!   **skipped exactly** — the scan resumes at the next record;
//! * a record whose framing itself is broken ends the scan (there is
//!   no resynchronization point);
//! * every skip bumps the structured `corrupt_skipped` counter
//!   surfaced in the `stats` response — damage is never silent;
//! * after a damaged-log scan the surviving records are rewritten
//!   canonically (temp file + rename), and corrupt instance files are
//!   removed, so **two recovery runs produce byte-identical stores** —
//!   the property the crash-recovery battery `cmp`-checks.
//!
//! Durability is a policy flag: `--store-fsync` fsyncs data and
//! directory on every write; the default leaves flushing to the OS
//! (a kill -9 is survived either way — the checksummed records make
//! torn writes detectable — but a power failure may lose the tail).

use crate::cache::CachedCurve;
use crate::json::{self, Json};
use crate::proto::{
    key_from_hex, key_to_hex, LineageHop, SharedStoreStats, StoreStatsReport, Wire,
};
use models::EnergyModel;
use reclaim_core::engine::content_key;
use reclaim_core::{CurveSegment, CurveStats, ExactCurve};
use std::collections::{HashMap, HashSet};
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use taskgraph::edit::GraphEdit;
use taskgraph::{
    AnalysisSnapshot, PreparedInstance, Shape, SpKind, SpNode, SpTree, TaskGraph, TaskId,
};

/// FNV-1a 64-bit — the record checksum (the content keys themselves
/// are the engine's FNV-128; the store only needs to detect damage,
/// not address content, so 64 bits and a fast scan suffice).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Encode one record (see the module docs for the grammar).
fn encode_record(payload: &str) -> String {
    debug_assert!(!payload.contains('\n'), "payload must be one line");
    format!(
        "{}\n{:016x}\n{}\n",
        payload.len(),
        fnv1a64(payload.as_bytes()),
        payload
    )
}

/// How a record read failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RecordDamage {
    /// Framing intact, checksum mismatch: skip exactly this record.
    Corrupt,
    /// Framing broken (torn tail, flipped header): the scan cannot
    /// resynchronize past this point.
    Torn,
}

/// Parse the record starting at `*pos`. `Ok(Some(payload))` advances
/// `*pos` past the record; `Ok(None)` is a clean end of data;
/// `Err(Corrupt)` advances past the damaged record, `Err(Torn)` does
/// not advance (nothing past it is readable).
fn parse_record(data: &[u8], pos: &mut usize) -> Result<Option<String>, RecordDamage> {
    let avail = &data[*pos..];
    if avail.is_empty() {
        return Ok(None);
    }
    // Length header: decimal digits up to '\n', at most 20 digits.
    let header_end = match avail.iter().take(21).position(|&b| b == b'\n') {
        Some(i) => i,
        None => return Err(RecordDamage::Torn),
    };
    let len: usize = match std::str::from_utf8(&avail[..header_end])
        .ok()
        .and_then(|s| s.parse().ok())
    {
        Some(n) => n,
        None => return Err(RecordDamage::Torn),
    };
    // Checksum line: exactly 16 hex digits plus '\n'.
    let sum_start = header_end + 1;
    let body_start = sum_start + 17;
    if avail.len() < body_start + len + 1 {
        return Err(RecordDamage::Torn);
    }
    if avail[sum_start + 16] != b'\n' || avail[body_start + len] != b'\n' {
        return Err(RecordDamage::Torn);
    }
    let want = match std::str::from_utf8(&avail[sum_start..sum_start + 16])
        .ok()
        .and_then(|s| u64::from_str_radix(s, 16).ok())
    {
        Some(w) => w,
        None => return Err(RecordDamage::Torn),
    };
    let body = &avail[body_start..body_start + len];
    // Framing is intact from here on: damage advances past the record.
    *pos += body_start + len + 1;
    if fnv1a64(body) != want {
        return Err(RecordDamage::Corrupt);
    }
    match std::str::from_utf8(body) {
        Ok(s) => Ok(Some(s.to_string())),
        Err(_) => Err(RecordDamage::Corrupt),
    }
}

// ---------------------------------------------------------------
// Payload codecs (deterministic: insertion-ordered objects)
// ---------------------------------------------------------------

/// Every shape with its record name.
const SHAPES: [(Shape, &str); 8] = [
    (Shape::Single, "single"),
    (Shape::Chain, "chain"),
    (Shape::Fork, "fork"),
    (Shape::Join, "join"),
    (Shape::OutTree, "out_tree"),
    (Shape::InTree, "in_tree"),
    (Shape::SeriesParallel, "series_parallel"),
    (Shape::General, "general"),
];

/// The deepest SP tree (a leaf has depth 1) a record can carry. The
/// tree sits two JSON levels deep in its record (record → `analysis`
/// → `sp`), each composite adds two more (object and child array), so
/// a depth-`d` tree's leaves parse at nesting `2d`, and [`json::parse`]
/// refuses nesting of [`json::MAX_DEPTH`] or more. A deeper tree is
/// left out of its record; `restore` recomputes it.
const MAX_SP_DEPTH: usize = (json::MAX_DEPTH - 1) / 2;

/// SP trees encode compactly: a leaf is its task id, a series node is
/// `{"s":[…]}`, a parallel node `{"p":[…]}`.
fn sp_to_json(t: &SpTree) -> Json {
    fn node(n: SpNode<'_>) -> Json {
        let key = match n.kind() {
            SpKind::Leaf(id) => return Json::num(id.index() as f64),
            SpKind::Series => "s",
            SpKind::Parallel => "p",
        };
        Json::Obj(vec![(
            key.into(),
            Json::Arr(n.children().map(node).collect()),
        )])
    }
    node(t.root())
}

fn sp_from_json(v: &Json) -> Option<SpTree> {
    if let Some(id) = v.as_u64() {
        // A leaf's task id must fit in 31 bits (`SpTree::leaf`).
        return (id < 1 << 31).then(|| SpTree::leaf(TaskId(id as usize)));
    }
    let (children, series) = match (v.get("s"), v.get("p")) {
        (Some(cs), None) => (cs.as_arr()?, true),
        (None, Some(cs)) => (cs.as_arr()?, false),
        _ => return None,
    };
    let cs: Vec<SpTree> = children.iter().map(sp_from_json).collect::<Option<_>>()?;
    if cs.is_empty() {
        return None;
    }
    Some(if series {
        SpTree::series(cs)
    } else {
        SpTree::parallel(cs)
    })
}

fn snapshot_to_json(s: &AnalysisSnapshot) -> Json {
    let mut pairs = Vec::new();
    if let Some(topo) = &s.topo {
        pairs.push((
            "topo".into(),
            Json::Arr(topo.iter().map(|&i| Json::num(i as f64)).collect()),
        ));
    }
    if let Some((shape, tree)) = &s.class {
        let (_, name) = SHAPES
            .iter()
            .find(|(known, _)| known == shape)
            .expect("SHAPES lists every shape");
        pairs.push(("shape".into(), Json::str(*name)));
        if let Some(tree) = tree.as_ref().filter(|t| t.depth() <= MAX_SP_DEPTH) {
            pairs.push(("sp".into(), sp_to_json(tree)));
        }
    }
    Json::Obj(pairs)
}

fn snapshot_from_json(v: &Json) -> AnalysisSnapshot {
    // Field-level damage degrades to recomputation (restore()
    // re-validates everything against the graph anyway). Members other
    // than these — older records also carry "cp_weight" and "reduced",
    // which restore re-derives — are ignored.
    let topo = v.get("topo").and_then(Json::as_arr).map(|a| {
        a.iter()
            .filter_map(|i| i.as_u64().map(|i| i as usize))
            .collect()
    });
    let class = v
        .get("shape")
        .and_then(Json::as_str)
        .and_then(|name| SHAPES.iter().find(|(_, n)| *n == name))
        .map(|&(shape, _)| (shape, v.get("sp").and_then(sp_from_json)));
    AnalysisSnapshot { topo, class }
}

fn curve_to_json(c: &CachedCurve) -> Json {
    Json::Obj(vec![
        ("lo".into(), Json::num(c.lo)),
        ("hi".into(), Json::num(c.hi)),
        ("exact".into(), Json::Bool(c.curve.exact)),
        ("segments".into(), c.curve.segments.to_json()),
    ])
}

fn curve_from_json(v: &Json) -> Option<CachedCurve> {
    let segments = Vec::<CurveSegment>::from_json(v.get("segments")?).ok()?;
    Some(CachedCurve {
        lo: v.get("lo")?.as_f64()?,
        hi: v.get("hi")?.as_f64()?,
        curve: Arc::new(ExactCurve {
            segments,
            exact: v.get("exact")?.as_bool()?,
            // Build-cost counters are observability, not content: a
            // recovered curve cost nothing to rebuild.
            stats: CurveStats::default(),
        }),
    })
}

// ---------------------------------------------------------------
// The store
// ---------------------------------------------------------------

/// One instance as recovered from disk, which the cache turns into an
/// [`crate::cache::Entry`].
pub struct StoredEntry {
    /// The instance, warm: each persisted analysis its graph confirms
    /// is kept, the rest re-derived.
    pub inst: PreparedInstance,
    /// The model its key was derived under.
    pub model: EnergyModel,
    /// The retained exact curve, if one was persisted.
    pub curve: Option<CachedCurve>,
}

/// The disk-backed content-addressed store (see the module docs).
pub struct Store {
    dir: PathBuf,
    fsync: bool,
    /// Patch lineage index: child key → (parent key, edit batch). The
    /// first recorded parent of a child wins (re-recording the same
    /// patch is a no-op), so replay is deterministic.
    lineage: Mutex<HashMap<u128, (u128, Vec<GraphEdit>)>>,
    /// Byte size of each live instance file, for the `stats` block.
    sizes: Mutex<HashMap<u128, u64>>,
    /// Serializes lineage-log appends.
    log: Mutex<()>,
    /// The `stats` counters; `entries` and `bytes` are read from
    /// `sizes` instead.
    counts: SharedStoreStats,
    /// Uniquifies temp-file names across racing writers.
    tmp_seq: AtomicU64,
}

impl Store {
    /// Open (creating if needed) the store at `dir` and run the
    /// recovery scan: validate every instance file's record, rebuild
    /// the lineage index from the log, skip (and account) damage, and
    /// rewrite the log canonically when damage was found — after
    /// `open` returns, a second `open` of the same directory performs
    /// byte-identical recovery with zero skips.
    pub fn open(dir: impl Into<PathBuf>, fsync: bool) -> io::Result<Store> {
        let dir = dir.into();
        fs::create_dir_all(dir.join("instances"))?;
        let store = Store {
            dir,
            fsync,
            lineage: Mutex::new(HashMap::new()),
            sizes: Mutex::new(HashMap::new()),
            log: Mutex::new(()),
            counts: SharedStoreStats::default(),
            tmp_seq: AtomicU64::new(0),
        };
        store.scan_instances()?;
        store.scan_lineage()?;
        Ok(store)
    }

    fn instances_dir(&self) -> PathBuf {
        self.dir.join("instances")
    }

    fn instance_path(&self, key: u128) -> PathBuf {
        self.instances_dir()
            .join(format!("{}.inst", key_to_hex(key)))
    }

    fn log_path(&self) -> PathBuf {
        self.dir.join("lineage.log")
    }

    /// Validate every instance file (framing + checksum); corrupt
    /// files are deleted after being accounted in `corrupt_skipped`.
    /// Files are visited in sorted name order so recovery is
    /// deterministic.
    fn scan_instances(&self) -> io::Result<()> {
        let mut names: Vec<PathBuf> = fs::read_dir(self.instances_dir())?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        names.sort();
        let mut sizes = self.sizes.lock().expect("store lock poisoned");
        for path in names {
            let Some(key) = path
                .file_name()
                .and_then(|n| n.to_str())
                .and_then(|n| n.strip_suffix(".inst"))
                .and_then(key_from_hex)
            else {
                // Leftover temp file from a crash mid-write: the
                // rename never happened, so no key ever pointed here.
                // Not a record loss — remove without accounting.
                let _ = fs::remove_file(&path);
                continue;
            };
            let data = fs::read(&path)?;
            let mut pos = 0;
            match parse_record(&data, &mut pos) {
                Ok(Some(_)) if pos == data.len() => {
                    self.counts.recovered.fetch_add(1, Ordering::Relaxed);
                    sizes.insert(key, data.len() as u64);
                }
                _ => {
                    self.counts.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                    fs::remove_file(&path)?;
                }
            }
        }
        Ok(())
    }

    /// Rebuild the lineage index from the log, skipping damaged
    /// records; rewrite the log canonically iff anything was skipped.
    fn scan_lineage(&self) -> io::Result<()> {
        let data = match fs::read(self.log_path()) {
            Ok(d) => d,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        let mut pos = 0;
        let mut valid: Vec<String> = Vec::new();
        let mut damaged = false;
        loop {
            match parse_record(&data, &mut pos) {
                Ok(Some(payload)) => valid.push(payload),
                Ok(None) => break,
                Err(RecordDamage::Corrupt) => {
                    damaged = true;
                    self.counts.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                }
                Err(RecordDamage::Torn) => {
                    damaged = true;
                    self.counts.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                    break;
                }
            }
        }
        let mut index = self.lineage.lock().expect("store lock poisoned");
        let mut kept: Vec<&String> = Vec::new();
        for payload in &valid {
            let Some(LineageHop {
                parent,
                edits,
                child,
            }) = json::parse(payload)
                .ok()
                .and_then(|v| LineageHop::from_json(&v).ok())
            else {
                // Checksum-valid but semantically unreadable: account
                // it like any other damaged record.
                damaged = true;
                self.counts.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
                continue;
            };
            // First recorded parent wins (mirrors record_patch).
            index.entry(child).or_insert((parent, edits));
            kept.push(payload);
        }
        drop(index);
        if damaged {
            // Canonical rewrite: the surviving records, re-encoded, via
            // temp + rename — a second recovery run sees a clean log.
            let mut out = String::new();
            for payload in kept {
                out.push_str(&encode_record(payload));
            }
            self.write_atomic(&self.log_path(), out.as_bytes())?;
        }
        Ok(())
    }

    /// Write `bytes` to `path` atomically (temp file in the same
    /// directory, then rename), honoring the fsync policy.
    fn write_atomic(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = path.with_extension(format!("tmp{seq}"));
        {
            let mut f = fs::File::create(&tmp)?;
            f.write_all(bytes)?;
            if self.fsync {
                f.sync_all()?;
            }
        }
        fs::rename(&tmp, path)?;
        if self.fsync {
            if let Some(parent) = path.parent() {
                if let Ok(d) = fs::File::open(parent) {
                    let _ = d.sync_all();
                }
            }
        }
        Ok(())
    }

    /// Spill one instance (and optionally its retained curve) to disk
    /// under its content key. Content-addressed writes are idempotent;
    /// re-saving an existing key refreshes the persisted analyses and
    /// curve (e.g. a curve computed after the first spill).
    pub fn save(
        &self,
        key: u128,
        model: &EnergyModel,
        inst: &PreparedInstance,
        curve: Option<&CachedCurve>,
    ) -> io::Result<()> {
        let mut pairs = vec![
            ("key".into(), key.to_json()),
            ("model".into(), model.to_json()),
            ("graph".into(), inst.graph().to_json()),
            ("analysis".into(), snapshot_to_json(&inst.snapshot())),
        ];
        if let Some(c) = curve {
            pairs.push(("curve".into(), curve_to_json(c)));
        }
        let record = encode_record(&Json::Obj(pairs).encode());
        let written = self.write_atomic(&self.instance_path(key), record.as_bytes());
        self.counted(written)?;
        self.sizes
            .lock()
            .expect("store lock poisoned")
            .insert(key, record.len() as u64);
        Ok(())
    }

    /// Load the instance stored under `key`, if any. A damaged or
    /// inconsistent file (bad record, or content that no longer hashes
    /// to `key`) is accounted in `corrupt_skipped`, removed, and
    /// reported as absent — never a panic, never a silent wrong
    /// answer. The instance comes back warm: the analyses its graph
    /// confirms are reused, the rest recomputed.
    pub fn load(&self, key: u128) -> Option<StoredEntry> {
        let path = self.instance_path(key);
        let data = fs::read(&path).ok()?;
        let mut pos = 0;
        let payload = match parse_record(&data, &mut pos) {
            Ok(Some(p)) if pos == data.len() => p,
            _ => {
                self.discard_damaged(key, &path);
                return None;
            }
        };
        let Some(entry) = decode_instance_payload(&payload, key) else {
            self.discard_damaged(key, &path);
            return None;
        };
        Some(entry)
    }

    fn discard_damaged(&self, key: u128, path: &Path) {
        self.counts.corrupt_skipped.fetch_add(1, Ordering::Relaxed);
        let _ = fs::remove_file(path);
        self.sizes.lock().expect("store lock poisoned").remove(&key);
    }

    /// Record one applied patch in the lineage log: `parent` was
    /// edited with `edits` to produce `child`. The first recorded
    /// parent of a child wins; re-recording is a no-op (idempotent
    /// under repeated identical patch traffic). The index learns a hop
    /// only once its record is appended, so after a failed append the
    /// next identical patch writes it; the log lock keeps racing
    /// records of one child to one record.
    pub fn record_patch(&self, parent: u128, edits: &[GraphEdit], child: u128) -> io::Result<()> {
        if parent == child {
            return Ok(()); // an identity patch carries no history
        }
        let _guard = self.log.lock().expect("store lock poisoned");
        let index = || self.lineage.lock().expect("store lock poisoned");
        if index().contains_key(&child) {
            return Ok(());
        }
        let hop = LineageHop {
            parent,
            edits: edits.to_vec(),
            child,
        };
        let record = encode_record(&hop.to_json().encode());
        let append = || {
            let mut f = fs::OpenOptions::new()
                .create(true)
                .append(true)
                .open(self.log_path())?;
            f.write_all(record.as_bytes())?;
            if self.fsync {
                f.sync_all()?;
            }
            Ok(())
        };
        self.counted(append())?;
        index().insert(child, (parent, hop.edits));
        Ok(())
    }

    /// Pass a write's outcome through, counting a failure in
    /// `write_failures`.
    fn counted(&self, written: io::Result<()>) -> io::Result<()> {
        if written.is_err() {
            self.counts.write_failures.fetch_add(1, Ordering::Relaxed);
        }
        written
    }

    /// The recorded parent of `key`, with the edit batch that
    /// produced `key` from it.
    pub fn parent_of(&self, key: u128) -> Option<(u128, Vec<GraphEdit>)> {
        self.lineage
            .lock()
            .expect("store lock poisoned")
            .get(&key)
            .cloned()
    }

    /// Walk `depth` recorded patches up from `key`. `Some(key)` at
    /// depth 0; `None` when the chain is shorter than `depth`.
    pub fn ancestor_at(&self, key: u128, depth: u64) -> Option<u128> {
        let index = self.lineage.lock().expect("store lock poisoned");
        let mut cur = key;
        for _ in 0..depth {
            cur = index.get(&cur)?.0;
        }
        Some(cur)
    }

    /// The full recorded lineage of `key`, oldest hop first (the shape
    /// of the v5 `lineage` response). Empty when nothing was recorded.
    pub fn lineage_of(&self, key: u128) -> Vec<LineageHop> {
        let index = self.lineage.lock().expect("store lock poisoned");
        let mut hops = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = key;
        while seen.insert(cur) {
            let Some((parent, edits)) = index.get(&cur) else {
                break;
            };
            hops.push(LineageHop {
                parent: *parent,
                edits: edits.clone(),
                child: cur,
            });
            cur = *parent;
        }
        hops.reverse();
        hops
    }

    /// Materialize the instance stored under `key`: directly from its
    /// file when present, otherwise by loading the nearest stored
    /// ancestor and replaying the recorded edit chain forward —
    /// O(edits), one `replays` bump per hop. The result is verified to
    /// hash back to `key` before being returned (a lineage chain that
    /// no longer reproduces its child reads as absent, not wrong), and
    /// a replayed version is written through, so the next restart finds
    /// its record.
    pub fn materialize(&self, key: u128) -> Option<StoredEntry> {
        if let Some(entry) = self.load(key) {
            return Some(entry);
        }
        // Walk up to the nearest stored ancestor, collecting the edit
        // batches needed to come back down.
        let mut batches: Vec<Vec<GraphEdit>> = Vec::new();
        let mut seen = HashSet::new();
        let mut cur = key;
        loop {
            if !seen.insert(cur) {
                return None; // cycle in a damaged lineage index
            }
            let (parent, edits) = self.parent_of(cur)?;
            batches.push(edits);
            if let Some(base) = self.load(parent) {
                let mut inst = base.inst;
                for batch in batches.iter().rev() {
                    inst = inst.apply(batch).ok()?;
                    self.counts.replays.fetch_add(1, Ordering::Relaxed);
                }
                inst.warm();
                if content_key(inst.graph(), &base.model) != key {
                    return None;
                }
                let _ = self.save(key, &base.model, &inst, None);
                return Some(StoredEntry {
                    inst,
                    model: base.model,
                    // Curves never survive edits (weight-dependent).
                    curve: None,
                });
            }
            cur = parent;
        }
    }

    /// Current counters, in the shape of the v5 `stats` store block.
    pub fn stats(&self) -> StoreStatsReport {
        let sizes = self.sizes.lock().expect("store lock poisoned");
        StoreStatsReport {
            entries: sizes.len() as u64,
            bytes: sizes.values().sum(),
            ..self.counts.load()
        }
    }
}

fn decode_instance_payload(payload: &str, want_key: u128) -> Option<StoredEntry> {
    let v = json::parse(payload).ok()?;
    let key = u128::from_json(v.get("key")?).ok()?;
    if key != want_key {
        return None;
    }
    let model = EnergyModel::from_json(v.get("model")?).ok()?;
    let graph = TaskGraph::from_json(v.get("graph")?).ok()?;
    // The content-addressing invariant: the payload must still hash to
    // the key it is filed under.
    if content_key(&graph, &model) != want_key {
        return None;
    }
    let snap = v
        .get("analysis")
        .map(snapshot_from_json)
        .unwrap_or_default();
    // `restore` keeps each snapshot field the graph confirms; warm()
    // derives the critical path and fills whatever was dropped (the
    // reduction of a `General` graph among it).
    let inst = PreparedInstance::restore(Arc::new(graph), &snap);
    inst.warm();
    let curve = v.get("curve").and_then(curve_from_json);
    Some(StoredEntry { inst, model, curve })
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::generators;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("reclaim-store-{}-{tag}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn inst(seed: f64) -> (PreparedInstance, EnergyModel, u128) {
        let g = generators::diamond([1.0, 2.0, 3.0, seed]);
        let m = EnergyModel::continuous_unbounded();
        let key = content_key(&g, &m);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        (inst, m, key)
    }

    #[test]
    fn record_grammar_round_trips_and_flags_damage() {
        let payload = r#"{"k":"v"}"#;
        let rec = encode_record(payload);
        let bytes = rec.as_bytes();
        let mut pos = 0;
        assert_eq!(
            parse_record(bytes, &mut pos).unwrap().as_deref(),
            Some(payload)
        );
        assert_eq!(pos, bytes.len());
        // A flip in the payload region is Corrupt (skippable)…
        let mut flipped = bytes.to_vec();
        let payload_at = rec.len() - payload.len() - 1;
        flipped[payload_at] ^= 0x01;
        let mut pos = 0;
        assert_eq!(parse_record(&flipped, &mut pos), Err(RecordDamage::Corrupt));
        assert_eq!(pos, bytes.len(), "corrupt records are stepped over");
        // …while truncation is Torn (scan stops).
        for cut in 0..bytes.len() - 1 {
            let mut pos = 0;
            match parse_record(&bytes[..=cut], &mut pos) {
                Err(_) => {}
                ok => panic!("prefix of {} bytes parsed as {ok:?}", cut + 1),
            }
        }
    }

    #[test]
    fn sp_codec_refuses_what_no_tree_holds() {
        let (i, _, _) = inst(4.0);
        let tree = i.view().sp_tree().expect("the diamond is SP").clone();
        assert_eq!(sp_from_json(&sp_to_json(&tree)), Some(tree));
        // A leaf id past 31 bits or a childless composite reads as no
        // tree, so restore recomputes it; neither may panic.
        for bad in ["2147483648", r#"{"s":[]}"#, r#"{"p":[0,{"s":[]}]}"#] {
            assert!(sp_from_json(&json::parse(bad).unwrap()).is_none(), "{bad}");
        }
        assert!(sp_from_json(&json::parse("2147483647").unwrap()).is_some());
    }

    /// An SP graph of `k` nested levels, `3k + 1` tasks and tree depth
    /// `2k + 1`: each level runs a task, then the level below beside
    /// one task, then a task.
    fn nested(k: usize) -> TaskGraph {
        use taskgraph::sp::SpShape;
        let mut shape = SpShape::Leaf(1.0);
        for _ in 0..k {
            shape = SpShape::Series(vec![
                SpShape::Leaf(1.0),
                SpShape::Parallel(vec![shape, SpShape::Leaf(1.0)]),
                SpShape::Leaf(1.0),
            ]);
        }
        shape.build().0
    }

    #[test]
    fn deep_sp_records_load_back() {
        let dir = tmpdir("deep-sp");
        let m = EnergyModel::continuous_unbounded();
        // Depth 31 is the deepest tree a record carries, 33 the
        // shallowest it leaves out; 1,001 is far past the parser's cap.
        let cases = [(15, true), (16, false), (500, false)];
        {
            let store = Store::open(&dir, false).unwrap();
            for (k, carried) in cases {
                let g = nested(k);
                let inst = PreparedInstance::new(Arc::new(g.clone()));
                assert_eq!(inst.warm().sp_tree().map(SpTree::depth), Some(2 * k + 1));
                let key = content_key(&g, &m);
                store.save(key, &m, &inst, None).unwrap();
                let record = fs::read_to_string(store.instance_path(key)).unwrap();
                assert_eq!(record.contains("\"sp\":"), carried, "depth {}", 2 * k + 1);
            }
        }
        let store = Store::open(&dir, false).unwrap();
        for (k, _) in cases {
            let g = nested(k);
            let loaded = store.load(content_key(&g, &m)).expect("the record loads");
            let fresh = PreparedInstance::new(Arc::new(g));
            assert_eq!(loaded.inst.view().shape(), Shape::SeriesParallel);
            assert_eq!(loaded.inst.view().sp_tree(), fresh.view().sp_tree());
        }
        let stats = store.stats();
        assert_eq!((stats.recovered, stats.corrupt_skipped), (3, 0));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn save_load_round_trips_instance_and_curve() {
        let dir = tmpdir("roundtrip");
        let store = Store::open(&dir, false).unwrap();
        let (i, m, key) = inst(4.0);
        store.save(key, &m, &i, None).unwrap();
        assert_eq!(store.stats().entries, 1);
        let loaded = store.load(key).unwrap();
        assert_eq!(loaded.inst.graph(), i.graph());
        assert_eq!(loaded.inst.snapshot(), i.snapshot());
        assert!(loaded.curve.is_none());
        // Re-save with a curve: the entry refreshes in place.
        let curve = CachedCurve {
            lo: 1.05,
            hi: 4.0,
            curve: Arc::new(ExactCurve {
                segments: vec![reclaim_core::CurveSegment {
                    deadline_lo: 2.0,
                    deadline_hi: 8.0,
                    energy: reclaim_core::CurveEnergy::Power { c: 96.0, p: 2.0 },
                }],
                exact: true,
                stats: CurveStats::default(),
            }),
        };
        store.save(key, &m, &i, Some(&curve)).unwrap();
        let loaded = store.load(key).unwrap();
        let got = loaded.curve.expect("curve persisted");
        assert_eq!((got.lo, got.hi), (1.05, 4.0));
        assert_eq!(got.curve.segments, curve.curve.segments);
        assert_eq!(store.stats().entries, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_recovers_and_is_deterministic() {
        let dir = tmpdir("reopen");
        {
            let store = Store::open(&dir, false).unwrap();
            let (i, m, key) = inst(4.0);
            store.save(key, &m, &i, None).unwrap();
            let (i2, _, key2) = inst(5.0);
            store.save(key2, &m, &i2, None).unwrap();
        }
        let store = Store::open(&dir, false).unwrap();
        let s = store.stats();
        assert_eq!(s.recovered, 2);
        assert_eq!(s.entries, 2);
        assert_eq!(s.corrupt_skipped, 0);
        let (_, m, key) = inst(4.0);
        let loaded = store.load(key).unwrap();
        assert_eq!(content_key(loaded.inst.graph(), &m), key);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn lineage_replay_materializes_missing_children() {
        let dir = tmpdir("lineage");
        let store = Store::open(&dir, false).unwrap();
        let (i, m, k0) = inst(4.0);
        store.save(k0, &m, &i, None).unwrap();
        // Two patches recorded, but only the ROOT instance stored —
        // the children must re-materialize by replay.
        let e1 = vec![GraphEdit::SetWeight {
            task: 1,
            weight: 5.0,
        }];
        let p1 = i.apply(&e1).unwrap();
        let k1 = content_key(p1.graph(), &m);
        store.record_patch(k0, &e1, k1).unwrap();
        let e2 = vec![GraphEdit::RemoveEdge { from: 0, to: 2 }];
        let p2 = p1.apply(&e2).unwrap();
        let k2 = content_key(p2.graph(), &m);
        store.record_patch(k1, &e2, k2).unwrap();

        let got = store.materialize(k2).expect("replay succeeds");
        assert_eq!(got.inst.graph(), p2.graph());
        assert_eq!(store.stats().replays, 2);

        let hops = store.lineage_of(k2);
        assert_eq!(hops.len(), 2);
        assert_eq!((hops[0].parent, hops[0].child), (k0, k1));
        assert_eq!((hops[1].parent, hops[1].child), (k1, k2));
        assert_eq!(hops[0].edits, e1);
        assert_eq!(store.ancestor_at(k2, 2), Some(k0));
        assert_eq!(store.ancestor_at(k2, 3), None);

        // The lineage survives a reopen.
        drop(store);
        let store = Store::open(&dir, false).unwrap();
        assert_eq!(store.lineage_of(k2).len(), 2);
        assert!(store.materialize(k1).is_some());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_reopened_store_replays_each_missing_hop_once() {
        let dir = tmpdir("replay-reopen");
        let (root, m, k0) = inst(4.0);
        let hops = [
            vec![GraphEdit::SetWeight {
                task: 1,
                weight: 5.0,
            }],
            vec![GraphEdit::RemoveEdge { from: 0, to: 2 }],
            vec![GraphEdit::SetWeight {
                task: 3,
                weight: 0.5,
            }],
        ];
        let mut g = root.graph().clone();
        let mut key = k0;
        {
            // The root record, then k hops with no child records.
            let store = Store::open(&dir, false).unwrap();
            store.save(k0, &m, &root, None).unwrap();
            for edits in &hops {
                g = taskgraph::edit::apply_edits(&g, edits).unwrap().0;
                let child = content_key(&g, &m);
                store.record_patch(key, edits, child).unwrap();
                key = child;
            }
        }
        let store = Store::open(&dir, false).unwrap();
        let leaf = store.materialize(key).expect("replay succeeds");
        assert_eq!(store.stats().replays, hops.len() as u64);
        let rebuilt = PreparedInstance::new(Arc::new(g));
        rebuilt.warm();
        assert_eq!(leaf.inst.graph(), rebuilt.graph());
        assert_eq!(leaf.inst.view().shape(), rebuilt.view().shape());
        assert_eq!(
            leaf.inst.view().critical_path_weight(),
            rebuilt.view().critical_path_weight()
        );
        // The replayed leaf was written through: the next reopen reads
        // its record.
        drop(store);
        let store = Store::open(&dir, false).unwrap();
        let again = store.materialize(key).expect("the leaf's own record");
        assert_eq!(store.stats().replays, 0);
        assert_eq!(again.inst.graph(), rebuilt.graph());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_failed_lineage_append_is_written_by_the_next_identical_patch() {
        let dir = tmpdir("failed-append");
        let store = Store::open(&dir, false).unwrap();
        fs::remove_dir_all(&dir).unwrap();
        let edits = vec![GraphEdit::SetWeight {
            task: 1,
            weight: 2.5,
        }];
        assert!(store.record_patch(1, &edits, 2).is_err());
        assert_eq!(store.stats().write_failures, 1);
        fs::create_dir_all(&dir).unwrap();
        store.record_patch(1, &edits, 2).unwrap();
        let reopened = Store::open(&dir, false).unwrap();
        assert_eq!(reopened.parent_of(2), Some((1, edits)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_tail_is_skipped_and_rewritten_canonically() {
        let dir = tmpdir("tail");
        let (i, m, k0) = inst(4.0);
        let e1 = vec![GraphEdit::SetWeight {
            task: 1,
            weight: 5.0,
        }];
        let k1 = content_key(i.apply(&e1).unwrap().graph(), &m);
        {
            let store = Store::open(&dir, false).unwrap();
            store.save(k0, &m, &i, None).unwrap();
            store.record_patch(k0, &e1, k1).unwrap();
        }
        // Tear the log mid-record, as a crash during append would.
        let log = dir.join("lineage.log");
        let mut bytes = fs::read(&log).unwrap();
        let keep = bytes.len() / 2;
        bytes.truncate(keep);
        // Append a second, torn copy after the (intact) first record?
        // No — the first record itself is torn now; the scan must
        // account it and produce an empty canonical log.
        fs::write(&log, &bytes).unwrap();
        let store = Store::open(&dir, false).unwrap();
        assert_eq!(store.stats().corrupt_skipped, 1);
        assert!(store.lineage_of(k1).is_empty());
        drop(store);
        // Second recovery run: clean, and byte-identical log.
        let first = fs::read(&log).unwrap();
        let store = Store::open(&dir, false).unwrap();
        assert_eq!(store.stats().corrupt_skipped, 0);
        assert_eq!(fs::read(&log).unwrap(), first);
        let _ = fs::remove_dir_all(&dir);
    }

    /// Records written before the store dropped `"cp_weight"` and
    /// `"reduced"` still load, and their reduced edge list is ignored:
    /// one that leaves out the non-redundant edge 1→3 no longer yields
    /// a schedule that violates it.
    #[test]
    fn older_record_with_a_short_reduced_list_solves_like_fresh() {
        let dir = tmpdir("short-reduced");
        let edges = [(0, 2), (0, 3), (1, 3), (2, 4), (3, 4)];
        let g = TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0, 1.0], &edges).unwrap();
        let modes = models::DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        let m = EnergyModel::VddHopping(modes);
        let key = content_key(&g, &m);
        let fresh = PreparedInstance::new(Arc::new(g.clone()));
        fresh.warm();
        let pair =
            |&(u, v): &(usize, usize)| Json::Arr(vec![Json::num(u as f64), Json::num(v as f64)]);
        let topo = fresh.snapshot().topo.unwrap();
        let analysis = Json::Obj(vec![
            (
                "topo".into(),
                Json::Arr(topo.iter().map(|&i| Json::num(i as f64)).collect()),
            ),
            ("shape".into(), Json::str("general")),
            ("cp_weight".into(), Json::num(7.0)),
            (
                "reduced".into(),
                Json::Arr(edges.iter().filter(|&&e| e != (1, 3)).map(pair).collect()),
            ),
        ]);
        let payload = Json::Obj(vec![
            ("key".into(), key.to_json()),
            ("model".into(), m.to_json()),
            ("graph".into(), g.to_json()),
            ("analysis".into(), analysis),
        ]);
        let store = Store::open(&dir, false).unwrap();
        fs::write(store.instance_path(key), encode_record(&payload.encode())).unwrap();
        let loaded = store.load(key).expect("an older record still loads");
        let engine = reclaim_core::Engine::new(models::PowerLaw::CUBIC);
        let energy = |inst: &PreparedInstance| {
            let sol = engine.solve(&inst.view(), &m, 5.25);
            sol.map(|s| s.energy.to_bits())
        };
        let want = energy(&fresh).expect("the fresh instance solves");
        assert_eq!(
            energy(&loaded.inst).expect("the loaded instance solves"),
            want
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn damaged_instance_file_reads_as_accounted_absence() {
        let dir = tmpdir("damage");
        let store = Store::open(&dir, false).unwrap();
        let (i, m, key) = inst(4.0);
        store.save(key, &m, &i, None).unwrap();
        let path = dir
            .join("instances")
            .join(format!("{}.inst", key_to_hex(key)));
        let mut bytes = fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        assert!(store.load(key).is_none(), "damage is not served");
        assert_eq!(store.stats().corrupt_skipped, 1);
        assert!(!path.exists(), "damaged file removed after accounting");
        assert_eq!(store.stats().entries, 0);
        let _ = fs::remove_dir_all(&dir);
    }
}
