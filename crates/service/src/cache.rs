//! The content-addressed cache of prepared instances.
//!
//! Keys are [`reclaim_core::engine::content_key`] hashes of the
//! `(graph, model)` content, so the *same instance arriving twice* —
//! from two connections, two files, or two runs of a client — maps to
//! one [`taskgraph::PreparedInstance`] whose analysis (topological
//! order, shape, SP tree, critical path, transitive reduction) is paid
//! for exactly once. The value is an [`Entry`]: the key, the prepared
//! instance, the model the key was derived under, a Vdd warm-start
//! slot and a retained-curve slot. Every lookup — [`get_or_prepare`],
//! [`patch`], and the `as_of` rewind [`materialize`] — hands out an
//! `Arc<Entry>`, the one handle a caller solves, walks curves and
//! writes through the store with; eviction never invalidates it.
//!
//! [`get_or_prepare`]: InstanceCache::get_or_prepare
//! [`patch`]: InstanceCache::patch
//! [`materialize`]: InstanceCache::materialize
//!
//! # Patching
//!
//! Since protocol v2 an entry can be **edited in place**:
//! [`InstanceCache::patch`] looks up a base instance by key, applies a
//! [`GraphEdit`] batch through [`taskgraph::PreparedInstance::apply`]
//! (selective invalidation — weight-only batches recompute *no*
//! structural analysis), derives the edited content key incrementally
//! ([`reclaim_core::engine::patched_key`]), and **re-keys** the entry:
//! the base slot is replaced by the patched instance under its new
//! key, modelling "this cached instance just changed" rather than
//! growing a second copy per edit. The base's Vdd warm-start slot
//! travels with the patched entry whenever the flow network survives
//! ([`reclaim_core::engine::vdd_basis_survives`]) and is reset
//! otherwise. Patch traffic is counted separately
//! (`patch_hits` / `patch_misses` / `rekeys`) so `stats` can tell a
//! patched-in-place instance from plain cache hits.
//!
//! Eviction keeps a dual budget: a maximum entry count and a maximum
//! (estimated) byte footprint
//! ([`taskgraph::PreparedInstance::approx_bytes`], plus
//! [`reclaim_core::vdd::warm_bytes`] for the flow handle a
//! Vdd-Hopping entry's warm slot holds). Each entry records
//! whether it was ever **reused** — looked up again, or patched — and
//! a patched entry inherits that mark from its base, so the head of a
//! live patch chain always carries it. The victim is the least recently
//! used never-reused entry, as long as reused entries hold at most 4/5
//! of the entry budget; past that share, or when every other entry is
//! reused, it is the least recently used entry. A burst of one-off
//! solves therefore evicts its own kind and leaves the chains clients
//! are still patching resident. The most recently inserted entry is
//! never evicted by its own insertion, so a single over-budget
//! instance still serves its request (and is dropped on the next
//! insertion instead).
//!
//! # The disk store (protocol v5)
//!
//! A cache built with [`InstanceCache::with_store`] is **backed by a
//! [`crate::store::Store`]**: every built or patched instance is
//! spilled to disk write-through, every patch is recorded in the
//! store's lineage log, an LRU victim is re-spilled with its retained
//! curve *before* it is dropped (so eviction downgrades the entry
//! from RAM to disk instead of destroying it — a re-request is a disk
//! hit, [`Prepared::StoreHit`], not a cold re-prepare), and a RAM
//! miss consults the store before building from scratch. Every one of
//! these writes is one spill of an entry. Spills run under the cache
//! lock on the eviction path; records are small (one JSON line) and
//! the alternative — dropping the victim outside the lock — would let
//! a racing re-request rebuild cold mid-spill.
//!
//! The key deliberately covers graph **and** model, even though the
//! cached analysis is model-independent: one cache entry *is* one
//! addressable instance on the wire, so hit/miss/eviction counters
//! read in instance units and an entry's lifetime matches its
//! traffic. The cost — a graph solved under two models is analyzed
//! twice — is bounded by the model count (≤ 4 kinds); sharing the
//! analysis across models would need a graph-keyed second level and
//! is not worth the accounting ambiguity yet.

use models::EnergyModel;
use reclaim_core::engine::{content_key, patched_key, vdd_basis_survives, VddWarm};
use reclaim_core::{vdd, ExactCurve};
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex, PoisonError};
use taskgraph::edit::{EditError, GraphEdit};
use taskgraph::PreparedInstance;

use crate::proto::{CacheStatsReport, SharedCacheStats};
use crate::store::Store;

/// Budgets for [`InstanceCache`].
#[derive(Debug, Clone, Copy)]
pub struct CacheConfig {
    /// Maximum live entries (≥ 1 enforced).
    pub max_entries: usize,
    /// Maximum estimated resident bytes across live entries.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 64,
            max_bytes: 256 << 20,
        }
    }
}

/// A retained exact energy–deadline curve (protocol v3): the segments
/// of the last `energy_curve {exact}` request against this entry, with
/// the deadline factors they were computed for. A repeat request with
/// the same factors is answered from here without touching the flow.
#[derive(Debug, Clone)]
pub struct CachedCurve {
    /// The `lo` factor of the request that built the curve.
    pub lo: f64,
    /// The `hi` factor of the request that built the curve.
    pub hi: f64,
    /// The curve itself.
    pub curve: Arc<ExactCurve>,
}

/// One cached instance: the handle every caller solves, walks curves,
/// patches and rewinds through, handed out as `Arc<Entry>` (eviction
/// drops the cache's reference, never the caller's).
pub struct Entry {
    /// Content key of `(inst.graph(), model)`: the entry's identity.
    pub key: u128,
    /// The prepared, fully warmed instance.
    pub inst: PreparedInstance,
    /// The model the key was derived under.
    pub model: EnergyModel,
    /// The retained min-cost flow of the last Vdd-Hopping solve, if
    /// any. Shared with the entry this one was patched from whenever
    /// the flow network survived the edits.
    warm: Arc<Mutex<Option<VddWarm>>>,
    /// The retained exact curve. Unlike the warm slot this never
    /// travels across patches — curve energies depend on the task
    /// weights, so **any** edit invalidates it.
    curve: Mutex<Option<CachedCurve>>,
}

impl Entry {
    fn new(
        key: u128,
        inst: PreparedInstance,
        model: EnergyModel,
        curve: Option<CachedCurve>,
    ) -> Entry {
        Entry {
            key,
            inst,
            model,
            warm: Arc::default(),
            curve: Mutex::new(curve),
        }
    }

    /// Run `f` with the Vdd warm handle taken out of its slot,
    /// **without** holding the lock across the work: the handle is
    /// taken under a short lock, `f` runs unlocked (a concurrent solve
    /// of the same entry just runs cold — wasted work, never
    /// serialization), and the refreshed handle is put back afterwards
    /// (last writer wins). Any model may pass: the warm engine entry
    /// points equal their cold twins for every model but Vdd-Hopping,
    /// which alone fills the slot. A poisoned slot is reclaimed — the
    /// handle inside is either intact or `None`, and either is a valid
    /// starting point.
    pub fn with_warm<T>(&self, f: impl FnOnce(&mut Option<VddWarm>) -> T) -> T {
        let mut warm = self
            .warm
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        let out = f(&mut warm);
        if let Some(handle) = warm {
            *self.warm.lock().unwrap_or_else(PoisonError::into_inner) = Some(handle);
        }
        out
    }

    /// The retained exact curve, if one was computed for the deadline
    /// factors `lo` and `hi`.
    pub fn retained_curve(&self, lo: f64, hi: f64) -> Option<Arc<ExactCurve>> {
        let slot = self.curve_guard();
        let retained = slot.as_ref().filter(|c| c.lo == lo && c.hi == hi)?;
        Some(Arc::clone(&retained.curve))
    }

    /// The curve slot, reclaimed if poisoned: it only ever holds a
    /// whole curve or `None`.
    fn curve_guard(&self) -> std::sync::MutexGuard<'_, Option<CachedCurve>> {
        self.curve.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The share of `max_entries` (numerator, denominator) reused entries
/// may hold and still be spared by eviction.
const REUSED_SHARE: (usize, usize) = (4, 5);

/// An entry's place in the LRU.
struct Slot {
    entry: Arc<Entry>,
    bytes: usize,
    last_used: u64,
    /// Looked up or patched since its insertion (or inherited from a
    /// patched base): spared by eviction while reused entries hold at
    /// most [`REUSED_SHARE`] of the entry budget.
    reused: bool,
}

struct Inner {
    map: HashMap<u128, Slot>,
    bytes: usize,
    tick: u64,
}

/// A thread-safe content-addressed LRU of prepared instances.
pub struct InstanceCache {
    cfg: CacheConfig,
    inner: Mutex<Inner>,
    /// Disk backing (protocol v5): spill on build/patch/evict, load
    /// on RAM miss, record patch lineage. `None` without `--store`.
    store: Option<Arc<Store>>,
    /// The traffic counters; `entries` and `bytes` are read from
    /// `inner` instead.
    counts: SharedCacheStats,
}

/// Where [`InstanceCache::get_or_prepare`] (or
/// [`InstanceCache::materialize`]) found the instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Prepared {
    /// Live in RAM.
    Hit,
    /// RAM miss, re-materialized from the disk store (analyses
    /// restored from the record, or replayed along the lineage — no
    /// re-preparation).
    StoreHit,
    /// Built and fully warmed from scratch.
    Built,
}

impl Prepared {
    /// Whether the daemon should report the instance as `cached`
    /// (preparation was not re-paid): everything but a cold build.
    pub fn cached(self) -> bool {
        !matches!(self, Prepared::Built)
    }
}

/// Why a patch was refused.
#[derive(Debug)]
pub enum PatchError {
    /// The base key is not in the cache (never seen, or evicted).
    UnknownBase,
    /// The edit batch is invalid for the base graph.
    Edit(EditError),
}

impl InstanceCache {
    /// An empty cache with the given budgets (RAM only).
    pub fn new(cfg: CacheConfig) -> InstanceCache {
        InstanceCache::with_store(cfg, None)
    }

    /// An empty cache with the given budgets, optionally backed by a
    /// disk store (see the module docs for the spill/load policy).
    pub fn with_store(cfg: CacheConfig, store: Option<Arc<Store>>) -> InstanceCache {
        InstanceCache {
            cfg: CacheConfig {
                max_entries: cfg.max_entries.max(1),
                max_bytes: cfg.max_bytes,
            },
            inner: Mutex::new(Inner {
                map: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            store,
            counts: SharedCacheStats::default(),
        }
    }

    /// The disk store behind the cache, if one is attached — for the
    /// `lineage` walk, the `as_of` ancestor lookup and its `stats`.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_deref()
    }

    /// Look up the entry for `key`, re-materializing it from the disk
    /// store (when one is attached) or building (and fully warming) it
    /// on a miss. `model` must be the model `key` was derived under;
    /// it is stored with the entry so `patch` can re-key without the
    /// client resending it. Returns the shared handle and where it came
    /// from ([`Prepared`]). The builder and the store load run
    /// *outside* the lock: two racing misses on one key both build,
    /// and the first insertion wins — wasted work, never a wrong
    /// answer.
    pub fn get_or_prepare(
        &self,
        key: u128,
        model: &EnergyModel,
        build: impl FnOnce() -> PreparedInstance,
    ) -> (Arc<Entry>, Prepared) {
        if let Some(entry) = self.lookup_quiet(key) {
            self.counts.hits.fetch_add(1, Ordering::Relaxed);
            return (entry, Prepared::Hit);
        }
        self.counts.misses.fetch_add(1, Ordering::Relaxed);
        // A RAM miss consults the store first: a spilled (or
        // recovered-after-restart) entry comes back with its analyses
        // and retained curve, skipping preparation entirely.
        let (inst, curve, outcome) = match self.store.as_ref().and_then(|s| s.load(key)) {
            Some(stored) => (stored.inst, stored.curve, Prepared::StoreHit),
            None => {
                let built = build();
                built.warm();
                (built, None, Prepared::Built)
            }
        };
        let (entry, _) = self.insert(Entry::new(key, inst, model.clone(), curve), false, None);
        if outcome == Prepared::Built {
            // Write-through: a freshly built instance is on disk
            // before its first response leaves the daemon, so a crash
            // right after never forgets it.
            self.spill(&entry);
        }
        (entry, outcome)
    }

    /// The entry for `key` as the `as_of` time-travel path needs it:
    /// live in RAM (recency refreshed, no hit counted), or else
    /// re-materialized by the attached store — from its record, or by
    /// replaying the lineage from the nearest stored ancestor — and
    /// inserted as an entry, counting one miss. `None` when `key` is
    /// neither live nor materializable (or no store is attached).
    pub fn materialize(&self, key: u128) -> Option<(Arc<Entry>, Prepared)> {
        if let Some(entry) = self.lookup_quiet(key) {
            return Some((entry, Prepared::Hit));
        }
        let stored = self.store.as_ref()?.materialize(key)?;
        self.counts.misses.fetch_add(1, Ordering::Relaxed);
        let entry = Entry::new(key, stored.inst, stored.model, stored.curve);
        let (entry, _) = self.insert(entry, false, None);
        Some((entry, Prepared::StoreHit))
    }

    /// Apply an edit batch to the cached instance `base`, re-keying
    /// the entry in place (see the module docs). A base missing from
    /// RAM but materializable by the attached store — from its record,
    /// or by replaying the lineage — comes back first (eviction,
    /// restarts and a crash before a child's spill don't break patch
    /// chains).
    /// On success the cache holds the patched entry under its new key
    /// and no longer holds `base`; in-flight solves against the base
    /// handle are unaffected (`Arc`). Also returns the nanoseconds
    /// spent re-warming the analyses a structural batch dropped, or
    /// `None` for a weight-only batch — every structural cache was
    /// carried, so the patched instance is as prepared as its base.
    pub fn patch(
        &self,
        base: u128,
        edits: &[GraphEdit],
    ) -> Result<(Arc<Entry>, Option<u64>), PatchError> {
        // Patch traffic is accounted in its own counters, not in the
        // plain hit/miss pair — `stats` must be able to tell them
        // apart.
        let base = match self.lookup_quiet(base) {
            Some(entry) => entry,
            // An attached store extends "held" to disk: a base that
            // was spilled on eviction (or recovered after a restart)
            // re-materializes and the patch proceeds as a hit — the
            // Vdd warm slot starts empty (live flow handles are never
            // persisted) and rebuilds lazily.
            None => match self.store.as_ref().and_then(|s| s.materialize(base)) {
                Some(stored) => Arc::new(Entry::new(base, stored.inst, stored.model, None)),
                None => {
                    self.counts.patch_misses.fetch_add(1, Ordering::Relaxed);
                    return Err(PatchError::UnknownBase);
                }
            },
        };
        // Apply (and, for structural batches, re-warm) outside the
        // lock — the expensive part must not serialize other workers.
        let patched = base.inst.apply(edits).map_err(PatchError::Edit)?;
        let rewarm_ns = (!edits.iter().all(GraphEdit::is_weight_only)).then(|| {
            let t0 = std::time::Instant::now();
            patched.warm();
            t0.elapsed().as_nanos() as u64
        });
        let key = patched_key(base.key, base.inst.graph(), edits)
            .unwrap_or_else(|| content_key(patched.graph(), &base.model));
        // The retained Vdd flow travels whenever the patched network
        // is the same; the curve never does.
        let mut entry = Entry::new(key, patched, base.model.clone(), None);
        if vdd_basis_survives(&base.inst, &entry.inst, edits) {
            entry.warm = Arc::clone(&base.warm);
        }
        // The patched entry inherits the reuse mark of the base this
        // patch just reused. When the edited content was already
        // cached (e.g. an edit that undoes a previous one), that entry
        // is kept.
        let (entry, inserted) = self.insert(entry, true, Some(base.key));
        self.counts.patch_hits.fetch_add(1, Ordering::Relaxed);
        // Lineage before content: if the daemon dies between the two
        // writes, a recorded hop whose child file is missing still
        // re-materializes by replay; a child file with no hop would
        // strand the edit out of every `as_of` walk. An already cached
        // content still records the hop: the *edit* is new history. A
        // failed append is counted in the store's `write_failures`.
        if let Some(store) = &self.store {
            let _ = store.record_patch(base.key, edits, key);
        }
        if inserted {
            self.spill(&entry);
        }
        Ok((entry, rewarm_ns))
    }

    /// Park an exact curve computed for `entry` in its curve slot and
    /// write the entry through: the walked curve is the expensive
    /// artifact, so a restarted daemon answers the repeat request from
    /// disk.
    pub fn retain_curve(&self, entry: &Entry, lo: f64, hi: f64, curve: Arc<ExactCurve>) {
        *entry.curve_guard() = Some(CachedCurve { lo, hi, curve });
        self.spill(entry);
    }

    /// Look up `key` without touching the hit counter; recency and the
    /// reuse mark are refreshed.
    fn lookup_quiet(&self, key: u128) -> Option<Arc<Entry>> {
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        let slot = inner.map.get_mut(&key)?;
        slot.last_used = tick;
        slot.reused = true;
        Some(Arc::clone(&slot.entry))
    }

    /// Insert `entry` under its key — after dropping the entry
    /// `replaces` names, for a patch's re-key — unless that key is
    /// live already: then the live entry is refreshed and kept (a
    /// racing worker inserted while this one was building). Returns
    /// the live entry and whether it is the one passed in.
    fn insert(&self, entry: Entry, reused: bool, replaces: Option<u128>) -> (Arc<Entry>, bool) {
        // A Vdd-Hopping entry is charged up front for the flow handle
        // its first solve parks in the warm slot.
        let warm = match &entry.model {
            EnergyModel::VddHopping(modes) => vdd::warm_bytes(&entry.inst.view(), modes),
            _ => 0,
        };
        let bytes = warm + entry.inst.approx_bytes();
        let key = entry.key;
        let mut inner = self.inner.lock().expect("cache lock poisoned");
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = replaces.and_then(|k| inner.map.remove(&k)) {
            inner.bytes -= old.bytes;
            self.counts.rekeys.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(live) = inner.map.get_mut(&key) {
            live.last_used = tick;
            live.reused = true;
            return (Arc::clone(&live.entry), false);
        }
        let entry = Arc::new(entry);
        inner.bytes += bytes;
        let slot = Slot {
            entry: Arc::clone(&entry),
            bytes,
            last_used: tick,
            reused,
        };
        inner.map.insert(key, slot);
        self.enforce_budget(&mut inner, key);
        (entry, true)
    }

    /// Evict entries until both budgets hold, never evicting `keep`
    /// (the entry whose insertion triggered enforcement). The victim
    /// is the least recently used never-reused entry while reused
    /// entries hold at most [`REUSED_SHARE`] of `max_entries`, else
    /// the least recently used entry (see the module docs).
    fn enforce_budget(&self, inner: &mut Inner, keep: u128) {
        while inner.map.len() > self.cfg.max_entries
            || (inner.bytes > self.cfg.max_bytes && inner.map.len() > 1)
        {
            let (num, den) = REUSED_SHARE;
            let reused = inner.map.values().filter(|e| e.reused).count();
            let spare_reused = reused * den <= self.cfg.max_entries * num;
            let lru = |spare: bool| {
                inner
                    .map
                    .iter()
                    .filter(|(k, e)| **k != keep && !(spare && e.reused))
                    .min_by_key(|(_, e)| e.last_used)
                    .map(|(k, _)| *k)
            };
            let victim = lru(spare_reused).or_else(|| lru(false));
            let Some(victim) = victim else { break };
            if let Some(e) = inner.map.remove(&victim) {
                inner.bytes -= e.bytes;
                self.counts.evictions.fetch_add(1, Ordering::Relaxed);
                // Eviction downgrades the entry from RAM to disk: the
                // latest analyses and the retained curve are
                // re-spilled before the drop, so a re-request is a
                // StoreHit (the Vdd warm slot holds a live flow handle
                // and cannot be serialized; it alone rebuilds lazily).
                self.spill(&e.entry);
            }
        }
    }

    /// Write `entry`, with its retained curve, to the attached store.
    /// A failed write degrades the entry to RAM-only, never to a wrong
    /// answer; the store counts it in `write_failures`.
    fn spill(&self, entry: &Entry) {
        if let Some(store) = &self.store {
            let curve = entry.curve_guard().clone();
            let _ = store.save(entry.key, &entry.model, &entry.inst, curve.as_ref());
        }
    }

    /// Spill every live entry (with its retained curve) to the store.
    /// The daemon calls this as its drain completes so a clean
    /// shutdown persists exactly the state a restart will recover.
    pub fn spill_all(&self) {
        let inner = self.inner.lock().expect("cache lock poisoned");
        for slot in inner.map.values() {
            self.spill(&slot.entry);
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStatsReport {
        let inner = self.inner.lock().expect("cache lock poisoned");
        CacheStatsReport {
            entries: inner.map.len() as u64,
            bytes: inner.bytes as u64,
            ..self.counts.load()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc as StdArc;
    use taskgraph::generators;

    fn prep(seed: f64) -> PreparedInstance {
        PreparedInstance::new(StdArc::new(generators::diamond([1.0, 2.0, 3.0, seed])))
    }

    fn model() -> EnergyModel {
        EnergyModel::continuous_unbounded()
    }

    #[test]
    fn hit_and_miss_counters() {
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 4,
            max_bytes: usize::MAX,
        });
        let (_, outcome) = cache.get_or_prepare(1, &model(), || prep(1.0));
        assert_eq!(outcome, Prepared::Built);
        assert!(!outcome.cached());
        let (_, outcome) = cache.get_or_prepare(1, &model(), || panic!("must not rebuild"));
        assert_eq!(outcome, Prepared::Hit);
        assert!(outcome.cached());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!(s.bytes > 0);
    }

    #[test]
    fn entry_budget_evicts_lru() {
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        cache.get_or_prepare(1, &model(), || prep(1.0));
        cache.get_or_prepare(2, &model(), || prep(2.0));
        // Touch 1 so 2 becomes the LRU.
        cache.get_or_prepare(1, &model(), || panic!("hit expected"));
        cache.get_or_prepare(3, &model(), || prep(3.0));
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        // 2 was evicted; 1 and 3 survive.
        let (_, outcome) = cache.get_or_prepare(1, &model(), || prep(1.0));
        assert_eq!(outcome, Prepared::Hit);
        let (_, outcome) = cache.get_or_prepare(3, &model(), || prep(3.0));
        assert_eq!(outcome, Prepared::Hit);
        let (_, outcome) = cache.get_or_prepare(2, &model(), || prep(2.0));
        assert_eq!(outcome, Prepared::Built, "2 must have been evicted");
    }

    #[test]
    fn one_off_burst_spares_reused_entries() {
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 5,
            max_bytes: usize::MAX,
        });
        // Four reused entries: exactly 4/5 of the entry budget.
        for k in 1..=4 {
            cache.get_or_prepare(k, &model(), || prep(k as f64));
        }
        for k in 1..=4 {
            cache.get_or_prepare(k, &model(), || panic!("hit expected"));
        }
        // A burst of one-off solves twice the budget evicts only its
        // own kind.
        for k in 100..110 {
            cache.get_or_prepare(k, &model(), || prep(1.0));
        }
        assert_eq!(cache.stats().evictions, 9);
        for k in 1..=4 {
            assert!(
                cache.lookup_quiet(k).is_some(),
                "reused entry {k} must stay"
            );
        }
        // Reusing the last one-off too puts reused entries past 4/5 of
        // the budget: the least recently used entry goes, reused or
        // not — here 1, peeked first above.
        cache.get_or_prepare(109, &model(), || panic!("hit expected"));
        cache.get_or_prepare(200, &model(), || prep(2.0));
        assert_eq!(cache.stats().evictions, 10);
        assert!(cache.lookup_quiet(1).is_none(), "LRU reused entry evicted");
        for k in [2, 3, 4, 109, 200] {
            assert!(cache.lookup_quiet(k).is_some(), "entry {k} must stay");
        }
    }

    #[test]
    fn patched_entry_inherits_reuse() {
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 3,
            max_bytes: usize::MAX,
        });
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let m = model();
        let k0 = content_key(&g, &m);
        cache.get_or_prepare(k0, &m, || PreparedInstance::new(StdArc::new(g)));
        let head = cache
            .patch(
                k0,
                &[GraphEdit::SetWeight {
                    task: 1,
                    weight: 5.0,
                }],
            )
            .unwrap()
            .0
            .key;
        // The chain head was never looked up under its own key, yet
        // one-off inserts past the budget leave it resident.
        for k in 100..104 {
            cache.get_or_prepare(k, &m, || prep(1.0));
        }
        assert_eq!(cache.stats().evictions, 2);
        assert!(cache.patch(head, &[]).is_ok(), "chain head must stay");
    }

    #[test]
    fn byte_budget_keeps_at_least_the_newest() {
        // A budget smaller than any one instance: every insertion
        // evicts the previous entry but keeps itself.
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 10,
            max_bytes: 1,
        });
        cache.get_or_prepare(1, &model(), || prep(1.0));
        assert_eq!(cache.stats().entries, 1, "own insertion survives");
        cache.get_or_prepare(2, &model(), || prep(2.0));
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.evictions, 1);
    }

    #[test]
    fn eviction_does_not_invalidate_live_handles() {
        let cache = InstanceCache::new(CacheConfig {
            max_entries: 1,
            max_bytes: usize::MAX,
        });
        let (held, _) = cache.get_or_prepare(1, &model(), || prep(1.0));
        cache.get_or_prepare(2, &model(), || prep(2.0)); // evicts 1
        assert_eq!(cache.stats().evictions, 1);
        // The handle still works: analysis remains usable.
        assert!(held.inst.view().critical_path_weight() > 0.0);
    }

    #[test]
    fn concurrent_same_key_converges_to_one_entry() {
        let cache = StdArc::new(InstanceCache::new(CacheConfig::default()));
        std::thread::scope(|s| {
            for _ in 0..8 {
                let cache = StdArc::clone(&cache);
                s.spawn(move || {
                    let (entry, _) = cache.get_or_prepare(42, &model(), || prep(5.0));
                    assert_eq!(entry.inst.graph().n(), 4);
                });
            }
        });
        let s = cache.stats();
        assert_eq!(s.entries, 1);
        assert_eq!(s.hits + s.misses, 8);
        assert!(s.misses >= 1);
    }

    #[test]
    fn patch_rekeys_in_place() {
        let cache = InstanceCache::new(CacheConfig::default());
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let m = model();
        let base_key = content_key(&g, &m);
        cache.get_or_prepare(base_key, &m, || {
            PreparedInstance::new(StdArc::new(g.clone()))
        });
        let edits = [GraphEdit::SetWeight {
            task: 1,
            weight: 5.0,
        }];
        let (patched, rewarm_ns) = cache.patch(base_key, &edits).unwrap();
        assert!(rewarm_ns.is_none());
        assert_eq!(rewarm_ns.unwrap_or(0), 0);
        assert_eq!(patched.inst.graph().weights()[1], 5.0);
        // The new key is what a full rehash of the edited graph gives.
        let (rebuilt, _) = taskgraph::edit::apply_edits(&g, &edits).unwrap();
        assert_eq!(patched.key, content_key(&rebuilt, &m));
        // Re-key: one entry, reachable under the new key only.
        let s = cache.stats();
        assert_eq!((s.entries, s.patch_hits, s.rekeys), (1, 1, 1));
        let (_, outcome) = cache.get_or_prepare(patched.key, &m, || panic!("must be live"));
        assert_eq!(outcome, Prepared::Hit);
        assert!(matches!(
            cache.patch(base_key, &edits),
            Err(PatchError::UnknownBase)
        ));
        assert_eq!(cache.stats().patch_misses, 1);
    }

    #[test]
    fn patch_chain_and_structural_warm_reset() {
        let cache = InstanceCache::new(CacheConfig::default());
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let m = model();
        let k0 = content_key(&g, &m);
        cache.get_or_prepare(k0, &m, || PreparedInstance::new(StdArc::new(g.clone())));
        let w0 = StdArc::clone(&cache.lookup_quiet(k0).unwrap().warm);
        // Weight-only patch: the warm slot travels.
        let (p1, _) = cache
            .patch(
                k0,
                &[GraphEdit::SetWeight {
                    task: 0,
                    weight: 2.0,
                }],
            )
            .unwrap();
        assert!(StdArc::ptr_eq(&w0, &p1.warm), "slot carried over");
        // Structural patch: fresh slot, measured re-warm.
        let (p2, p2_rewarm_ns) = cache
            .patch(p1.key, &[GraphEdit::RemoveEdge { from: 0, to: 2 }])
            .unwrap();
        assert!(p2_rewarm_ns.is_some());
        assert!(!StdArc::ptr_eq(&w0, &p2.warm), "slot reset");
        let s = cache.stats();
        assert_eq!((s.entries, s.patch_hits, s.rekeys), (1, 2, 2));
    }

    #[test]
    fn a_vdd_entry_is_charged_for_its_flow_handle() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(220);
        let g = generators::layered_dag(22, 10, 0.3, 1.0, 5.0, &mut rng);
        let modes = models::DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0, 3.0]).unwrap();
        let insert = |model: &EnergyModel| {
            let cache = InstanceCache::new(CacheConfig::default());
            let build = || PreparedInstance::new(StdArc::new(g.clone()));
            let (entry, _) = cache.get_or_prepare(content_key(&g, model), model, build);
            (cache, entry)
        };

        let vdd = EnergyModel::VddHopping(modes.clone());
        let (cache, entry) = insert(&vdd);
        let deadline = 1.5 * entry.inst.view().critical_path_weight() / modes.s_max();
        let engine = reclaim_core::Engine::new(models::PowerLaw::CUBIC);
        entry
            .with_warm(|warm| engine.solve_warm(&entry.inst.view(), &vdd, deadline, warm))
            .unwrap();
        assert!(
            entry.with_warm(|warm| warm.is_some()),
            "the solve parked its flow"
        );
        // The flow's arcs, reverse arcs included: 24 B each in the
        // head, adjacency, length and residual arrays.
        let reduced = entry.inst.view().reduced().m();
        let arcs = 2 * (g.n() * modes.m() + 2 * g.n() + reduced + 1);
        let charged = cache.stats().bytes as usize;
        assert!(
            charged >= entry.inst.approx_bytes() + 24 * arcs,
            "{charged} B charged for a {arcs}-arc flow"
        );

        let (cache, entry) = insert(&EnergyModel::continuous_unbounded());
        assert_eq!(cache.stats().bytes as usize, entry.inst.approx_bytes());
    }

    #[test]
    fn patch_with_invalid_edits_keeps_base() {
        let cache = InstanceCache::new(CacheConfig::default());
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let m = model();
        let k0 = content_key(&g, &m);
        cache.get_or_prepare(k0, &m, || PreparedInstance::new(StdArc::new(g)));
        match cache.patch(k0, &[GraphEdit::InsertEdge { from: 3, to: 0 }]) {
            Err(PatchError::Edit(_)) => {}
            Err(other) => panic!("expected edit error, got {other:?}"),
            Ok(_) => panic!("cycle-introducing edit must fail"),
        }
        // Base entry is untouched.
        let (_, outcome) = cache.get_or_prepare(k0, &m, || panic!("base must survive"));
        assert_eq!(outcome, Prepared::Hit);
        assert_eq!(cache.stats().rekeys, 0);
    }

    #[test]
    fn eviction_spills_to_store_and_reloads_with_curve() {
        let dir = std::env::temp_dir().join(format!("reclaim-cache-spill-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StdArc::new(crate::store::Store::open(&dir, false).unwrap());
        let cache = InstanceCache::with_store(
            CacheConfig {
                max_entries: 1,
                max_bytes: usize::MAX,
            },
            Some(StdArc::clone(&store)),
        );
        let m = model();
        let g1 = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let k1 = content_key(&g1, &m);
        let (held, outcome) =
            cache.get_or_prepare(k1, &m, || PreparedInstance::new(StdArc::new(g1)));
        assert_eq!(outcome, Prepared::Built);
        // Park a retained curve in the entry's slot, as the daemon's
        // exact-curve path does.
        cache.retain_curve(
            &held,
            1.05,
            4.0,
            StdArc::new(reclaim_core::ExactCurve {
                segments: vec![reclaim_core::CurveSegment {
                    deadline_lo: 2.0,
                    deadline_hi: 8.0,
                    energy: reclaim_core::CurveEnergy::Power { c: 96.0, p: 2.0 },
                }],
                exact: true,
                stats: Default::default(),
            }),
        );
        // Evict k1 (entry budget 1) — the bugfix: the entry spills
        // with its curve instead of being destroyed.
        cache.get_or_prepare(2, &m, || prep(9.0));
        assert_eq!(cache.stats().evictions, 1);
        // A re-request is a disk hit, not a cold rebuild…
        let (reloaded, outcome) =
            cache.get_or_prepare(k1, &m, || panic!("must reload from the store, not rebuild"));
        assert_eq!(outcome, Prepared::StoreHit);
        assert!(outcome.cached());
        assert_eq!(reloaded.inst.graph(), held.inst.graph());
        // …and the retained curve came back with it.
        let curve = reloaded.curve_guard().clone().expect("curve restored");
        assert_eq!((curve.lo, curve.hi), (1.05, 4.0));
        assert_eq!(curve.curve.segments.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn patch_miss_falls_back_to_store() {
        let dir = std::env::temp_dir().join(format!("reclaim-cache-pfb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StdArc::new(crate::store::Store::open(&dir, false).unwrap());
        let cache = InstanceCache::with_store(
            CacheConfig {
                max_entries: 1,
                max_bytes: usize::MAX,
            },
            Some(StdArc::clone(&store)),
        );
        let m = model();
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let base_key = content_key(&g, &m);
        cache.get_or_prepare(base_key, &m, || {
            PreparedInstance::new(StdArc::new(g.clone()))
        });
        // Evict the base (entry budget 1): it spills to disk only.
        cache.get_or_prepare(2, &m, || prep(9.0));
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.lookup_quiet(base_key).is_none());
        // Patching the evicted base re-materializes it from the store
        // instead of erroring UnknownBase.
        let edits = [GraphEdit::SetWeight {
            task: 1,
            weight: 6.0,
        }];
        let (patched, _) = cache.patch(base_key, &edits).unwrap();
        assert_eq!(patched.inst.graph().weights()[1], 6.0);
        let (rebuilt, _) = taskgraph::edit::apply_edits(&g, &edits).unwrap();
        assert_eq!(patched.key, content_key(&rebuilt, &m));
        let s = cache.stats();
        assert_eq!((s.patch_hits, s.patch_misses), (1, 0));
        // The patched child is cached and the lineage hop was recorded.
        assert!(cache.lookup_quiet(patched.key).is_some());
        let (parent, hop_edits) = store.parent_of(patched.key).expect("lineage hop recorded");
        assert_eq!(parent, base_key);
        assert_eq!(hop_edits.len(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn patch_base_in_the_lineage_only_is_replayed() {
        // A crash between `record_patch` and the child's spill leaves
        // the hop k0 → k1 on disk with no k1 record.
        let dir = std::env::temp_dir().join(format!("reclaim-cache-plo-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StdArc::new(crate::store::Store::open(&dir, false).unwrap());
        let m = model();
        let set = |task, weight| [GraphEdit::SetWeight { task, weight }];
        let (e1, e2) = (set(1, 6.0), set(2, 5.0));
        let g0 = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let (g1, _) = taskgraph::edit::apply_edits(&g0, &e1).unwrap();
        let (g2, _) = taskgraph::edit::apply_edits(&g1, &e2).unwrap();
        let (k0, k1) = (content_key(&g0, &m), content_key(&g1, &m));
        let root = PreparedInstance::new(StdArc::new(g0));
        store.save(k0, &m, &root, None).unwrap();
        store.record_patch(k0, &e1, k1).unwrap();
        assert!(store.load(k1).is_none());

        let cache = InstanceCache::with_store(CacheConfig::default(), Some(StdArc::clone(&store)));
        let (patched, _) = cache.patch(k1, &e2).expect("the lineage reaches k1");
        assert_eq!(patched.key, content_key(&g2, &m));
        assert_eq!(store.stats().replays, 1);
        assert!(
            store.load(k1).is_some(),
            "the replayed base is written through"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_store_writes_are_counted_and_answers_still_come_back() {
        let dir = std::env::temp_dir().join(format!("reclaim-cache-wf-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = StdArc::new(crate::store::Store::open(&dir, false).unwrap());
        // Every later write fails: the directory is gone (unlike a
        // read-only mode, this holds for root too).
        std::fs::remove_dir_all(&dir).unwrap();
        let cache = InstanceCache::with_store(CacheConfig::default(), Some(StdArc::clone(&store)));
        let m = model();
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let base_key = content_key(&g, &m);
        let (base, outcome) = cache.get_or_prepare(base_key, &m, || {
            PreparedInstance::new(StdArc::new(g.clone()))
        });
        assert_eq!((base.key, outcome), (base_key, Prepared::Built));
        let edits = [GraphEdit::SetWeight {
            task: 1,
            weight: 6.0,
        }];
        let (patched, _) = cache.patch(base_key, &edits).unwrap();
        assert_eq!(patched.inst.graph().weights()[1], 6.0);
        // The build's spill, the patch's lineage append and its spill.
        assert!(store.stats().write_failures >= 2, "{:?}", store.stats());
        assert_eq!(store.stats().entries, 0);
    }
}
