//! Cached graph analysis for repeated solves on the same graph.
//!
//! Solving `MinEnergy(Ĝ, D)` many times on one graph — deadline
//! sweeps, budget bisections, model comparisons — re-derives the same
//! topological order, shape classification, SP decomposition, critical
//! path, and transitive reduction on every call. A
//! [`PreparedInstance`] owns a graph and computes each of these **at
//! most once** (lazily, on first use), handing out shared references,
//! so a thousand solves pay for one analysis. Solvers take the
//! [`PreparedGraph`] handle, which dereferences to an instance: a view
//! of one ([`PreparedInstance::view`]) or one built over a bare graph
//! ([`PreparedGraph::new`]).
//!
//! All caches are [`OnceLock`]s, so a `&PreparedInstance` can be shared
//! across scoped threads: whichever solve needs a pass first fills the
//! cache for everyone. The once-only guarantee is observable through
//! [`crate::profiling`].

use std::ops::Deref;
use std::sync::{Arc, OnceLock};

use crate::analysis;
use crate::edit::{self, EditError, GraphEdit};
use crate::graph::{TaskGraph, TaskId};
use crate::sp::SpTree;
use crate::structure::{self, Shape};

/// A task graph plus its lazily filled analysis caches.
///
/// The instance owns the graph and is `Send + Sync + 'static`, so it
/// can live in an `Arc` shared across worker threads and requests (a
/// daemon's cache, an LRU of hot instances). [`Self::view`] hands out
/// a [`PreparedGraph`] borrowing from `self`: analysis filled through
/// any view (or by [`Self::warm`]) is permanently retained by the
/// instance.
///
/// ```
/// use std::sync::Arc;
/// use taskgraph::{generators, PreparedInstance, Shape};
///
/// let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
/// let inst = PreparedInstance::new(Arc::new(g));
/// assert_eq!(inst.view().shape(), Shape::SeriesParallel);
/// // A later view reuses the analysis the first one computed.
/// assert_eq!(inst.view().critical_path_weight(), 8.0);
/// ```
#[derive(Debug)]
pub struct PreparedInstance {
    g: TaskGraph,
    topo: OnceLock<Vec<TaskId>>,
    /// Shape and SP tree, behind an [`Arc`] so weight-only carryover
    /// shares the tree instead of copying it.
    class: OnceLock<Arc<(Shape, Option<SpTree>)>>,
    cp_weight: OnceLock<f64>,
    /// The bitset reduction pass, filled only for a graph whose class
    /// is `General` or not yet known (see [`Self::reduced`]).
    reduction: OnceLock<TaskGraph>,
    /// Earliest completion times at unit speed (durations = weights):
    /// the critical-path weight is its maximum, and a cached copy is
    /// what the cone-bounded relaxation repairs after an edit. Not
    /// exported by [`Self::snapshot`] — it recomputes lazily after a
    /// restore.
    ecl: OnceLock<Vec<f64>>,
}

impl PreparedInstance {
    /// Wrap an owned graph. No analysis runs until first use (or
    /// [`Self::warm`]). A unique `Arc` is unwrapped without a copy.
    pub fn new(g: Arc<TaskGraph>) -> Self {
        Self::bare(Arc::unwrap_or_clone(g))
    }

    /// An instance over `g` with every cache empty.
    fn bare(g: TaskGraph) -> Self {
        PreparedInstance {
            g,
            topo: OnceLock::new(),
            class: OnceLock::new(),
            cp_weight: OnceLock::new(),
            reduction: OnceLock::new(),
            ecl: OnceLock::new(),
        }
    }

    /// A borrowed [`PreparedGraph`] handle on this instance — pass it to
    /// anything taking `&PreparedGraph`.
    pub fn view(&self) -> PreparedGraph<'_> {
        PreparedGraph(Handle::View(self))
    }

    /// The underlying graph.
    pub fn graph(&self) -> &TaskGraph {
        &self.g
    }

    /// The cached topological order ([`analysis::topo_order`]).
    pub fn topo(&self) -> &[TaskId] {
        self.topo.get_or_init(|| analysis::topo_order(&self.g))
    }

    fn classification(&self) -> &(Shape, Option<SpTree>) {
        self.class
            .get_or_init(|| Arc::new(structure::classify_with_tree(&self.g, Some(self.topo()))))
    }

    /// The cached shape classification ([`structure::classify`]).
    pub fn shape(&self) -> Shape {
        self.classification().0
    }

    /// The cached series–parallel decomposition: `Some` exactly when
    /// [`Self::shape`] is [`Shape::SeriesParallel`]. (More specific
    /// shapes — chains, forks, trees — have cheaper dedicated closed
    /// forms and skip the SP tree.)
    pub fn sp_tree(&self) -> Option<&SpTree> {
        self.classification().1.as_ref()
    }

    fn ecl(&self) -> &[f64] {
        self.ecl.get_or_init(|| {
            analysis::earliest_completion_ordered(&self.g, self.g.weights(), self.topo())
        })
    }

    /// The cached critical-path weight
    /// ([`analysis::critical_path_weight`]).
    pub fn critical_path_weight(&self) -> f64 {
        *self
            .cp_weight
            .get_or_init(|| self.ecl().iter().fold(0.0f64, |a, &b| a.max(b)))
    }

    /// The transitive reduction ([`analysis::transitive_reduction`]):
    /// same precedence relation, minimal edge set — what the flow and
    /// barrier substrates want. A graph whose class is known and is not
    /// [`Shape::General`] is its own reduction — SP graphs have only
    /// junction edges, and chains, forks, joins and trees have no
    /// second path — so it is returned as it is and nothing is cached.
    /// Otherwise the bitset pass runs once. The class is consulted,
    /// never computed: a bare graph pays no SP recognition for its
    /// reduction.
    pub fn reduced(&self) -> &TaskGraph {
        self.known_reduction().unwrap_or_else(|| {
            self.reduction
                .get_or_init(|| analysis::transitive_reduction_ordered(&self.g, self.topo()))
        })
    }

    /// The reduction if it is known without a pass: the graph itself
    /// under a filled class other than `General`, else the cached pass.
    fn known_reduction(&self) -> Option<&TaskGraph> {
        let g = &self.g;
        match self.class.get() {
            Some(c) if c.0 != Shape::General => {
                debug_assert!(analysis::is_reduced(g), "{:?} with a redundant edge", c.0);
                Some(g)
            }
            _ => self.reduction.get(),
        }
    }

    /// [`analysis::earliest_completion`] using the cached order.
    pub fn earliest_completion(&self, durations: &[f64]) -> Vec<f64> {
        analysis::earliest_completion_ordered(&self.g, durations, self.topo())
    }

    /// [`analysis::latest_completion`] using the cached order.
    pub fn latest_completion(&self, durations: &[f64], deadline: f64) -> Vec<f64> {
        analysis::latest_completion_ordered(&self.g, durations, deadline, self.topo())
    }

    /// [`analysis::makespan`] using the cached order.
    pub fn makespan(&self, durations: &[f64]) -> f64 {
        self.earliest_completion(durations)
            .into_iter()
            .fold(0.0f64, f64::max)
    }

    /// Eagerly fill every cache (topological order, classification,
    /// completion times / critical path, transitive reduction), so
    /// subsequent solves through [`Self::view`] pay zero analysis cost
    /// — and subsequent [`Self::apply`] calls can repair every
    /// analysis locally. The classification comes first, so only a
    /// `General` graph runs a reduction pass. Returns `self` for
    /// chaining.
    pub fn warm(&self) -> &Self {
        self.topo();
        let _ = self.sp_tree();
        self.critical_path_weight();
        self.reduced();
        self
    }

    /// Apply an edit batch, producing a **new** prepared instance that
    /// keeps every analysis cache the edits cannot have dirtied and
    /// **locally repairs** the ones they did (copy-on-write: `self`
    /// and every view of it are untouched, so a daemon can patch an
    /// instance other requests are still solving against).
    ///
    /// Cache carryover and repair, by edit class (see
    /// [`crate::edit::EditEffect`]):
    ///
    /// * **weight-only** ([`GraphEdit::SetWeight`] throughout) — the
    ///   topological order, shape class, SP tree and transitive
    ///   reduction all survive: the edited graph and the
    ///   reduction share their base's topology
    ///   ([`TaskGraph::with_weights`]) and the classification is
    ///   shared as it is, so only the weights are new; completion times
    ///   and the critical path are repaired by a cone-bounded
    ///   relaxation seeded at the re-weighted tasks;
    /// * **edge edits** — the edited graph is one copy pass over the
    ///   old topology, and every analysis is repaired within the
    ///   edit's cone: the topological order survives or is shifted
    ///   locally (Pearce–Kelly, [`analysis::repair_topo_order`]); the
    ///   SP tree is spliced ([`SpTree::splice`]: only the subtree
    ///   spanning the touched edges rebuilds); the transitive
    ///   reduction is the graph itself while the class stays other than
    ///   `General`, and otherwise re-tests only the edges inside a
    ///   changed edge's topological window
    ///   ([`analysis::repair_reduction`]); completion times relax
    ///   within the cone. A cache whose repair
    ///   provably cannot apply (e.g. the splice fails) is dropped and
    ///   recomputes lazily — repair can cost a fallback, never
    ///   correctness;
    /// * **task additions/removals** — the id space changed; nothing
    ///   survives.
    ///
    /// The carried topological order is *a* valid order of the edited
    /// graph, not necessarily the one [`analysis::topo_order`] would
    /// compute for it. Every other repaired analysis is **identical**
    /// to what a from-scratch rebuild computes: the reduction is
    /// unique, completion times are exact maxima, and the SP tree is
    /// canonical (flattened, parallel children sorted by smallest task
    /// id), so it depends on the graph alone. Solves against a patched
    /// instance are therefore bit-equal to solves against a rebuilt
    /// one. The once-only promise stays observable through
    /// [`crate::profiling`]: a patch followed by a solve recomputes
    /// **zero** full structural analyses, and `cone_nodes` accounts how
    /// far each repair actually reached.
    ///
    /// ```
    /// use std::sync::Arc;
    /// use taskgraph::{edit::GraphEdit, generators, profiling, PreparedInstance};
    ///
    /// let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
    /// let inst = PreparedInstance::new(Arc::new(g));
    /// inst.warm();
    ///
    /// let before = profiling::counts();
    /// let patched = inst
    ///     .apply(&[GraphEdit::SetWeight { task: 1, weight: 5.0 }])
    ///     .unwrap();
    /// assert_eq!(patched.graph().weights()[1], 5.0);
    /// // Critical path was repaired within the edit's cone…
    /// assert_eq!(patched.view().critical_path_weight(), 10.0);
    /// assert_eq!(patched.view().shape(), inst.view().shape());
    /// // …and no full analysis pass ran again.
    /// let delta = profiling::counts() - before;
    /// assert_eq!(delta.topo_order, 0);
    /// assert_eq!(delta.classify, 0);
    /// assert_eq!(delta.sp_from_graph, 0);
    /// assert_eq!(delta.transitive_reduction, 0);
    /// ```
    pub fn apply(&self, edits: &[GraphEdit]) -> Result<PreparedInstance, EditError> {
        // Feed the cached order (when filled) into the edge-insertion
        // validity check, so patching never re-derives what the
        // instance already knows.
        let cached_order = self.topo.get().map(Vec::as_slice);
        let (edited, effect) = edit::apply_edits_ordered(&self.g, edits, cached_order)?;
        let out = PreparedInstance::bare(edited);
        if effect.task_set_changed {
            return Ok(out);
        }
        let edited = &out.g;
        // — topological order: carried, or already locally repaired by
        //   the edit layer.
        let order: Option<Vec<TaskId>> = if effect.topo_preserved {
            self.topo.get().cloned()
        } else {
            effect.repaired_order
        };

        // — completion times / critical path: cone-bounded forward
        //   relaxation seeded at re-weighted tasks and the targets of
        //   changed edges.
        if let (Some(order), Some(old_ecl)) = (&order, self.ecl.get()) {
            let mut seeds: Vec<usize> = effect.reweighted.clone();
            seeds.extend(
                effect
                    .inserted_edges
                    .iter()
                    .chain(&effect.removed_edges)
                    .map(|&(_, v)| v),
            );
            seeds.sort_unstable();
            seeds.dedup();
            let ecl = analysis::repair_earliest_completion(
                edited,
                edited.weights(),
                order,
                old_ecl,
                &seeds,
            );
            let cp = ecl.iter().fold(0.0f64, |a, &b| a.max(b));
            let _ = out.ecl.set(ecl);
            let _ = out.cp_weight.set(cp);
        }

        if effect.weight_only {
            // Structure untouched: the edited graph already shares the
            // base's topology; the classification is shared as it is,
            // and a cached reduction keeps its own topology under the
            // new weights (no reduction pass, no profiling bump).
            if let Some(c) = self.class.get() {
                let _ = out.class.set(Arc::clone(c));
            }
            if let Some(r) = self.reduction.get() {
                let refreshed = r
                    .with_weights(edited.weights().to_vec())
                    .expect("the edited graph's weights are valid");
                let _ = out.reduction.set(refreshed);
            }
        } else if let Some(order) = &order {
            // — classification: a cheap specific shape decides outright
            //   (keeping the verdict identical to a fresh classify);
            //   otherwise splice the SP tree around the touched region.
            //   A miss drops the cache.
            if let Some(s) = structure::specific_shape(edited) {
                let _ = out.class.set(Arc::new((s, None)));
            } else if let Some((Shape::SeriesParallel, Some(tree))) = self.class.get().map(|c| &**c)
            {
                let touched: Vec<TaskId> = effect.touched.iter().map(|&i| TaskId(i)).collect();
                if let Some(repaired) = tree.splice(edited, order, &touched) {
                    let _ = out
                        .class
                        .set(Arc::new((Shape::SeriesParallel, Some(repaired))));
                }
            }

            // — transitive reduction: none to keep while the class stays
            //   other than `General`; otherwise re-test only the edges
            //   inside a changed edge's topological window of the
            //   base's reduction.
            let specific = out.class.get().is_some_and(|c| c.0 != Shape::General);
            if !specific {
                if let (Some(red0), Some(order0)) = (self.known_reduction(), self.topo.get()) {
                    let repaired = analysis::repair_reduction(
                        red0,
                        order0,
                        edited,
                        order,
                        &effect.inserted_edges,
                        &effect.removed_edges,
                    );
                    let _ = out.reduction.set(repaired);
                }
            }
        }

        if let Some(order) = order {
            let _ = out.topo.set(order);
        }
        Ok(out)
    }

    /// Export what a persistence layer must keep for [`Self::restore`]
    /// to skip the full analysis passes (the service's disk store
    /// spills instances this way): the topological order and the shape
    /// class with its SP tree, each `None` while unfilled (it then
    /// recomputes lazily). Nothing `restore` re-derives is exported:
    /// the critical path follows from the completion times, and the
    /// transitive reduction from the class.
    pub fn snapshot(&self) -> AnalysisSnapshot {
        AnalysisSnapshot {
            topo: self.topo.get().map(|t| t.iter().map(|id| id.0).collect()),
            class: self.class.get().map(|c| (**c).clone()),
        }
    }

    /// Rebuild an instance from a graph plus a previously exported
    /// [`AnalysisSnapshot`], pre-filling each cache the snapshot
    /// carries once the graph confirms it: the order must be a
    /// topological order of the graph; an SP tree's junctions must
    /// match the edge set; a class without a tree must be the verdict
    /// of the `O(n + m)` [`structure::specific_shape`] (`General` only
    /// when that finds no specific shape). Anything else is silently
    /// dropped and recomputes lazily — a stale or hand-edited snapshot
    /// can cost time, never correctness. A kept SP tree is brought into
    /// canonical form.
    ///
    /// A kept class other than `General` also settles the transitive
    /// reduction: it is the graph itself. A `General` (or dropped)
    /// class leaves the reduction to [`Self::warm`], which also
    /// derives the critical path.
    pub fn restore(g: Arc<TaskGraph>, snap: &AnalysisSnapshot) -> PreparedInstance {
        let out = PreparedInstance::new(g);
        let g = &out.g;
        if let Some(topo) = &snap.topo {
            let ids: Vec<TaskId> = topo.iter().map(|&i| TaskId(i)).collect();
            if topo.len() == g.n() && analysis::is_topo_order(g, &ids) {
                let _ = out.topo.set(ids);
            }
        }
        if let Some((shape, tree)) = &snap.class {
            // Keep exactly the verdict a fresh classification reaches.
            let confirmed = match (tree, structure::specific_shape(g)) {
                (None, Some(specific)) => *shape == specific,
                (None, None) => *shape == Shape::General,
                (Some(t), None) => *shape == Shape::SeriesParallel && t.validates(g),
                (Some(_), Some(_)) => false,
            };
            if confirmed {
                // A loaded tree takes the canonical form a fresh
                // recognition builds, so a patch chain that passes
                // through the store still depends on the graph alone.
                let tree = tree.clone().map(SpTree::canonical);
                let _ = out.class.set(Arc::new((*shape, tree)));
            }
        }
        out
    }

    /// A coarse estimate of the resident size of the graph plus every
    /// *currently filled* cache, in bytes — the unit the service
    /// cache's byte budget is accounted in. It is an estimate (Vec
    /// headers and allocator slack are approximated), not a promise.
    pub fn approx_bytes(&self) -> usize {
        fn graph_bytes(g: &TaskGraph) -> usize {
            // weights + edge list + succ/pred adjacency (each edge
            // appears once in each) + per-task CSR offsets.
            std::mem::size_of::<TaskGraph>() + 8 * g.n() + 16 * g.m() + 16 * g.m() + 16 * g.n()
        }
        let mut total = graph_bytes(&self.g);
        if let Some(t) = self.topo.get() {
            total += 8 * t.len();
        }
        if let Some((_, tree)) = self.class.get().map(|c| &**c) {
            // SP tree: roughly one node per task plus internal nodes.
            if tree.is_some() {
                total += 64 * self.g.n();
            }
        }
        if let Some(r) = self.reduction.get() {
            total += graph_bytes(r);
        }
        if let Some(e) = self.ecl.get() {
            total += 8 * e.len();
        }
        total + std::mem::size_of::<Self>()
    }
}

/// The prepared graph solvers take: a [`PreparedInstance`], borrowed
/// or owned, that it dereferences to.
///
/// [`PreparedInstance::view`] borrows an existing instance, so every
/// solve through it fills the instance's caches.
/// [`PreparedGraph::new`] builds an instance of its own over a bare
/// graph (copying the weights, sharing the topology):
///
/// ```
/// use taskgraph::{generators, PreparedGraph, Shape};
///
/// let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
/// let prep = PreparedGraph::new(&g);
/// assert_eq!(prep.shape(), Shape::SeriesParallel);
/// assert_eq!(prep.critical_path_weight(), 8.0);
/// // Second call: served from the cache, no re-analysis.
/// assert_eq!(prep.shape(), Shape::SeriesParallel);
/// ```
#[derive(Debug)]
pub struct PreparedGraph<'g>(Handle<'g>);

#[derive(Debug)]
enum Handle<'g> {
    Owned(PreparedInstance),
    View(&'g PreparedInstance),
}

impl PreparedGraph<'static> {
    /// Prepare a bare graph. No analysis runs until a cache is first
    /// used.
    pub fn new(g: &TaskGraph) -> Self {
        PreparedGraph(Handle::Owned(PreparedInstance::bare(g.clone())))
    }
}

impl Deref for PreparedGraph<'_> {
    type Target = PreparedInstance;

    fn deref(&self) -> &PreparedInstance {
        match &self.0 {
            Handle::Owned(inst) => inst,
            Handle::View(inst) => inst,
        }
    }
}

/// Plain-data export of what a [`PreparedInstance`] needs to come
/// back without its full analysis passes — what
/// [`PreparedInstance::snapshot`] returns and
/// [`PreparedInstance::restore`] consumes. Task ids travel as raw
/// `usize` indices so a persistence layer can serialize the snapshot
/// without knowing about [`TaskId`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AnalysisSnapshot {
    /// The cached topological order, as task indices.
    pub topo: Option<Vec<usize>>,
    /// The cached shape classification and SP decomposition.
    pub class: Option<(Shape, Option<SpTree>)>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::profiling;

    #[test]
    fn analysis_runs_at_most_once() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let prep = PreparedGraph::new(&g);
        let before = profiling::counts();
        for _ in 0..10 {
            assert_eq!(prep.shape(), Shape::SeriesParallel);
            assert!(prep.sp_tree().is_some());
            assert_eq!(prep.critical_path_weight(), 8.0);
            assert_eq!(prep.topo().len(), 4);
            assert_eq!(prep.reduced().m(), 4);
            let _ = prep.makespan(g.weights());
            let _ = prep.earliest_completion(g.weights());
            let _ = prep.latest_completion(g.weights(), 10.0);
        }
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 1, "topo order must be computed once");
        assert_eq!(delta.classify, 1, "classification must run once");
        assert_eq!(delta.sp_from_graph, 1, "SP recognition must run once");
    }

    #[test]
    fn cached_results_match_direct_analysis() {
        let g = crate::TaskGraph::new(
            vec![1.0, 2.0, 1.5, 3.0, 0.5],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3), (3, 4)],
        )
        .unwrap();
        let prep = PreparedGraph::new(&g);
        assert_eq!(prep.topo(), analysis::topo_order(&g));
        assert_eq!(prep.shape(), structure::classify(&g));
        assert_eq!(
            prep.critical_path_weight(),
            analysis::critical_path_weight(&g)
        );
        assert_eq!(
            prep.reduced().edges(),
            analysis::transitive_reduction(&g).edges()
        );
        let durs = vec![0.5; 5];
        assert_eq!(
            prep.earliest_completion(&durs),
            analysis::earliest_completion(&g, &durs)
        );
        assert_eq!(prep.makespan(&durs), analysis::makespan(&g, &durs));
    }

    #[test]
    fn owned_instance_views_share_one_analysis() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        let before = profiling::counts();
        inst.warm();
        // Ten fresh views, each exercising every cache: the warm()
        // above paid for everything; no view re-analyzes.
        for _ in 0..10 {
            let v = inst.view();
            assert_eq!(v.shape(), Shape::SeriesParallel);
            assert_eq!(v.critical_path_weight(), 8.0);
            assert_eq!(v.topo().len(), 4);
            assert_eq!(v.reduced().m(), 4);
        }
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 1);
        assert_eq!(delta.classify, 1);
        assert_eq!(delta.sp_from_graph, 1);
        // Warm instance accounts for the filled caches.
        assert!(inst.approx_bytes() > std::mem::size_of::<PreparedInstance>());
    }

    #[test]
    fn weight_only_apply_recomputes_no_structure() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let before = profiling::counts();
        let patched = inst
            .apply(&[GraphEdit::SetWeight {
                task: 2,
                weight: 6.0,
            }])
            .unwrap();
        // All structural caches answer without recomputation…
        assert_eq!(patched.view().shape(), Shape::SeriesParallel);
        assert_eq!(patched.view().topo().len(), 4);
        assert_eq!(patched.view().reduced().m(), 4);
        // …the reduction carries the *new* weights…
        assert_eq!(
            patched.view().reduced().weights(),
            patched.graph().weights()
        );
        // …and the critical path reflects the edit (1 + 6 + 4).
        assert_eq!(patched.view().critical_path_weight(), 11.0);
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 0, "topo order must be carried");
        assert_eq!(delta.classify, 0, "classification must be carried");
        assert_eq!(delta.sp_from_graph, 0, "SP tree must be carried");
        assert_eq!(delta.transitive_reduction, 0, "reduction must be carried");
    }

    #[test]
    fn weight_only_apply_shares_topology_with_base() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let patched = inst
            .apply(&[GraphEdit::SetWeight {
                task: 2,
                weight: 6.0,
            }])
            .unwrap();
        assert!(patched.graph().shares_topology(inst.graph()));
        let (base_view, view) = (inst.view(), patched.view());
        let (base_red, red) = (base_view.reduced(), view.reduced());
        assert!(red.shares_topology(base_red));
        assert_eq!(red.weights(), patched.graph().weights());
        let (base_class, class) = (inst.class.get(), patched.class.get());
        assert!(Arc::ptr_eq(base_class.unwrap(), class.unwrap()));
        // The base is untouched.
        assert_eq!(inst.graph(), &g);
        assert_eq!(base_red.weights(), g.weights());
        assert_eq!(inst.view().critical_path_weight(), 8.0);
    }

    #[test]
    fn edge_removal_repairs_structure_locally() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let before = profiling::counts();
        let patched = inst
            .apply(&[GraphEdit::RemoveEdge { from: 0, to: 2 }])
            .unwrap();
        let _ = patched.view().topo();
        // Removing 0→2 leaves 0→1→3 ← 2: an in-tree. The cheap shape
        // cascade decides — no classify pass, no SP recognition — and
        // the reduction is repaired locally.
        assert_eq!(patched.view().shape(), Shape::InTree);
        assert_eq!(patched.view().reduced().m(), 3);
        // Longest path is now 0→1→3 (1 + 2 + 4).
        assert_eq!(patched.view().critical_path_weight(), 7.0);
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 0, "old order is valid after removal");
        assert_eq!(delta.classify, 0, "shape decided without a classify pass");
        assert_eq!(delta.sp_from_graph, 0);
        assert_eq!(delta.transitive_reduction, 0, "reduction repaired locally");
        // The repaired caches agree with a from-scratch analysis.
        let fresh = PreparedGraph::new(patched.graph());
        assert_eq!(patched.view().shape(), fresh.shape());
        assert_eq!(patched.view().reduced().edges(), fresh.reduced().edges());
        assert_eq!(
            patched.view().critical_path_weight(),
            fresh.critical_path_weight()
        );
    }

    /// Apply `edit` to a warm instance over `edges` (four unit tasks)
    /// and check the locally repaired reduction against a fresh one;
    /// returns the repaired reduced edges.
    fn repaired_reduction(edges: &[(usize, usize)], edit: GraphEdit) -> Vec<(usize, usize)> {
        let g = crate::TaskGraph::new(vec![1.0; 4], edges).unwrap();
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let before = profiling::counts();
        let patched = inst.apply(&[edit]).unwrap();
        let repaired: Vec<(usize, usize)> = patched
            .view()
            .reduced()
            .edges()
            .iter()
            .map(|&(u, v)| (u.0, v.0))
            .collect();
        let delta = profiling::counts() - before;
        assert_eq!(delta.transitive_reduction, 0, "reduction repaired locally");
        let fresh = analysis::transitive_reduction(patched.graph());
        assert_eq!(patched.view().reduced().edges(), fresh.edges());
        repaired
    }

    #[test]
    fn removing_a_kept_edge_re_exposes_an_ancestor_to_descendant_edge() {
        // 0→3 is implied by 0→1→2→3 until the kept edge 1→2 goes: the
        // re-exposed edge leaves an ancestor of 1 and enters a
        // descendant of 2, touching neither endpoint.
        let kept = repaired_reduction(
            &[(0, 1), (1, 2), (2, 3), (0, 3)],
            GraphEdit::RemoveEdge { from: 1, to: 2 },
        );
        assert!(kept.contains(&(0, 3)), "0→3 must be re-exposed: {kept:?}");
    }

    #[test]
    fn inserting_an_edge_makes_an_ancestor_to_descendant_edge_redundant() {
        // Inserting 1→2 closes the path 0→1→2→3, so 0→3 — an edge from
        // an ancestor of 1 to a descendant of 2 — becomes redundant.
        let kept = repaired_reduction(
            &[(0, 3), (0, 1), (2, 3)],
            GraphEdit::InsertEdge { from: 1, to: 2 },
        );
        assert!(!kept.contains(&(0, 3)), "0→3 must be dropped: {kept:?}");
    }

    #[test]
    fn sp_preserving_edit_splices_tree() {
        // Two diamond blocks in series:
        //   0 → {1,2} → 3 → {4,5} → 6
        // Convert the second block's parallel pair to a series chain
        // (remove 3→5 and 4→6, insert 4→5): still series–parallel,
        // with the same region interface — the splice rebuilds only
        // the second block's subtree.
        let g = crate::TaskGraph::new(
            vec![1.0; 7],
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (3, 4),
                (3, 5),
                (4, 6),
                (5, 6),
            ],
        )
        .unwrap();
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        assert_eq!(inst.view().shape(), Shape::SeriesParallel);
        let before = profiling::counts();
        let patched = inst
            .apply(&[
                GraphEdit::RemoveEdge { from: 3, to: 5 },
                GraphEdit::RemoveEdge { from: 4, to: 6 },
                GraphEdit::InsertEdge { from: 4, to: 5 },
            ])
            .unwrap();
        assert_eq!(patched.view().shape(), Shape::SeriesParallel);
        let delta = profiling::counts() - before;
        assert_eq!(delta.sp_splice, 1, "the tree was spliced");
        assert_eq!(delta.sp_splice_miss, 0);
        assert_eq!(delta.classify, 0, "no classify pass ran");
        assert_eq!(delta.sp_from_graph, 0, "no full SP recognition ran");
        assert_eq!(delta.transitive_reduction, 0);
        assert_eq!(delta.topo_order, 0);
        assert!(delta.cone_nodes > 0, "repairs account their cone");
        // The spliced tree is exactly what a fresh recognition builds.
        let fresh = PreparedGraph::new(patched.graph());
        assert_eq!(patched.view().sp_tree(), fresh.sp_tree());
        assert_eq!(patched.view().reduced().edges(), fresh.reduced().edges());
        assert_eq!(
            patched.view().critical_path_weight(),
            fresh.critical_path_weight()
        );
        // The graph stayed SP, so it is its own reduction: nothing was
        // repaired or cached for it.
        assert!(patched.reduction.get().is_none());
        assert!(std::ptr::eq(patched.view().reduced(), patched.graph()));
    }

    #[test]
    fn warm_reduces_only_a_general_graph() {
        let sp = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        // Not series–parallel: the N pattern 0→2, 0→3, 1→3.
        let general =
            TaskGraph::new(vec![1.0; 5], &[(0, 2), (0, 3), (1, 3), (2, 4), (3, 4)]).unwrap();
        for (g, passes) in [(sp, 0), (general, 1)] {
            let inst = PreparedInstance::new(Arc::new(g));
            let before = profiling::counts();
            inst.warm();
            let delta = profiling::counts() - before;
            let shape = inst.view().shape();
            assert_eq!(delta.transitive_reduction, passes, "{shape:?}");
            assert_eq!(
                inst.view().reduced().edges(),
                analysis::transitive_reduction(inst.graph()).edges(),
                "{shape:?}"
            );
        }
    }

    #[test]
    fn sp_breaking_edit_falls_back_lazily() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let before = profiling::counts();
        // 1→2 makes 0→2 and the new path transitive: node-SP breaks.
        let patched = inst
            .apply(&[GraphEdit::InsertEdge { from: 1, to: 2 }])
            .unwrap();
        let _ = patched.view().topo();
        let _ = patched.view().reduced();
        let delta = profiling::counts() - before;
        assert_eq!(delta.sp_splice_miss, 1, "splice correctly refuses");
        assert_eq!(delta.topo_order, 0);
        assert_eq!(delta.transitive_reduction, 0, "reduction repaired locally");
        // The classification dropped and recomputes lazily — matching
        // a fresh analysis — while order/reduction stayed repaired.
        let fresh = PreparedGraph::new(patched.graph());
        assert_eq!(patched.view().shape(), fresh.shape());
        assert_eq!(patched.view().reduced().edges(), fresh.reduced().edges());
    }

    #[test]
    fn task_edits_drop_everything() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let before = profiling::counts();
        let patched = inst
            .apply(&[GraphEdit::AddTask {
                weight: 2.0,
                preds: vec![3],
                succs: vec![],
            }])
            .unwrap();
        assert_eq!(patched.graph().n(), 5);
        let _ = patched.view().topo();
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 1, "id space changed: order recomputed");
        // The base instance is untouched.
        assert_eq!(inst.graph().n(), 4);
        assert_eq!(inst.view().critical_path_weight(), 8.0);
    }

    #[test]
    fn apply_equals_rebuild_for_every_view() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let edits = [
            GraphEdit::SetWeight {
                task: 1,
                weight: 4.5,
            },
            GraphEdit::InsertEdge { from: 1, to: 2 },
        ];
        let patched = inst.apply(&edits).unwrap();
        let (rebuilt, _) = crate::edit::apply_edits(&g, &edits).unwrap();
        let fresh = PreparedGraph::new(&rebuilt);
        assert_eq!(patched.graph(), &rebuilt);
        assert_eq!(patched.view().topo(), fresh.topo());
        assert_eq!(patched.view().shape(), fresh.shape());
        assert_eq!(
            patched.view().critical_path_weight(),
            fresh.critical_path_weight()
        );
        assert_eq!(patched.view().reduced().edges(), fresh.reduced().edges());
    }

    #[test]
    fn snapshot_restore_round_trips_warm_analysis() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let snap = inst.snapshot();
        assert!(snap.topo.is_some());
        assert!(snap.class.is_some());

        let restored = PreparedInstance::restore(Arc::new(inst.graph().clone()), &snap);
        let before = profiling::counts();
        assert_eq!(restored.view().shape(), Shape::SeriesParallel);
        assert_eq!(restored.view().critical_path_weight(), 8.0);
        assert_eq!(restored.view().topo(), inst.view().topo());
        assert_eq!(
            restored.view().reduced().edges(),
            inst.view().reduced().edges()
        );
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 0, "restored instance re-analyzes nothing");
        assert_eq!(delta.classify, 0);
        assert_eq!(delta.transitive_reduction, 0);
        // Round trip again: snapshots are stable.
        assert_eq!(restored.snapshot(), snap);
    }

    #[test]
    fn restore_drops_inconsistent_snapshot_fields() {
        let diamond = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        // Not series–parallel: the N pattern 0→2, 0→3, 1→3.
        let general =
            TaskGraph::new(vec![1.0; 5], &[(0, 2), (0, 3), (1, 3), (2, 4), (3, 4)]).unwrap();
        assert_eq!(PreparedGraph::new(&general).shape(), Shape::General);
        type Corrupt = fn(&mut AnalysisSnapshot);
        let cases: [(&TaskGraph, Corrupt); 3] = [
            // A field a range check catches.
            (&diamond, |s| {
                s.topo = Some(vec![3, 2, 1, 0]); // reversed: not a topo order
            }),
            // Consistent in itself, but wrong for the graph.
            (&diamond, |s| s.class = Some((Shape::Chain, None))),
            (&general, |s| {
                let leaf = |i| SpTree::Leaf(TaskId(i));
                let pair = |a, b| SpTree::Parallel(vec![leaf(a), leaf(b)]);
                let tree = SpTree::Series(vec![pair(0, 1), pair(2, 3), leaf(4)]);
                s.class = Some((Shape::SeriesParallel, Some(tree)));
            }),
        ];
        for (k, (g, corrupt)) in cases.into_iter().enumerate() {
            let fresh = PreparedInstance::new(Arc::new(g.clone()));
            fresh.warm();
            let mut snap = fresh.snapshot();
            corrupt(&mut snap);
            let restored = PreparedInstance::restore(Arc::new(g.clone()), &snap);
            // Nothing panics and every answer is still correct
            // (recomputed).
            let (r, f) = (restored.view(), fresh.view());
            assert_eq!(
                r.critical_path_weight(),
                f.critical_path_weight(),
                "case {k}"
            );
            assert_eq!(r.topo().len(), g.n(), "case {k}");
            assert_eq!(r.shape(), f.shape(), "case {k}");
            assert_eq!(r.reduced().edges(), f.reduced().edges(), "case {k}");
        }
    }

    #[test]
    fn owned_instance_is_shareable_across_threads() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let inst = Arc::new(PreparedInstance::new(Arc::new(g)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let inst = Arc::clone(&inst);
                s.spawn(move || {
                    let v = inst.view();
                    assert_eq!(v.shape(), Shape::SeriesParallel);
                    assert!(v.critical_path_weight() > 0.0);
                });
            }
        });
    }

    #[test]
    fn shared_across_threads() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let prep = PreparedGraph::new(&g);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    assert_eq!(prep.shape(), Shape::SeriesParallel);
                    assert!(prep.critical_path_weight() > 0.0);
                });
            }
        });
    }
}
