//! Thread-local call counters for the expensive analysis passes.
//!
//! [`crate::PreparedGraph`] promises that topological ordering, shape
//! classification, and series–parallel recognition run **once** per
//! prepared graph no matter how many solves reuse it. These counters
//! make that promise testable: a test snapshots the counts, runs the
//! engine, and asserts the deltas.
//!
//! The counters are thread-local so concurrently running tests (cargo
//! runs a test binary's cases on many threads) cannot pollute each
//! other's deltas, and the increments are plain `Cell` bumps —
//! negligible next to the passes they count.

use std::cell::Cell;

thread_local! {
    static TOPO_ORDER: Cell<u64> = const { Cell::new(0) };
    static CLASSIFY: Cell<u64> = const { Cell::new(0) };
    static SP_FROM_GRAPH: Cell<u64> = const { Cell::new(0) };
    static TRANSITIVE_REDUCTION: Cell<u64> = const { Cell::new(0) };
    static SP_SPLICE: Cell<u64> = const { Cell::new(0) };
    static SP_SPLICE_MISS: Cell<u64> = const { Cell::new(0) };
    static CONE_NODES: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of this thread's analysis-pass call counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counts {
    /// Calls to [`crate::analysis::topo_order`].
    pub topo_order: u64,
    /// Calls to [`crate::structure::classify`] (and its
    /// tree-returning variant).
    pub classify: u64,
    /// Calls to [`crate::SpTree::from_graph`].
    pub sp_from_graph: u64,
    /// Calls to [`crate::analysis::transitive_reduction`] (and its
    /// ordered variant). The edit layer's selective invalidation
    /// promises weight-only edits never re-run the reduction; this
    /// counter makes that assertable.
    pub transitive_reduction: u64,
    /// Successful [`crate::SpTree::splice`] calls: a structural edit
    /// repaired the SP decomposition by rebuilding only the subtree
    /// spanning the touched edge, with no full recognition pass.
    pub sp_splice: u64,
    /// Failed [`crate::SpTree::splice`] calls: the local rebuild or
    /// its composition re-verification failed, and the caller must
    /// fall back to full recognition (accounted under
    /// [`Counts::sp_from_graph`] when it runs).
    pub sp_splice_miss: u64,
    /// Total nodes visited by every cone-bounded repair pass
    /// (localized topological-order shifts, bounded completion-time
    /// relaxation, the reduction's window candidates and their pruned
    /// searches, splice region rebuilds). Bounding this is how tests prove a repair stayed
    /// local instead of silently degrading to a full pass.
    pub cone_nodes: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            topo_order: self.topo_order - rhs.topo_order,
            classify: self.classify - rhs.classify,
            sp_from_graph: self.sp_from_graph - rhs.sp_from_graph,
            transitive_reduction: self.transitive_reduction - rhs.transitive_reduction,
            sp_splice: self.sp_splice - rhs.sp_splice,
            sp_splice_miss: self.sp_splice_miss - rhs.sp_splice_miss,
            cone_nodes: self.cone_nodes - rhs.cone_nodes,
        }
    }
}

/// This thread's current counts.
pub fn counts() -> Counts {
    Counts {
        topo_order: TOPO_ORDER.with(Cell::get),
        classify: CLASSIFY.with(Cell::get),
        sp_from_graph: SP_FROM_GRAPH.with(Cell::get),
        transitive_reduction: TRANSITIVE_REDUCTION.with(Cell::get),
        sp_splice: SP_SPLICE.with(Cell::get),
        sp_splice_miss: SP_SPLICE_MISS.with(Cell::get),
        cone_nodes: CONE_NODES.with(Cell::get),
    }
}

pub(crate) fn bump_topo_order() {
    TOPO_ORDER.with(|c| c.set(c.get() + 1));
}

pub(crate) fn bump_classify() {
    CLASSIFY.with(|c| c.set(c.get() + 1));
}

pub(crate) fn bump_sp_from_graph() {
    SP_FROM_GRAPH.with(|c| c.set(c.get() + 1));
}

pub(crate) fn bump_transitive_reduction() {
    TRANSITIVE_REDUCTION.with(|c| c.set(c.get() + 1));
}

pub(crate) fn bump_sp_splice() {
    SP_SPLICE.with(|c| c.set(c.get() + 1));
}

pub(crate) fn bump_sp_splice_miss() {
    SP_SPLICE_MISS.with(|c| c.set(c.get() + 1));
}

pub(crate) fn add_cone_nodes(n: u64) {
    CONE_NODES.with(|c| c.set(c.get() + n));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{analysis, generators, structure, SpTree};

    #[test]
    fn counters_track_analysis_passes() {
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let before = counts();
        analysis::topo_order(&g);
        structure::classify(&g); // diamond: reaches the SP check
        SpTree::from_graph(&g);
        let delta = counts() - before;
        // One explicit topo call, plus one inside each of the two SP
        // recognitions (classify's internal one and the explicit one).
        assert_eq!(delta.topo_order, 3);
        assert_eq!(delta.classify, 1);
        // classify itself recognizes SP via from_graph, plus our
        // explicit call.
        assert_eq!(delta.sp_from_graph, 2);
    }
}
