//! The workspace's one per-thread work ledger.
//!
//! Every deterministic work counter is declared once, in the
//! [`Counts`] table below: the analysis passes [`crate::PreparedGraph`]
//! promises to run **once** per prepared graph, the cone-bounded
//! repairs, the solver engine's warm-start losses and branch-and-bound
//! nodes, and the solve daemon's per-request totals. A bump site calls
//! [`record`]; a reader snapshots [`counts`] around some work and
//! subtracts. That makes the once-only promises testable, and it is
//! the whole flush path of the daemon's per-worker `stats`.
//!
//! The ledger is thread-local so concurrently running tests (cargo
//! runs a test binary's cases on many threads) cannot pollute each
//! other's deltas, and a bump is a plain `Cell` update — negligible
//! next to the work it counts. A scoped thread's counts die with it,
//! so the rule that keeps totals whole is: a fan-out over scoped
//! threads folds each thread's delta into the caller
//! (`record(|c| *c += delta)`), and the issuing thread sees all the
//! work it caused.

use std::cell::Cell;

/// Declares [`Counts`] from one list of documented fields, together
/// with its zero value, `Sub` (deltas) and `AddAssign` (folds).
macro_rules! counters {
    ($($(#[$doc:meta])* $name:ident,)*) => {
        /// Snapshot of one thread's work counters.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct Counts {
            $($(#[$doc])* pub $name: u64,)*
        }

        impl Counts {
            const ZERO: Counts = Counts { $($name: 0,)* };
        }

        impl std::ops::Sub for Counts {
            type Output = Counts;
            fn sub(self, rhs: Counts) -> Counts {
                Counts { $($name: self.$name - rhs.$name,)* }
            }
        }

        impl std::ops::AddAssign for Counts {
            fn add_assign(&mut self, rhs: Counts) {
                $(self.$name += rhs.$name;)*
            }
        }
    };
}

counters! {
    /// Calls to [`crate::analysis::topo_order`].
    topo_order,
    /// Calls to [`crate::structure::classify`] (and the prepared
    /// graph's cached classification).
    classify,
    /// Calls to [`crate::SpTree::from_graph`].
    sp_from_graph,
    /// Calls to [`crate::analysis::transitive_reduction`] (and the
    /// prepared graph's cached reduction). The edit layer's selective
    /// invalidation promises weight-only edits never re-run the
    /// reduction; this counter makes that assertable.
    transitive_reduction,
    /// Successful [`crate::SpTree::splice`] calls: a structural edit
    /// repaired the SP decomposition by rebuilding only the subtree
    /// spanning the touched edge, with no full recognition pass.
    sp_splice,
    /// Failed [`crate::SpTree::splice`] calls: the local rebuild or
    /// its composition re-verification failed, and the caller must
    /// fall back to full recognition (accounted under
    /// [`Counts::sp_from_graph`] when it runs).
    sp_splice_miss,
    /// Total nodes visited by every cone-bounded repair pass
    /// (localized topological-order shifts, bounded completion-time
    /// relaxation, the reduction's window candidates and their pruned
    /// searches, splice region rebuilds). Bounding this is how tests
    /// prove a repair stayed local instead of silently degrading to a
    /// full pass.
    cone_nodes,
    /// Times the solver engine lost a retained warm state (a Vdd
    /// flow or a validated warm solution) and fell back to a cold
    /// path: failed re-optimizations inside sweeps, warm schedules
    /// failing validation, spent warm handles.
    warm_lost,
    /// Branch-and-bound nodes expanded by exact Discrete/Incremental
    /// solves; a partition sweep folds its subtree workers into the
    /// issuing thread's total once per solve.
    bnb_nodes,
    /// Partition-sweep subtree pickups beyond each worker's first —
    /// how much the atomic work queue rebalanced past the static
    /// split.
    bnb_steals,
    /// Requests a solve-daemon worker served.
    requests,
    /// Individual solves a solve-daemon worker performed (a batch
    /// counts each job).
    solves,
    /// Nanoseconds a solve-daemon worker spent in solve calls.
    solve_ns,
}

thread_local! {
    static COUNTS: Cell<Counts> = const { Cell::new(Counts::ZERO) };
}

/// This thread's current counts.
pub fn counts() -> Counts {
    COUNTS.with(Cell::get)
}

/// Update this thread's counts: `record(|c| c.classify += 1)` bumps a
/// counter, `record(|c| *c += delta)` folds a scoped thread's delta
/// into its caller.
pub fn record(update: impl FnOnce(&mut Counts)) {
    COUNTS.with(|cell| {
        let mut c = cell.get();
        update(&mut c);
        cell.set(c);
    });
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

    #[test]
    fn counter_bumps_and_subtracts() {
        let before = counts();
        record(|c| c.warm_lost += 2);
        record(|c| c.bnb_nodes += 100);
        let delta = counts() - before;
        assert_eq!(delta.warm_lost, 2);
        assert_eq!(delta.bnb_nodes, 100);
        // A scoped thread's delta, folded into this thread.
        let work = std::thread::scope(|s| {
            s.spawn(|| {
                record(|c| c.bnb_steals += 3);
                counts()
            })
            .join()
            .unwrap()
        });
        assert_eq!(counts() - before, delta, "the thread's counts are its own");
        record(|c| *c += work);
        assert_eq!((counts() - before).bnb_steals, 3);
    }
}
