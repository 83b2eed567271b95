//! Thread-local counters for engine-level warm-start events, in the
//! style of [`taskgraph::profiling`].
//!
//! The engine's warm paths (the Vdd LP basis chain, the barrier sweep
//! chain) all promise "fall back to a cold solve on any warm failure,
//! never fail where a cold solve would succeed". That fallback used to
//! be invisible: a sweep could silently lose its basis at every point
//! and re-solve cold without anyone noticing the regression. These
//! counters make the event observable — tests assert deltas, and the
//! daemon surfaces per-worker totals in `stats`.
//!
//! The branch-and-bound counters follow the same discipline for the
//! partition sweep: `discrete::exact` aggregates its subtree workers'
//! statistics internally and the *calling* thread bumps the totals
//! exactly once per solve (scoped worker threads have their own
//! thread-locals that die with them), so a daemon worker's counter
//! deltas around a request capture the whole parallel solve.

use std::cell::Cell;

thread_local! {
    static WARM_LOST: Cell<u64> = const { Cell::new(0) };
    static BNB_NODES: Cell<u64> = const { Cell::new(0) };
    static BNB_STEALS: Cell<u64> = const { Cell::new(0) };
}

/// Snapshot of this thread's engine warm-start counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    /// Times a retained warm state (Vdd LP basis or validated warm
    /// solution) was lost and the solve fell back to a cold path:
    /// `resolve_rhs` failures inside sweeps, warm schedules failing
    /// validation, spent [`crate::engine::VddWarm`] handles.
    pub warm_lost: u64,
    /// Branch-and-bound nodes expanded by exact Discrete/Incremental
    /// solves issued from this thread (parallel subtree workers are
    /// folded into the issuing thread's total).
    pub bnb_nodes: u64,
    /// Subtree pickups beyond each parallel worker's first — how much
    /// the atomic work-queue rebalanced beyond the static split.
    pub bnb_steals: u64,
}

impl std::ops::Sub for Counts {
    type Output = Counts;
    fn sub(self, rhs: Counts) -> Counts {
        Counts {
            warm_lost: self.warm_lost - rhs.warm_lost,
            bnb_nodes: self.bnb_nodes - rhs.bnb_nodes,
            bnb_steals: self.bnb_steals - rhs.bnb_steals,
        }
    }
}

/// This thread's current counts.
pub fn counts() -> Counts {
    Counts {
        warm_lost: WARM_LOST.with(Cell::get),
        bnb_nodes: BNB_NODES.with(Cell::get),
        bnb_steals: BNB_STEALS.with(Cell::get),
    }
}

pub(crate) fn bump_warm_lost() {
    WARM_LOST.with(|c| c.set(c.get() + 1));
}

/// Fold one exact solve's branch-and-bound totals into this thread's
/// counters (called once per solve by `discrete::exact`).
pub(crate) fn add_bnb(nodes: u64, steals: u64) {
    BNB_NODES.with(|c| c.set(c.get() + nodes));
    BNB_STEALS.with(|c| c.set(c.get() + steals));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_bumps_and_subtracts() {
        let before = counts();
        bump_warm_lost();
        bump_warm_lost();
        add_bnb(100, 3);
        let delta = counts() - before;
        assert_eq!(delta.warm_lost, 2);
        assert_eq!(delta.bnb_nodes, 100);
        assert_eq!(delta.bnb_steals, 3);
    }
}
