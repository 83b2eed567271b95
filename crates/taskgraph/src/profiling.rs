//! The workspace's one per-thread work ledger, and the one way to
//! declare a counter table.
//!
//! Every deterministic work counter is declared once, in the
//! [`Counts`] table below: the analysis passes [`crate::PreparedGraph`]
//! promises to run **once** per prepared graph, the cone-bounded
//! repairs, the solver engine's warm-start losses and branch-and-bound
//! nodes, and the solve daemon's per-request totals. A bump site calls
//! [`record`]; a reader snapshots [`counts`] around some work and
//! subtracts. That makes the once-only promises testable, and it is
//! the whole flush path of the daemon's per-worker `stats`: a worker's
//! row is its running total of these counts.
//!
//! The ledger is thread-local so concurrently running tests (cargo
//! runs a test binary's cases on many threads) cannot pollute each
//! other's deltas, and a bump is a plain `Cell` update — negligible
//! next to the work it counts. A scoped thread's counts die with it,
//! so the rule that keeps totals whole is: a fan-out over scoped
//! threads folds each thread's delta into the caller
//! (`record(|c| *c += delta)`), and the issuing thread sees all the
//! work it caused.
//!
//! The [`counters!`](crate::counters) macro that declares [`Counts`]
//! also declares the daemon's other `stats` blocks. A table's field
//! names, read through [`CounterTable`], are everything the wire codec
//! and the CLI need, so a new counter is one table line plus its bump
//! sites.

use std::cell::Cell;

/// A table of `u64` counters declared by [`counters!`](crate::counters):
/// the field names in table order, a by-name read and a by-name build.
/// Each name is also the counter's wire key, and its CLI label once `_`
/// reads as a space.
pub trait CounterTable: Sized {
    /// Field names, in table order.
    const NAMES: &'static [&'static str];

    /// Every counter at zero.
    const ZERO: Self;

    /// `(name, value)` pairs, in table order.
    fn fields(&self) -> impl Iterator<Item = (&'static str, u64)>;

    /// The table whose every counter is `value(name)`.
    fn from_fn(value: impl FnMut(&'static str) -> u64) -> Self;
}

/// Declares counter tables, each from one list of documented fields:
///
/// ```text
/// counters! {
///     /// Docs of the table.
///     pub struct Table / SharedTable {
///         /// Docs of the counter.
///         name,
///     }
/// }
/// ```
///
/// declares `Table` (`pub u64` fields, `Copy`, `Default`, `Eq`, `Sub`
/// for deltas and `AddAssign` for folds) with its [`CounterTable`]
/// impl, and `SharedTable`, its lock-free twin: one relaxed
/// `AtomicU64` per counter, bumped in place, whose `load()` reads the
/// table back and whose `add(delta)` folds a delta in.
#[macro_export]
macro_rules! counters {
    ($(
        $(#[$meta:meta])*
        $vis:vis struct $name:ident / $shared:ident {
            $($(#[$doc:meta])* $field:ident,)*
        }
    )*) => {$(
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        $vis struct $name {
            $($(#[$doc])* pub $field: u64,)*
        }

        impl $crate::profiling::CounterTable for $name {
            const NAMES: &'static [&'static str] = &[$(stringify!($field)),*];
            const ZERO: $name = $name { $($field: 0,)* };

            fn fields(&self) -> impl Iterator<Item = (&'static str, u64)> {
                Self::NAMES.iter().copied().zip([$(self.$field),*])
            }

            fn from_fn(mut value: impl FnMut(&'static str) -> u64) -> Self {
                $name { $($field: value(stringify!($field)),)* }
            }
        }

        impl ::std::ops::Sub for $name {
            type Output = $name;
            fn sub(self, rhs: $name) -> $name {
                $name { $($field: self.$field - rhs.$field,)* }
            }
        }

        impl ::std::ops::AddAssign for $name {
            fn add_assign(&mut self, rhs: $name) {
                $(self.$field += rhs.$field;)*
            }
        }

        #[doc = concat!("The lock-free twin of [`", stringify!($name), "`], shared across threads.")]
        #[derive(Debug, Default)]
        $vis struct $shared {
            $($(#[$doc])* pub $field: ::std::sync::atomic::AtomicU64,)*
        }

        impl $shared {
            #[doc = concat!("The current values, as a [`", stringify!($name), "`].")]
            pub fn load(&self) -> $name {
                $name { $($field: self.$field.load(::std::sync::atomic::Ordering::Relaxed),)* }
            }

            /// Add `delta` to every counter.
            pub fn add(&self, delta: $name) {
                $(self.$field.fetch_add(delta.$field, ::std::sync::atomic::Ordering::Relaxed);)*
            }
        }
    )*};
}

counters! {
    /// Snapshot of one thread's work counters. A solve-daemon worker's
    /// running total of these is its `stats` row, in table order: the
    /// first nine counters are the row's original keys, and later
    /// counters are appended after them.
    pub struct Counts / SharedCounts {
        /// Requests a solve-daemon worker served.
        requests,
        /// Individual solves a solve-daemon worker performed (a batch
        /// counts each job).
        solves,
        /// Nanoseconds a solve-daemon worker spent in solve calls.
        solve_ns,
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
        /// SP tree nodes [`crate::SpTree::splice`] visited or built:
        /// the paths from the touched leaves to the root, the region,
        /// its ends, the junctions climbed and the grafted subtree. It
        /// grows with the region and the tree's depth, not with the
        /// graph. A graft that changes a composite's child count also
        /// rewrites that composite's child list, which is not counted.
        sp_splice_nodes,
    }
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
