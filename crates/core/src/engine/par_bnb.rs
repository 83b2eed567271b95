//! The worker fan-out of the branch-and-bound's partition sweep.
//!
//! The Discrete exact solver ([`crate::discrete::exact`], the paper's
//! Theorem-4 problem) is a depth-first search over per-task mode
//! assignments, parallelized Bobpp-style (PAPERS.md: Menouer &
//! Le Cun, *deterministic parallel tree search*):
//!
//! 1. **Partition.** The search tree is split at a fixed depth by
//!    iterative breadth-first deepening
//!    (`SearchCtx::enumerate_frontier`): the frontier is expanded
//!    level by level — children in candidate order, prefixes in
//!    lexicographic order — until at least the target number of live
//!    prefixes exist. Each prefix is the **content-stable key** of its
//!    subtree: two runs with the same partition target enumerate
//!    byte-identical partition sets, independent of thread scheduling.
//!    One partition is the whole tree: the sequential search.
//! 2. **Explore** (this module). The subtrees run on a
//!    `std::thread::scope` fan-out pulling from an atomic work queue.
//!    Each subtree prunes only against the warm seed and its own local
//!    incumbent — it never sees what its siblings found.
//! 3. **Determinism contract.** Every subtree's node count is
//!    therefore a pure function of `(instance, prefix, seed,
//!    per-subtree budget)` — identical across repeated runs at any
//!    worker count, which is what the X10 manifest `cmp` gate checks.
//!    Which *thread* runs a subtree is irrelevant to its node count,
//!    so dynamic work pickup ("steals") costs no determinism.
//!
//! Correctness of the combine step: the optimal assignment lives in
//! exactly one partition (the frontier tiles the unpruned space), the
//! bounds are admissible, and the lexicographic combine with strict
//! `<` reproduces the sequential DFS's tie-breaking — a complete
//! parallel solve returns bit-identical energy *and speeds* to the
//! sequential search.

use crate::discrete::{BnbStats, Incumbent, PartitionReport, SearchCtx, SubtreeOutcome};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// One searched subtree: its manifest row plus the best assignment
/// found inside it, as `(energy, mode indices)`, when it beat the seed.
pub(crate) struct SubtreeResult {
    pub(crate) report: PartitionReport,
    pub(crate) best: Option<(f64, Vec<usize>)>,
}

/// Search one subtree from a clean per-subtree incumbent seeded at
/// `seed_energy` (determinism: the result depends only on the
/// arguments, never on sibling progress).
fn run_one(ctx: &SearchCtx<'_>, prefix: &[usize], budget: u64, seed_energy: f64) -> SubtreeResult {
    let mut stats = BnbStats::default();
    let mut inc = Incumbent {
        energy: seed_energy,
        modes: None,
    };
    let outcome = ctx.search_subtree(prefix, budget, &mut inc, &mut stats);
    SubtreeResult {
        report: PartitionReport {
            key: prefix.to_vec(),
            nodes: stats.nodes,
            pruned_infeasible: stats.pruned_infeasible,
            pruned_bound: stats.pruned_bound,
            complete: outcome == SubtreeOutcome::Complete,
            energy: inc.modes.as_ref().map(|_| inc.energy),
        },
        best: inc.modes.map(|m| (inc.energy, m)),
    }
}

/// Fan the subtrees out over `workers` scoped threads pulling from an
/// atomic queue (inline at one worker or one subtree). Results come
/// back in partition order; the second return is the steal count
/// (pickups beyond each worker's first).
pub(crate) fn run_subtrees(
    ctx: &SearchCtx<'_>,
    prefixes: &[Vec<usize>],
    workers: usize,
    per_budget: u64,
    seed_energy: f64,
) -> (Vec<SubtreeResult>, u64) {
    let nworkers = workers.clamp(1, prefixes.len().max(1));
    if nworkers <= 1 {
        let results = prefixes
            .iter()
            .map(|prefix| run_one(ctx, prefix, per_budget, seed_energy))
            .collect();
        return (results, 0);
    }
    let next = AtomicUsize::new(0);
    let steals = AtomicU64::new(0);
    let slots: Vec<Mutex<Option<SubtreeResult>>> =
        prefixes.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..nworkers {
            s.spawn(|| {
                let mut picked = 0u64;
                loop {
                    let idx = next.fetch_add(1, Ordering::Relaxed);
                    if idx >= prefixes.len() {
                        break;
                    }
                    picked += 1;
                    let res = run_one(ctx, &prefixes[idx], per_budget, seed_energy);
                    *slots[idx].lock().expect("subtree slot poisoned") = Some(res);
                }
                if picked > 1 {
                    steals.fetch_add(picked - 1, Ordering::Relaxed);
                }
            });
        }
    });
    let results = slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("subtree slot poisoned")
                .expect("every subtree index was claimed")
        })
        .collect();
    (results, steals.load(Ordering::Relaxed))
}

#[cfg(test)]
mod tests {
    use crate::continuous;
    use crate::discrete::{self, BnbConfig, ExactSolution};
    use crate::engine::profiling;
    use crate::error::SolveError;
    use models::{DiscreteModes, PowerLaw};
    use taskgraph::{generators, PreparedGraph, TaskGraph};

    const P: PowerLaw = PowerLaw::CUBIC;

    fn modes(v: &[f64]) -> DiscreteModes {
        DiscreteModes::new(v).unwrap()
    }

    fn fixture() -> (TaskGraph, f64, DiscreteModes) {
        let g = taskgraph::TaskGraph::new(
            vec![1.0, 2.0, 3.0, 1.5, 2.5, 1.0, 2.0, 1.2],
            &[
                (0, 1),
                (0, 2),
                (1, 3),
                (2, 3),
                (2, 4),
                (3, 5),
                (4, 5),
                (5, 6),
                (5, 7),
            ],
        )
        .unwrap();
        let ms = modes(&[0.6, 1.2, 1.8, 2.4]);
        let d = 1.35 * taskgraph::analysis::critical_path_weight(&g) / ms.s_max();
        (g, d, ms)
    }

    fn exact(
        g: &TaskGraph,
        d: f64,
        ms: &DiscreteModes,
        cfg: &BnbConfig,
    ) -> Result<ExactSolution, SolveError> {
        discrete::exact(&PreparedGraph::new(g), d, ms, P, cfg)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (g, d, ms) = fixture();
        let seq = exact(&g, d, &ms, &BnbConfig::default()).unwrap();
        assert_eq!(seq.partitions.len(), 1, "one worker searches one tree");
        for workers in [1, 2, 4] {
            let cfg = BnbConfig {
                partitions: 4 * workers,
                ..BnbConfig::with_workers(workers)
            };
            let par = exact(&g, d, &ms, &cfg).unwrap();
            assert!(par.partitions.len() > 1, "workers {workers}: one partition");
            assert!(par.complete);
            assert_eq!(
                par.energy.to_bits(),
                seq.energy.to_bits(),
                "workers {workers}: {} vs {}",
                par.energy,
                seq.energy
            );
            assert_eq!(par.speeds, seq.speeds, "workers {workers}");
            assert_eq!(par.gap(), 0.0);
        }
    }

    #[test]
    fn deterministic_mode_reproduces_per_partition_node_counts() {
        let (g, d, ms) = fixture();
        for partitions in [1, 2, 4, 8] {
            let cfg = BnbConfig {
                workers: 4,
                partitions,
                ..Default::default()
            };
            let a = exact(&g, d, &ms, &cfg).unwrap();
            let b = exact(&g, d, &ms, &cfg).unwrap();
            assert_eq!(a.energy.to_bits(), b.energy.to_bits(), "p={partitions}");
            assert_eq!(a.speeds, b.speeds, "p={partitions}");
            assert_eq!(a.depth, b.depth, "p={partitions}");
            assert_eq!(
                a.partitions.len(),
                b.partitions.len(),
                "p={partitions}: partition sets must agree"
            );
            for (x, y) in a.partitions.iter().zip(&b.partitions) {
                assert_eq!(
                    x, y,
                    "p={partitions}: per-partition report must be identical"
                );
            }
        }
    }

    #[test]
    fn budget_trip_returns_anytime_incumbent() {
        // Tiny budget on a PARTITION gadget: the warm seed must
        // survive the trip as an anytime result.
        let values: Vec<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.31).collect();
        let (g, d) = generators::partition_chain(&values);
        let ms = modes(&[1.0, 2.0]);
        let cfg = BnbConfig {
            workers: 4,
            node_budget: 50,
            ..Default::default()
        };
        let sol = exact(&g, d, &ms, &cfg).unwrap();
        assert!(!sol.complete);
        assert!(sol.lower_bound <= sol.energy);
        // Feasible and no worse than the round-up seed.
        let durations: Vec<f64> = g
            .weights()
            .iter()
            .zip(&sol.speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-9));
        let seed = discrete::round_up_prepared(&PreparedGraph::new(&g), d, &ms, P, None).unwrap();
        let e_seed = continuous::energy_of_speeds(&g, &seed, P);
        assert!(sol.energy <= e_seed * (1.0 + 1e-12));
    }

    #[test]
    fn cold_budget_trip_is_budget_exhausted() {
        let values: Vec<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.31).collect();
        let (g, d) = generators::partition_chain(&values);
        let ms = modes(&[1.0, 2.0]);
        let cfg = BnbConfig {
            workers: 2,
            node_budget: 8,
            warm_start: false,
            ..Default::default()
        };
        assert!(matches!(
            exact(&g, d, &ms, &cfg),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn profiling_counters_fold_into_calling_thread() {
        let (g, d, ms) = fixture();
        let before = profiling::counts();
        let sol = exact(&g, d, &ms, &BnbConfig::with_workers(4)).unwrap();
        let delta = profiling::counts() - before;
        assert_eq!(delta.bnb_nodes, sol.stats.nodes);
        assert_eq!(delta.bnb_steals, sol.steals);
    }
}
