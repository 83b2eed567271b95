//! Deterministic parallel branch-and-bound.
//!
//! The Discrete exact solver (`discrete::exact`, the paper's Theorem-4
//! problem) is a depth-first search over per-task mode assignments.
//! This module parallelizes it Bobpp-style (PAPERS.md: Menouer &
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
//! 2. **Explore.** The subtrees run on a `std::thread::scope` fan-out
//!    pulling from an atomic work queue. Each subtree prunes only
//!    against the warm seed and its own local incumbent — it never
//!    sees what its siblings found.
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
//!
//! Budget trips degrade to **anytime** results exactly like the
//! sequential path: the best incumbent (the warm seed at worst) comes
//! back with a certified [`ParSolution::lower_bound`], and only a trip
//! with no incumbent at all is [`SolveError::BudgetExhausted`].

use crate::continuous;
use crate::discrete::{
    round_up_with_bound, BnbStats, Incumbent, SearchCtx, SubtreeOutcome, DEFAULT_NODE_BUDGET,
};
use crate::engine::profiling;
use crate::error::SolveError;
use models::{DiscreteModes, PowerLaw};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use taskgraph::TaskGraph;

/// Configuration of one parallel exact solve.
#[derive(Debug, Clone, Copy)]
pub struct ParBnbConfig {
    /// Worker threads to fan the subtrees out over (1 = inline).
    pub workers: usize,
    /// Target partition count; `0` means `4 × workers` (over-splitting
    /// keeps the atomic work queue busy when subtree costs are
    /// skewed). The node counts of a run are reproducible **per
    /// partition count**, so pin this (not just `workers`) when
    /// comparing manifests.
    pub partitions: usize,
    /// Total node budget, split evenly across partitions
    /// (`ceil(budget / partitions)` each).
    pub node_budget: u64,
    /// Seed the incumbent with the Proposition 1(b) round-up.
    pub warm_start: bool,
    /// Use the dynamic chain-cover lower bound.
    pub chain_bound: bool,
}

impl ParBnbConfig {
    /// Deterministic defaults at `workers` threads.
    pub fn with_workers(workers: usize) -> ParBnbConfig {
        ParBnbConfig {
            workers: workers.max(1),
            ..ParBnbConfig::default()
        }
    }

    fn target_partitions(&self) -> usize {
        if self.partitions > 0 {
            self.partitions
        } else {
            4 * self.workers.max(1)
        }
    }
}

impl Default for ParBnbConfig {
    fn default() -> Self {
        ParBnbConfig {
            workers: 1,
            partitions: 0,
            node_budget: DEFAULT_NODE_BUDGET,
            warm_start: true,
            chain_bound: true,
        }
    }
}

/// Per-subtree search report (the X10 partition manifest rows).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// The subtree's content-stable key: the mode indices of the fixed
    /// assignment prefix, in topological task order.
    pub key: Vec<usize>,
    /// Nodes expanded inside the subtree.
    pub nodes: u64,
    /// Deadline prunes inside the subtree.
    pub pruned_infeasible: u64,
    /// Bound prunes inside the subtree.
    pub pruned_bound: u64,
    /// Whether the subtree was exhausted (not budget-tripped).
    pub complete: bool,
    /// Best energy found *inside* this subtree, when it improved on
    /// the seed bound the subtree started from.
    pub energy: Option<f64>,
}

/// Result of a parallel exact solve.
#[derive(Debug, Clone)]
pub struct ParSolution {
    /// Best per-task speeds found (optimal when `complete`).
    pub speeds: Vec<f64>,
    /// Energy of `speeds`.
    pub energy: f64,
    /// Aggregated search statistics (partition enumeration included).
    pub stats: BnbStats,
    /// Whether the searched space proves `energy` optimal: every
    /// partition ran to completion.
    pub complete: bool,
    /// Certified lower bound on the optimum (equals `energy` when
    /// `complete`).
    pub lower_bound: f64,
    /// Depth of the partition split (tasks fixed per prefix).
    pub depth: usize,
    /// Per-subtree reports, in deterministic partition order.
    pub partitions: Vec<PartitionReport>,
    /// Subtree pickups beyond each worker's first — dynamic
    /// rebalancing activity (telemetry; not part of the deterministic
    /// contract).
    pub steals: u64,
}

impl ParSolution {
    /// Relative optimality gap (0 when `complete`).
    pub fn gap(&self) -> f64 {
        if self.complete || self.lower_bound <= 0.0 {
            return 0.0;
        }
        ((self.energy - self.lower_bound) / self.lower_bound).max(0.0)
    }
}

struct SubtreeResult {
    report: PartitionReport,
    best: Option<(f64, Vec<usize>)>,
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
/// atomic queue. Results come back in partition order; the second
/// return is the steal count (pickups beyond each worker's first).
fn run_subtrees(
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

/// The warm seed: Proposition 1(b) round-up as `(energy, mode
/// indices)` plus its certified relaxation lower bound.
fn warm_seed(
    ctx: &SearchCtx<'_>,
    g: &TaskGraph,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> (Option<(f64, Vec<usize>)>, f64) {
    match round_up_with_bound(g, deadline, modes, p, None) {
        Ok((speeds, lb)) => {
            let energy = continuous::energy_of_speeds(g, &speeds, p);
            (Some((energy, ctx.modes_of_speeds(&speeds))), lb)
        }
        // No seed: the search starts cold (it still proves optimality
        // on completion; a budget trip then has nothing to return).
        Err(_) => (None, 0.0),
    }
}

/// Parallel exact Discrete solve. See the module docs for the
/// partition scheme and the determinism contract.
pub fn exact_par(
    g: &TaskGraph,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
    cfg: &ParBnbConfig,
) -> Result<ParSolution, SolveError> {
    let ctx = SearchCtx::new(g, deadline, modes, p, cfg.chain_bound)?;
    let mut stats = BnbStats::default();
    let (seed, relax_lb) = if cfg.warm_start {
        warm_seed(&ctx, g, deadline, modes, p)
    } else {
        (None, 0.0)
    };
    let seed_energy = seed.as_ref().map_or(f64::INFINITY, |(e, _)| *e);

    let (depth, prefixes) =
        ctx.enumerate_frontier(cfg.target_partitions(), seed_energy, &mut stats);
    if prefixes.is_empty() {
        // The whole tree was pruned against the seed during
        // enumeration: the seed is optimal (or the instance holds no
        // feasible assignment at all).
        profiling::add_bnb(stats.nodes, 0);
        return match seed {
            Some((energy, mi)) => Ok(ParSolution {
                speeds: ctx.speeds_of(&mi),
                energy,
                stats,
                complete: true,
                lower_bound: energy,
                depth,
                partitions: Vec::new(),
                steals: 0,
            }),
            None => Err(SolveError::Infeasible {
                deadline,
                min_makespan: ctx.min_makespan(),
            }),
        };
    }

    let per_budget = cfg.node_budget.div_ceil(prefixes.len() as u64).max(1);
    let (results, steals) = run_subtrees(&ctx, &prefixes, cfg.workers, per_budget, seed_energy);

    // Lexicographic combine with strict `<`: reproduces the
    // sequential DFS's first-optimal-leaf tie-breaking exactly.
    let mut best = seed;
    let mut complete = true;
    let mut partitions = Vec::with_capacity(results.len());
    for r in results {
        complete &= r.report.complete;
        if let Some((e, mi)) = r.best {
            if best.as_ref().is_none_or(|(b, _)| e < *b) {
                best = Some((e, mi));
            }
        }
        stats.absorb(BnbStats {
            nodes: r.report.nodes,
            pruned_infeasible: r.report.pruned_infeasible,
            pruned_bound: r.report.pruned_bound,
        });
        partitions.push(r.report);
    }
    profiling::add_bnb(stats.nodes, steals);

    match best {
        Some((energy, mi)) => {
            let lower_bound = if complete {
                energy
            } else {
                relax_lb.max(ctx.root_lower_bound()).min(energy)
            };
            Ok(ParSolution {
                speeds: ctx.speeds_of(&mi),
                energy,
                stats,
                complete,
                lower_bound,
                depth,
                partitions,
                steals,
            })
        }
        None if complete => Err(SolveError::Infeasible {
            deadline,
            min_makespan: ctx.min_makespan(),
        }),
        None => Err(SolveError::BudgetExhausted {
            nodes: stats.nodes,
            budget: cfg.node_budget,
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discrete;
    use taskgraph::generators;

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

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (g, d, ms) = fixture();
        let seq = discrete::exact(&g, d, &ms, P).unwrap();
        for workers in [1, 2, 4] {
            let par = exact_par(&g, d, &ms, P, &ParBnbConfig::with_workers(workers)).unwrap();
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
            let cfg = ParBnbConfig {
                workers: 4,
                partitions,
                ..Default::default()
            };
            let a = exact_par(&g, d, &ms, P, &cfg).unwrap();
            let b = exact_par(&g, d, &ms, P, &cfg).unwrap();
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
        let cfg = ParBnbConfig {
            workers: 4,
            node_budget: 50,
            ..Default::default()
        };
        let sol = exact_par(&g, d, &ms, P, &cfg).unwrap();
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
        let seed = discrete::round_up(&g, d, &ms, P, None).unwrap();
        let e_seed = continuous::energy_of_speeds(&g, &seed, P);
        assert!(sol.energy <= e_seed * (1.0 + 1e-12));
    }

    #[test]
    fn cold_budget_trip_is_budget_exhausted() {
        let values: Vec<f64> = (0..16).map(|i| 1.0 + (i as f64) * 0.31).collect();
        let (g, d) = generators::partition_chain(&values);
        let ms = modes(&[1.0, 2.0]);
        let cfg = ParBnbConfig {
            workers: 2,
            node_budget: 8,
            warm_start: false,
            ..Default::default()
        };
        assert!(matches!(
            exact_par(&g, d, &ms, P, &cfg),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn profiling_counters_fold_into_calling_thread() {
        let (g, d, ms) = fixture();
        let before = profiling::counts();
        let sol = exact_par(&g, d, &ms, P, &ParBnbConfig::with_workers(4)).unwrap();
        let delta = profiling::counts() - before;
        assert_eq!(delta.bnb_nodes, sol.stats.nodes);
        assert_eq!(delta.bnb_steals, sol.steals);
    }
}
