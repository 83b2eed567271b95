//! Discrete-model solvers (Theorem 4: NP-complete; Proposition 1(b):
//! rounding approximation).
//!
//! * [`exact`] — branch-and-bound over per-task mode choices, the one
//!   entry point of the exact search. Worst case exponential, as
//!   Theorem 4's NP-completeness predicts; experiment T4 measures the
//!   blow-up on PARTITION-style instances. It is a Bobpp-style
//!   partition sweep ([`BnbConfig`]): one partition at one worker is
//!   the plain sequential depth-first search, more partitions fan out
//!   over worker threads. On a node-budget trip with a feasible
//!   incumbent in hand the search returns the incumbent as an
//!   **anytime** result ([`ExactSolution::complete`]
//!   is `false` and [`ExactSolution::lower_bound`] certifies the
//!   optimality gap) instead of discarding it.
//! * [`chain_dp`] — pseudo-polynomial dynamic program for chains with
//!   a discretized time budget (NP-completeness is *weak* for chains).
//! * [`round_up_warm`] (and its cold face [`round_up_prepared`]) —
//!   Proposition 1(b): solve the Continuous relaxation boxed to
//!   `[s_1, s_m]` to precision `1/K` and round each speed up to the
//!   next mode; approximation factor
//!   `(1 + α/s_1)^{α_pow−1} · (1 + 1/K)^{α_pow−1}` where
//!   `α = max_i (s_{i+1} − s_i)` (for the paper's cubic power law the
//!   exponent is 2, matching the stated `(1+α/s₁)²(1+1/K)²`). The
//!   Incremental approximation (Theorem 5) runs the same rounding body.
//! * [`greedy_slowdown`] — the classic DVFS baseline (experiment X2).
//!
//! Every entry point but the two baselines takes the caller's
//! [`PreparedGraph`], so critical path, reduction and completion
//! times come from its cache.

use crate::continuous;
use crate::engine::fan_out;
use crate::error::SolveError;
use models::{DiscreteModes, PowerLaw};
use taskgraph::analysis::{critical_path_weight, topo_order};
use taskgraph::{PreparedGraph, TaskGraph, TaskId};

/// Branch-and-bound search statistics (experiment T4 evidence).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BnbStats {
    /// Search-tree nodes expanded.
    pub nodes: u64,
    /// Nodes cut by the deadline-feasibility bound.
    pub pruned_infeasible: u64,
    /// Nodes cut by the energy lower bound.
    pub pruned_bound: u64,
}

impl BnbStats {
    /// Accumulate another counter set (partition merges).
    pub fn absorb(&mut self, other: BnbStats) {
        self.nodes += other.nodes;
        self.pruned_infeasible += other.pruned_infeasible;
        self.pruned_bound += other.pruned_bound;
    }
}

/// Result of an exact Discrete solve.
#[derive(Debug, Clone)]
pub struct ExactSolution {
    /// Best per-task speeds found (each one of the modes). Optimal
    /// when [`ExactSolution::complete`]; otherwise the best feasible
    /// incumbent at the node-budget trip.
    pub speeds: Vec<f64>,
    /// Energy of `speeds`.
    pub energy: f64,
    /// Search statistics.
    pub stats: BnbStats,
    /// Whether the search ran to completion, proving `energy` optimal.
    /// `false` means the node budget tripped and this is an anytime
    /// result: `speeds` is still feasible, `energy` is an upper bound
    /// on the optimum, and [`ExactSolution::lower_bound`] is a
    /// certified lower bound.
    pub complete: bool,
    /// Certified lower bound on the true optimum: `energy` itself when
    /// `complete`; otherwise the best of the boxed-relaxation bound
    /// (Proposition 1(b)) and the root combinatorial bound.
    pub lower_bound: f64,
    /// Depth of the partition split (tasks fixed per prefix; `0` for
    /// the one-partition sequential search).
    pub depth: usize,
    /// Per-subtree reports, in deterministic partition order (empty
    /// when the frontier enumeration already pruned the whole tree
    /// against the warm seed).
    pub partitions: Vec<PartitionReport>,
    /// Subtree pickups beyond each worker's first — dynamic
    /// rebalancing activity (telemetry; not part of the deterministic
    /// contract).
    pub steals: u64,
}

/// Per-subtree search report (the X10 partition manifest rows).
#[derive(Debug, Clone, PartialEq)]
pub struct PartitionReport {
    /// The subtree's content-stable key: the mode indices of the fixed
    /// assignment prefix, in topological task order.
    pub key: Vec<usize>,
    /// Nodes expanded and pruned inside the subtree.
    pub stats: BnbStats,
    /// Whether the subtree was exhausted (not budget-tripped).
    pub complete: bool,
    /// Best energy found *inside* this subtree, when it improved on
    /// the seed bound the subtree started from.
    pub energy: Option<f64>,
}

impl ExactSolution {
    /// Relative optimality gap `(energy − lower_bound) / lower_bound`:
    /// `0` for complete (proven optimal) solves.
    pub fn gap(&self) -> f64 {
        if self.complete || self.lower_bound <= 0.0 {
            return 0.0;
        }
        ((self.energy - self.lower_bound) / self.lower_bound).max(0.0)
    }
}

/// Hard cap on explored nodes before giving up (exponential searches
/// must fail loudly rather than hang).
pub const DEFAULT_NODE_BUDGET: u64 = 20_000_000;

/// Branch-and-bound configuration (the knobs ablated in
/// `benches/discrete.rs`). The default is the sequential search: one
/// worker, one partition.
#[derive(Debug, Clone, Copy)]
pub struct BnbConfig {
    /// Worker threads to fan the partitions out over (1 = inline).
    pub workers: usize,
    /// Target partition count; `0` means one partition at one worker
    /// and `4 × workers` otherwise (over-splitting keeps the atomic
    /// work queue busy when subtree costs are skewed). The node counts
    /// of a run are reproducible **per partition count**, so pin this
    /// (not just `workers`) when comparing manifests.
    pub partitions: usize,
    /// Hard cap on explored nodes, split evenly across partitions
    /// (`ceil(budget / partitions)` each).
    pub node_budget: u64,
    /// Seed the incumbent with the Proposition 1(b) rounding.
    pub warm_start: bool,
}

impl BnbConfig {
    /// Deterministic defaults at `workers` threads.
    pub fn with_workers(workers: usize) -> BnbConfig {
        BnbConfig {
            workers: workers.max(1),
            ..BnbConfig::default()
        }
    }

    fn target_partitions(&self) -> usize {
        match (self.partitions, self.workers.max(1)) {
            (0, 1) => 1,
            (0, workers) => 4 * workers,
            (partitions, _) => partitions,
        }
    }
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            workers: 1,
            partitions: 0,
            node_budget: DEFAULT_NODE_BUDGET,
            warm_start: true,
        }
    }
}

/// A search incumbent: best energy seen plus the mode assignment that
/// achieved it (`None` while only an externally seeded bound exists).
#[derive(Debug, Clone)]
struct Incumbent {
    energy: f64,
    modes: Option<Vec<usize>>,
}

/// How one subtree search ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SubtreeOutcome {
    /// The subtree was exhausted: its part of the space is proven.
    Complete,
    /// The per-subtree node budget tripped.
    Budget,
}

/// A partial assignment: modes for a prefix of the tasks in
/// topological order.
struct Partial {
    /// Completion time of each assigned task.
    ecl: Vec<f64>,
    /// `energy[k]`: energy of the first `k` tasks (`n + 1` slots).
    energy: Vec<f64>,
    /// Mode index per task (`usize::MAX` while unassigned).
    assign: Vec<usize>,
}

/// All precomputed state of one branch-and-bound instance: bounds,
/// chain cover, candidate ranges. Immutable during the search, so one
/// `SearchCtx` is shared by every parallel subtree worker.
struct SearchCtx<'a> {
    g: &'a TaskGraph,
    deadline: f64,
    min_makespan: f64,
    p: PowerLaw,
    speeds_list: Vec<f64>,
    n: usize,
    m: usize,
    order: Vec<TaskId>,
    pos: Vec<usize>,
    tail: Vec<f64>,
    est: Vec<f64>,
    chains: Vec<Vec<usize>>,
    chain_w_suffix: Vec<Vec<f64>>,
    chain_lb_suffix: Vec<Vec<f64>>,
    chain_frontier: Vec<Vec<usize>>,
    s_bottom: f64,
    /// Per task, the slowest possibly feasible mode: its candidates
    /// are the modes `lo[i]..m`.
    lo: Vec<usize>,
}

impl<'a> SearchCtx<'a> {
    /// Precompute every bound for `(prep, deadline, modes)`. Fails with
    /// [`SolveError::Infeasible`] when even top speed misses the
    /// deadline. Feasibility and the minimum makespan come from the
    /// prepared critical path; the branching order is the canonical
    /// [`topo_order`] of the graph — not the instance's carried order,
    /// which an edit may have shifted — so a patched instance branches
    /// exactly like a rebuilt one.
    fn new(
        prep: &'a PreparedGraph<'_>,
        deadline: f64,
        modes: &DiscreteModes,
        p: PowerLaw,
    ) -> Result<SearchCtx<'a>, SolveError> {
        continuous::check_feasible_prepared(prep, deadline, Some(modes.s_max()))?;
        let g = prep.graph();
        let n = g.n();
        let order = topo_order(g);
        let speeds_list = modes.speeds().to_vec();
        let m = speeds_list.len();
        let min_makespan = prep.critical_path_weight() / modes.s_max();

        // Position of each task in the topological order.
        let mut pos = vec![0usize; n];
        for (k, &t) in order.iter().enumerate() {
            pos[t.0] = k;
        }

        // Top-speed tail below each task: heaviest path weight from the
        // task (exclusive) to a sink, divided by s_m.
        let s_top = modes.s_max();
        let mut tail = vec![0.0f64; n];
        for &t in order.iter().rev() {
            tail[t.0] = g
                .succs(t)
                .iter()
                .map(|&s| tail[s.0] + g.weight(s) / s_top)
                .fold(0.0f64, f64::max);
        }
        // Earliest possible start (everything at top speed) per task.
        let mut est = vec![0.0f64; n];
        for &t in &order {
            est[t.0] = g
                .preds(t)
                .iter()
                .map(|&q| est[q.0] + g.weight(q) / s_top)
                .fold(0.0f64, f64::max);
        }

        // Per-task energy lower bound: the slowest mode that fits the
        // task's widest possible window [est, D − tail].
        let mut task_lb = vec![0.0f64; n];
        let mut lo = vec![0usize; n];
        for i in 0..n {
            let infeasible = SolveError::Infeasible {
                deadline,
                min_makespan,
            };
            let window = deadline - tail[i] - est[i];
            if window <= 0.0 {
                return Err(infeasible);
            }
            let need = g.weights()[i] / window;
            let s_lb = modes.round_up(need).ok_or(infeasible)?;
            lo[i] = speeds_list.iter().position(|&s| s >= s_lb - 1e-12).unwrap();
            task_lb[i] = p.energy_at_speed(g.weights()[i], s_lb);
        }

        // Greedy chain cover: disjoint directed paths covering every
        // task, each following graph edges (so topo positions increase
        // along a chain and the assigned members of a chain are always
        // a prefix).
        let mut chain_of = vec![usize::MAX; n];
        let mut chains: Vec<Vec<usize>> = Vec::new();
        for &t in &order {
            if chain_of[t.0] != usize::MAX {
                continue;
            }
            let id = chains.len();
            let mut chain = vec![t.0];
            chain_of[t.0] = id;
            let mut cur = t;
            'extend: loop {
                for &s in g.succs(cur) {
                    if chain_of[s.0] == usize::MAX {
                        chain_of[s.0] = id;
                        chain.push(s.0);
                        cur = s;
                        continue 'extend;
                    }
                }
                break;
            }
            chains.push(chain);
        }
        // Per-chain suffix sums of work and static per-task bounds, and
        // per-depth frontiers (index of the chain's first unassigned
        // member when the topo prefix of length k is assigned).
        let nc = chains.len();
        let mut chain_w_suffix: Vec<Vec<f64>> = Vec::with_capacity(nc);
        let mut chain_lb_suffix: Vec<Vec<f64>> = Vec::with_capacity(nc);
        for chain in &chains {
            let len = chain.len();
            let mut ws = vec![0.0f64; len + 1];
            let mut lbs = vec![0.0f64; len + 1];
            for j in (0..len).rev() {
                ws[j] = ws[j + 1] + g.weights()[chain[j]];
                lbs[j] = lbs[j + 1] + task_lb[chain[j]];
            }
            chain_w_suffix.push(ws);
            chain_lb_suffix.push(lbs);
        }
        let mut chain_frontier: Vec<Vec<usize>> = vec![vec![0usize; n + 2]; nc];
        for (c, chain) in chains.iter().enumerate() {
            let mut j = 0usize;
            for (k, slot) in chain_frontier[c].iter_mut().enumerate() {
                while j < chain.len() && pos[chain[j]] < k {
                    j += 1;
                }
                *slot = j;
            }
        }

        Ok(SearchCtx {
            g,
            deadline,
            min_makespan,
            p,
            speeds_list,
            n,
            m,
            order,
            pos,
            tail,
            est,
            chains,
            chain_w_suffix,
            chain_lb_suffix,
            chain_frontier,
            s_bottom: modes.s_min(),
            lo,
        })
    }

    /// Map mode speeds back to mode indices (warm-start seeding).
    fn modes_of_speeds(&self, speeds: &[f64]) -> Vec<usize> {
        speeds
            .iter()
            .map(|&s| {
                self.speeds_list
                    .iter()
                    .position(|&v| (v - s).abs() <= 1e-9 * (1.0 + v.abs()))
                    .expect("warm-start speed is one of the modes")
            })
            .collect()
    }

    /// Per-task speeds of a mode-index assignment.
    fn speeds_of(&self, modes_idx: &[usize]) -> Vec<f64> {
        modes_idx.iter().map(|&j| self.speeds_list[j]).collect()
    }

    /// Energy lower bound for the unassigned suffix once the topo
    /// prefix of length `d1` is assigned (`ecl` holds the completion
    /// of every assigned task).
    fn rem_lb(&self, d1: usize, ecl: &[f64]) -> f64 {
        let mut b = 0.0f64;
        for c in 0..self.chains.len() {
            let j = self.chain_frontier[c][d1];
            let chain = &self.chains[c];
            if j >= chain.len() {
                continue;
            }
            let w_rem = self.chain_w_suffix[c][j];
            let lb_static = self.chain_lb_suffix[c][j];
            let f = chain[j];
            let mut start_f = self.est[f];
            for &q in self.g.preds(TaskId(f)) {
                if self.pos[q.0] < d1 {
                    start_f = start_f.max(ecl[q.0]);
                }
            }
            let window = self.deadline - start_f;
            let lb_chain = if window <= 0.0 {
                f64::INFINITY
            } else {
                self.p
                    .energy_at_speed(w_rem, (w_rem / window).max(self.s_bottom))
            };
            b += lb_static.max(lb_chain);
        }
        b
    }

    /// Admissible lower bound on *any* complete assignment (depth 0):
    /// the chain-cover bound. Used as the open bound of anytime
    /// results.
    fn root_lower_bound(&self) -> f64 {
        let ecl = vec![0.0f64; self.n];
        self.rem_lb(0, &ecl)
    }

    /// The Bobpp-style deterministic partition frontier: iteratively
    /// deepen a breadth-first expansion of the search tree — children
    /// in candidate order, prefixes in lexicographic order — until at
    /// least `target` live prefixes exist (or the tree is shallower).
    /// The result is a pure function of the instance and
    /// `incumbent_energy`, so two runs with the same partition target
    /// enumerate byte-identical partitions.
    ///
    /// Returns `(depth, prefixes)`; an empty frontier means the whole
    /// tree was pruned against `incumbent_energy` (the seed is
    /// optimal). Enumeration work is charged to `stats`.
    fn enumerate_frontier(
        &self,
        target: usize,
        incumbent_energy: f64,
        stats: &mut BnbStats,
    ) -> (usize, Vec<Vec<usize>>) {
        // Frontier growth is capped so a wide ladder cannot explode
        // the prefix list; `n − 1` keeps every partition a real
        // subtree (at least one free task below the split).
        const MAX_FRONTIER: usize = 4096;
        let max_depth = self.n.saturating_sub(1);
        let mut frontier: Vec<Vec<usize>> = vec![Vec::new()];
        let mut depth = 0usize;
        while depth < max_depth
            && !frontier.is_empty()
            && frontier.len() < target
            && frontier.len().saturating_mul(self.m) <= MAX_FRONTIER
        {
            let mut next = Vec::with_capacity(frontier.len() * 2);
            for prefix in &frontier {
                // One level deeper, cut by the subtree search's own test.
                let mut at = self.replay(prefix);
                for mode_idx in self.lo[self.order[depth].0]..self.m {
                    stats.nodes += 1;
                    if self.branch(&mut at, depth, mode_idx, incumbent_energy, stats) {
                        next.push([prefix.as_slice(), &[mode_idx]].concat());
                    }
                }
            }
            frontier = next;
            depth += 1;
        }
        (depth, frontier)
    }

    /// Replay a fixed prefix: mode indices for the first
    /// `prefix.len()` tasks in topological order.
    fn replay(&self, prefix: &[usize]) -> Partial {
        let mut at = Partial {
            ecl: vec![0.0f64; self.n],
            energy: vec![0.0f64; self.n + 1],
            assign: vec![usize::MAX; self.n],
        };
        for (k, &mode_idx) in prefix.iter().enumerate() {
            let i = self.order[k].0;
            let s = self.speeds_list[mode_idx];
            at.ecl[i] = self.completion(k, s, &at.ecl);
            at.energy[k + 1] = at.energy[k] + self.p.energy_at_speed(self.g.weights()[i], s);
            at.assign[i] = mode_idx;
        }
        at
    }

    /// Completion of the task at topological position `depth` run at
    /// speed `s`, started once its predecessors' completions in `ecl`.
    #[inline(always)]
    fn completion(&self, depth: usize, s: f64, ecl: &[f64]) -> f64 {
        let task = self.order[depth];
        let start = self
            .g
            .preds(task)
            .iter()
            .map(|&q| ecl[q.0])
            .fold(0.0f64, f64::max);
        start + self.g.weight(task) / s
    }

    /// The one branching test: extend `at`, which assigns the first
    /// `depth` tasks in topological order, by mode `mode_idx` for the
    /// next one. A surviving child is written into `at` and returns
    /// `true`; a cut child is counted in `stats` as a deadline or a
    /// bound prune. The frontier enumeration and the subtree search
    /// both branch through here, because they must prune identically:
    /// otherwise the partitions stop tiling the space the sequential
    /// search covers. It and [`Self::completion`] are inlined into the
    /// search loop: as calls they cost ~10% per node.
    #[inline(always)]
    fn branch(
        &self,
        at: &mut Partial,
        depth: usize,
        mode_idx: usize,
        incumbent: f64,
        stats: &mut BnbStats,
    ) -> bool {
        let i = self.order[depth].0;
        let s = self.speeds_list[mode_idx];
        let completion = self.completion(depth, s, &at.ecl);
        // Deadline prune: this task's completion plus the fastest
        // possible tail must fit.
        if completion + self.tail[i] > self.deadline * (1.0 + 1e-12) {
            stats.pruned_infeasible += 1;
            return false;
        }
        let e = at.energy[depth] + self.p.energy_at_speed(self.g.weights()[i], s);
        // Energy lower bound for the unassigned suffix; the chain
        // frontiers read this task's completion. The bound is not
        // monotone in the mode index (a faster mode frees the chain
        // windows), so a cut child does not end the task's candidates.
        at.ecl[i] = completion;
        if e + self.rem_lb(depth + 1, &at.ecl) >= incumbent * (1.0 - 1e-12) {
            stats.pruned_bound += 1;
            return false;
        }
        at.energy[depth + 1] = e;
        at.assign[i] = mode_idx;
        true
    }

    /// Depth-first search of the subtree rooted at `prefix` (mode
    /// indices for the first `prefix.len()` tasks in topological
    /// order; empty = the whole tree).
    ///
    /// * `incumbent` — in/out: pruning bound and best assignment. Seed
    ///   `energy` with a known feasible value (round-up) to start with
    ///   a strong bound. The search prunes against nothing else, so a
    ///   subtree's node count depends only on `(prefix, seed, budget)`
    ///   — never on what sibling subtrees found — which is what makes
    ///   the parallel partition sweep reproducible.
    /// * `node_budget` — cap on nodes charged to `stats` by this call.
    fn search_subtree(
        &self,
        prefix: &[usize],
        node_budget: u64,
        incumbent: &mut Incumbent,
        stats: &mut BnbStats,
    ) -> SubtreeOutcome {
        let n = self.n;
        let base = prefix.len();
        // The fixed prefix was already vetted by the enumeration.
        let mut at = self.replay(prefix);
        // Per open depth, how many of its task's candidates were tried.
        let mut tried: Vec<usize> = vec![0];
        'search: while let Some(rel) = tried.len().checked_sub(1) {
            let depth = base + rel;
            if depth == n {
                // Complete assignment: record incumbent.
                if at.energy[n] < incumbent.energy {
                    incumbent.energy = at.energy[n];
                    incumbent.modes = Some(at.assign.clone());
                }
                tried.pop();
                continue;
            }
            let i = self.order[depth].0;
            for mode_idx in self.lo[i] + tried[rel]..self.m {
                tried[rel] += 1;
                stats.nodes += 1;
                if stats.nodes > node_budget {
                    return SubtreeOutcome::Budget;
                }
                if self.branch(&mut at, depth, mode_idx, incumbent.energy, stats) {
                    tried.push(0);
                    continue 'search;
                }
            }
            // Exhausted this task's modes: backtrack.
            tried.pop();
        }
        SubtreeOutcome::Complete
    }
}

/// Exact branch-and-bound (Theorem 4's problem), the one entry point of
/// the exact search.
///
/// Tasks are assigned in topological order, so each task's earliest
/// completion is known as soon as it is assigned. Pruning:
///
/// 1. **Deadline**: completion of the assigned prefix plus the
///    top-speed tail of the heaviest remaining path must fit in `D`;
/// 2. **Energy bound**: accumulated energy plus an admissible lower
///    bound on the unassigned suffix must beat the incumbent. That
///    bound is the **chain-cover bound**: the graph is covered once by
///    disjoint directed paths (for execution graphs these are
///    essentially the per-processor chains), and the remaining members
///    of each chain must run *serially* between the chain's dynamic
///    earliest start (known exactly from the assigned prefix) and the
///    deadline — by convexity their energy is at least
///    `W·max(W/window, s₁)^{α−1}` for total remaining work `W`. Each
///    chain contributes the larger of that and its members' static
///    bounds (each task at the slowest mode that can possibly meet its
///    widest window), which is much tighter than per-task windows
///    alone on serialized workloads.
///
/// **Partition sweep** (Bobpp-style; PAPERS.md: Menouer & Le Cun,
/// *deterministic parallel tree search*). A deterministic frontier
/// enumeration splits the tree into [`BnbConfig`]'s target number of
/// subtrees, which `workers` scoped threads pull from an atomic queue.
/// Each subtree prunes only against the warm seed and its own
/// incumbent, so its node count is a pure function of `(instance,
/// prefix, seed, per-subtree budget)` — which thread runs it, and how
/// often a thread picks up another ("steals"), costs no determinism.
/// The frontier tiles the unpruned space and the bounds are
/// admissible, so the optimum lies in exactly one partition, and the
/// lexicographic combine with strict `<` reproduces the sequential
/// DFS's tie-breaking. One partition is therefore exactly the
/// sequential search, and a complete solve returns bit-identical
/// energy and speeds at every partition count.
///
/// With [`BnbConfig::warm_start`] the initial incumbent is the
/// [`round_up_warm`] approximation on `prep`, so the search starts with
/// a provably near-optimal bound — and a node-budget trip degrades to
/// an **anytime** result carrying that incumbent (or any improvement
/// found before the trip) rather than an error; see
/// [`ExactSolution::complete`]. Only a trip with **no** incumbent — no
/// warm start and no leaf reached — is [`SolveError::BudgetExhausted`].
///
/// The node and steal totals fold into this thread's
/// [`taskgraph::profiling`] counts, once per solve.
pub fn exact(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
    cfg: &BnbConfig,
) -> Result<ExactSolution, SolveError> {
    let ctx = SearchCtx::new(prep, deadline, modes, p)?;
    // The warm seed, as `(energy, mode indices)`, plus its certified
    // relaxation lower bound. Without one the search starts cold: it
    // still proves optimality on completion, but a budget trip then
    // has nothing to return.
    let mut cold = continuous::SweepWarm::new();
    let (seed, relax_lb) = match cfg
        .warm_start
        .then(|| round_up_warm(prep, deadline, modes, p, None, &mut cold))
    {
        Some(Ok((speeds, lb))) => {
            let energy = continuous::energy_of_speeds(prep.graph(), &speeds, p);
            (Some((energy, ctx.modes_of_speeds(&speeds))), lb)
        }
        _ => (None, 0.0),
    };
    let seed_energy = seed.as_ref().map_or(f64::INFINITY, |(e, _)| *e);

    // An empty frontier means the enumeration pruned the whole tree
    // against the seed: the seed is optimal (or nothing is feasible).
    let mut stats = BnbStats::default();
    let (depth, prefixes) =
        ctx.enumerate_frontier(cfg.target_partitions(), seed_energy, &mut stats);
    let per_budget = cfg.node_budget.div_ceil(prefixes.len().max(1) as u64);
    let (results, steals) = fan_out(cfg.workers, prefixes.len(), |i| {
        run_one(&ctx, &prefixes[i], per_budget, seed_energy)
    });

    // Lexicographic combine with strict `<`: reproduces the
    // sequential DFS's first-optimal-leaf tie-breaking exactly.
    let mut best = seed;
    let mut complete = true;
    let mut partitions = Vec::with_capacity(results.len());
    for (report, found) in results {
        complete &= report.complete;
        if let Some((e, mi)) = found {
            if best.as_ref().is_none_or(|(b, _)| e < *b) {
                best = Some((e, mi));
            }
        }
        stats.absorb(report.stats);
        partitions.push(report);
    }
    taskgraph::profiling::record(|c| {
        c.bnb_nodes += stats.nodes;
        c.bnb_steals += steals;
    });

    match best {
        Some((energy, mi)) => {
            let lower_bound = if complete {
                energy
            } else {
                relax_lb.max(ctx.root_lower_bound()).min(energy)
            };
            Ok(ExactSolution {
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
            min_makespan: ctx.min_makespan,
        }),
        None => Err(SolveError::BudgetExhausted {
            nodes: stats.nodes,
            budget: cfg.node_budget,
        }),
    }
}

/// Search one subtree of [`exact`]'s partition sweep from a clean
/// incumbent seeded at `seed_energy`, so the result depends only on
/// the arguments, never on sibling progress: the subtree's manifest
/// row, plus the best assignment found inside it as `(energy, mode
/// indices)` when it beat the seed.
fn run_one(
    ctx: &SearchCtx<'_>,
    prefix: &[usize],
    budget: u64,
    seed_energy: f64,
) -> (PartitionReport, Option<(f64, Vec<usize>)>) {
    let mut stats = BnbStats::default();
    let mut inc = Incumbent {
        energy: seed_energy,
        modes: None,
    };
    let outcome = ctx.search_subtree(prefix, budget, &mut inc, &mut stats);
    let report = PartitionReport {
        key: prefix.to_vec(),
        stats,
        complete: outcome == SubtreeOutcome::Complete,
        energy: inc.modes.as_ref().map(|_| inc.energy),
    };
    (report, inc.modes.map(|m| (inc.energy, m)))
}

/// Pseudo-polynomial DP for **chains** (single processor): discretize
/// the deadline into `resolution` slots, round every mode duration
/// *up* to the grid (so the result is always feasible), and run a
/// knapsack-style DP over (task, time-budget).
///
/// Complexity `O(n · m · resolution)`. As `resolution → ∞` the energy
/// converges to the exact optimum from above; this is the standard
/// weak-NP-hardness picture for chains.
pub fn chain_dp(
    g: &TaskGraph,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
    resolution: usize,
) -> Result<(Vec<f64>, f64), SolveError> {
    if !taskgraph::structure::is_chain(g) {
        return Err(SolveError::Unsupported("chain_dp requires a chain".into()));
    }
    continuous::check_feasible(g, deadline, Some(modes.s_max()))?;
    if resolution == 0 {
        // Bad user input is an error, not a panic.
        return Err(SolveError::Unsupported(
            "chain_dp requires a resolution of at least one slot".into(),
        ));
    }
    let n = g.n();
    let slot = deadline / resolution as f64;
    // Chain order = topological order.
    let order = topo_order(g);

    // dp[τ] = min energy to finish the processed prefix within τ slots.
    let inf = f64::INFINITY;
    let mut dp = vec![inf; resolution + 1];
    let mut choice = vec![vec![usize::MAX; resolution + 1]; n];
    dp[0] = 0.0;
    for (k, &t) in order.iter().enumerate() {
        let w = g.weight(t);
        let mut next = vec![inf; resolution + 1];
        for (j, &s) in modes.speeds().iter().enumerate() {
            let slots = ((w / s) / slot - 1e-9).ceil().max(1.0) as usize;
            if slots > resolution {
                continue;
            }
            let e = p.energy_at_speed(w, s);
            for tau in slots..=resolution {
                let cand = dp[tau - slots] + e;
                if cand < next[tau] {
                    next[tau] = cand;
                    choice[k][tau] = j;
                }
            }
        }
        dp = next;
    }
    if !dp[resolution].is_finite() {
        return Err(SolveError::Infeasible {
            deadline,
            min_makespan: g.total_work() / modes.s_max(),
        });
    }
    // Reconstruct.
    let mut speeds = vec![0.0; n];
    let mut tau = resolution;
    for k in (0..n).rev() {
        let t = order[k];
        let j = choice[k][tau];
        debug_assert_ne!(j, usize::MAX);
        let s = modes.speeds()[j];
        speeds[t.0] = s;
        let slots = ((g.weight(t) / s) / slot - 1e-9).ceil().max(1.0) as usize;
        tau -= slots;
    }
    let energy = continuous::energy_of_speeds(g, &speeds, p);
    Ok((speeds, energy))
}

/// Proposition 1(b): the rounding approximation for arbitrary mode
/// sets, with a [`continuous::SweepWarm`] chain threaded through the
/// boxed relaxation. A deadline sweep seeds each barrier solve from the
/// previous point's primal (see `continuous::solve_general_warm`),
/// which is what makes sampled Discrete energy–deadline curves cheap; a
/// point solve passes a fresh chain.
///
/// Solves the Continuous relaxation **boxed to `[s_1, s_m]`** (so the
/// relaxation optimum is a lower bound on the Discrete optimum, whose
/// speeds all lie in that box) to relative precision `1/K`, then
/// rounds each speed up to the next mode. Rounding up only shrinks
/// durations, so feasibility is preserved; each speed grows by at most
/// `1 + α/s_1`, giving the stated `(1 + α/s_1)² (1 + 1/K)²` energy
/// factor for the cubic power law.
///
/// Returns the speeds plus a certified lower bound on the Discrete
/// optimum: every discrete assignment is feasible for the boxed
/// relaxation, so the relaxation optimum lower-bounds the discrete
/// optimum, and the barrier solve is within `(1 + 1/K)^{α−1}` of the
/// relaxation optimum — `E_relaxed / (1 + 1/K)^{α−1}` is therefore a
/// valid bound. This is what prices the optimality gap of anytime
/// [`exact`] results.
pub fn round_up_warm(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
    precision_k: Option<u32>,
    warm: &mut continuous::SweepWarm,
) -> Result<(Vec<f64>, f64), SolveError> {
    round_relaxed(
        prep,
        deadline,
        (modes.m(), modes.s_min(), modes.s_max()),
        |s| modes.round_up(s),
        p,
        precision_k,
        warm,
    )
}

/// [`round_up_warm`]'s speeds from a cold barrier chain.
pub fn round_up_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
    precision_k: Option<u32>,
) -> Result<Vec<f64>, SolveError> {
    let mut cold = continuous::SweepWarm::new();
    round_up_warm(prep, deadline, modes, p, precision_k, &mut cold).map(|(speeds, _)| speeds)
}

/// The rounding scheme of Proposition 1(b) and Theorem 5, shared by
/// [`round_up_warm`] and [`crate::incremental::approx_warm`]: solve the
/// Continuous relaxation boxed to the ladder's slowest and top modes,
/// round each speed up with `round_up` (the ladder's smallest mode at
/// or above a speed), and re-check the makespan. `ladder` is
/// `(mode count, slowest mode, top mode)`; a one-mode ladder has no
/// relaxation to solve. Returns the speeds and the relaxation lower
/// bound described at [`round_up_warm`].
pub(crate) fn round_relaxed(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    (m, s_lo, s_top): (usize, f64, f64),
    round_up: impl Fn(f64) -> Option<f64>,
    p: PowerLaw,
    precision_k: Option<u32>,
    warm: &mut continuous::SweepWarm,
) -> Result<(Vec<f64>, f64), SolveError> {
    let g = prep.graph();
    let relaxed = if m == 1 {
        // Degenerate box: the only choice is the single mode.
        vec![s_lo; g.n()]
    } else {
        continuous::solve_general_warm(
            prep,
            deadline,
            Some(s_lo),
            Some(s_top),
            p,
            precision_k,
            warm,
        )?
    };
    let relax_energy = continuous::energy_of_speeds(g, &relaxed, p);
    // Discount the barrier's relative precision so the bound stays
    // below the relaxation optimum (conservative default when the
    // caller did not pin `K`).
    let k = precision_k.unwrap_or(1_000).max(1) as f64;
    let relax_lb = relax_energy / (1.0 + 1.0 / k).powf(p.alpha() - 1.0);
    let speeds: Vec<f64> = relaxed
        .iter()
        .map(|&s| round_up(s).unwrap_or(s_top))
        .collect();
    // Feasibility paranoia: rounding up can only shrink durations, but
    // verify the makespan anyway (the relaxation is numerical).
    let durations: Vec<f64> = g
        .weights()
        .iter()
        .zip(&speeds)
        .map(|(&w, &s)| w / s)
        .collect();
    let mk = prep.makespan(&durations);
    if mk > deadline * (1.0 + 1e-6) {
        return Err(SolveError::Numerical(format!(
            "rounded schedule misses the deadline ({mk} > {deadline})"
        )));
    }
    Ok((speeds, relax_lb))
}

/// Classic DVFS greedy-slowdown baseline (not from the paper — a
/// standard practical heuristic included for comparison, see
/// experiment X2).
///
/// Start from every task at the **fastest** mode, then repeatedly pick
/// the single-task slowdown (one mode step) with the largest energy
/// saving that keeps the schedule feasible, until no slowdown fits the
/// deadline. `O(n²·m)` worst case — polynomial, hence (by Theorem 4)
/// necessarily suboptimal on some instances; the experiments quantify
/// the gap against [`exact`] and [`round_up_warm`].
pub fn greedy_slowdown(
    g: &TaskGraph,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<Vec<f64>, SolveError> {
    continuous::check_feasible(g, deadline, Some(modes.s_max()))?;
    let n = g.n();
    let speeds_list = modes.speeds();
    let m = speeds_list.len();
    // Mode index per task, fastest first.
    let mut idx = vec![m - 1; n];
    let durations = |idx: &[usize]| -> Vec<f64> {
        (0..n)
            .map(|i| g.weights()[i] / speeds_list[idx[i]])
            .collect()
    };
    if taskgraph::analysis::makespan(g, &durations(&idx)) > deadline * (1.0 + 1e-12) {
        return Err(SolveError::Infeasible {
            deadline,
            min_makespan: critical_path_weight(g) / modes.s_max(),
        });
    }
    loop {
        // Best single-step slowdown.
        let mut best: Option<(usize, f64)> = None;
        let base_durs = durations(&idx);
        let slackv = taskgraph::analysis::slack(g, &base_durs, deadline);
        for i in 0..n {
            if idx[i] == 0 {
                continue;
            }
            let s_now = speeds_list[idx[i]];
            let s_next = speeds_list[idx[i] - 1];
            let extra = g.weights()[i] / s_next - g.weights()[i] / s_now;
            // Cheap necessary test first: the task's own slack.
            if extra > slackv[i] * (1.0 + 1e-12) + 1e-12 {
                continue;
            }
            let gain = p.energy_at_speed(g.weights()[i], s_now)
                - p.energy_at_speed(g.weights()[i], s_next);
            match best {
                Some((_, g0)) if g0 >= gain => {}
                _ => best = Some((i, gain)),
            }
        }
        let Some((i, _)) = best else { break };
        idx[i] -= 1;
        // The per-task slack test is exact for a single change
        // (lengthening one task by no more than its total slack keeps
        // every path within the deadline), so no rollback is needed.
        debug_assert!(
            taskgraph::analysis::makespan(g, &durations(&idx)) <= deadline * (1.0 + 1e-9)
        );
    }
    Ok(idx.into_iter().map(|j| speeds_list[j]).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::generators;

    const P: PowerLaw = PowerLaw::CUBIC;

    fn modes(v: &[f64]) -> DiscreteModes {
        DiscreteModes::new(v).unwrap()
    }

    /// [`exact`] under `cfg` on a freshly prepared graph.
    fn bnb(
        g: &TaskGraph,
        d: f64,
        ms: &DiscreteModes,
        cfg: BnbConfig,
    ) -> Result<ExactSolution, SolveError> {
        exact(&PreparedGraph::new(g), d, ms, P, &cfg)
    }

    fn round_up(
        g: &TaskGraph,
        d: f64,
        ms: &DiscreteModes,
        k: Option<u32>,
    ) -> Result<Vec<f64>, SolveError> {
        round_up_prepared(&PreparedGraph::new(g), d, ms, P, k)
    }

    #[test]
    fn exact_single_task_picks_slowest_feasible_mode() {
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0, 4.0]);
        // Deadline 2.5: speed must be ≥ 1.6 → mode 2.
        let sol = bnb(&g, 2.5, &ms, BnbConfig::default()).unwrap();
        assert_eq!(sol.speeds, vec![2.0]);
        assert!((sol.energy - 16.0).abs() < 1e-9);
        assert!(sol.complete);
        assert_eq!(sol.gap(), 0.0);
    }

    #[test]
    fn exact_two_task_chain_enumerates_combinations() {
        // Same instance as the Vdd test: best single-speed assignment
        // is (3,1) or (1,3) with energy 30.
        let g = generators::chain(&[3.0, 3.0]);
        let ms = modes(&[1.0, 3.0]);
        let sol = bnb(&g, 4.0, &ms, BnbConfig::default()).unwrap();
        assert!((sol.energy - 30.0).abs() < 1e-9, "energy {}", sol.energy);
        let mut sp = sol.speeds.clone();
        sp.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(sp, vec![1.0, 3.0]);
    }

    #[test]
    fn exact_matches_brute_force_on_diamond() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let sol = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        // Brute force all 3^4 assignments.
        let mut best = f64::INFINITY;
        let sp = ms.speeds();
        for a in 0..3 {
            for b in 0..3 {
                for c in 0..3 {
                    for e in 0..3 {
                        let speeds = [sp[a], sp[b], sp[c], sp[e]];
                        let durations: Vec<f64> = g
                            .weights()
                            .iter()
                            .zip(&speeds)
                            .map(|(&w, &s)| w / s)
                            .collect();
                        if taskgraph::analysis::makespan(&g, &durations) <= d + 1e-12 {
                            let en = continuous::energy_of_speeds(&g, &speeds, P);
                            best = best.min(en);
                        }
                    }
                }
            }
        }
        assert!(
            (sol.energy - best).abs() < 1e-9,
            "bnb {} vs brute force {}",
            sol.energy,
            best
        );
    }

    #[test]
    fn exact_dominates_continuous_relaxation() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let sol = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        let cont =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(ms.s_max()), P, None)
                .unwrap();
        let e_cont = continuous::energy_of_speeds(&g, &cont, P);
        assert!(sol.energy >= e_cont * (1.0 - 1e-9));
    }

    #[test]
    fn exact_infeasible_detected() {
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0]);
        assert!(matches!(
            bnb(&g, 1.5, &ms, BnbConfig::default()),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn round_up_is_feasible_and_within_bound() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.4, 2.0, 2.6]);
        let d = 5.0;
        let speeds = round_up(&g, d, &ms, Some(100)).unwrap();
        for &s in &speeds {
            assert!(ms.contains(s), "{s} is not a mode");
        }
        let e_alg = continuous::energy_of_speeds(&g, &speeds, P);
        let opt = bnb(&g, d, &ms, BnbConfig::default()).unwrap().energy;
        let bound = (1.0 + ms.max_gap() / ms.s_min()).powi(2) * (1.0 + 1.0 / 100.0f64).powi(2);
        assert!(
            e_alg <= opt * bound * (1.0 + 1e-6),
            "ratio {} exceeds bound {bound}",
            e_alg / opt
        );
        assert!(e_alg >= opt * (1.0 - 1e-9), "cannot beat the optimum");
    }

    #[test]
    fn round_up_bound_lower_bounds_the_optimum() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.4, 2.0, 2.6]);
        let d = 5.0;
        let mut cold = continuous::SweepWarm::new();
        let (speeds, lb) =
            round_up_warm(&PreparedGraph::new(&g), d, &ms, P, Some(1000), &mut cold).unwrap();
        let opt = bnb(&g, d, &ms, BnbConfig::default()).unwrap().energy;
        assert!(lb <= opt * (1.0 + 1e-9), "bound {lb} exceeds optimum {opt}");
        let e_alg = continuous::energy_of_speeds(&g, &speeds, P);
        assert!(lb <= e_alg, "bound must not exceed its own rounding");
        assert!(lb > 0.0);
    }

    #[test]
    fn round_up_single_mode() {
        let g = generators::chain(&[2.0, 2.0]);
        let ms = modes(&[2.0]);
        let speeds = round_up(&g, 2.0, &ms, None).unwrap();
        assert_eq!(speeds, vec![2.0, 2.0]);
        // Too tight for the single mode.
        assert!(round_up(&g, 1.5, &ms, None).is_err());
    }

    #[test]
    fn chain_dp_matches_exact_at_fine_resolution() {
        let g = generators::chain(&[3.0, 2.0, 4.0]);
        let ms = modes(&[1.0, 2.0, 3.0]);
        let d = 6.0;
        let (speeds, energy) = chain_dp(&g, d, &ms, P, 6000).unwrap();
        // Feasible.
        let durations: Vec<f64> = g
            .weights()
            .iter()
            .zip(&speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d + 1e-9);
        let exact_e = bnb(&g, d, &ms, BnbConfig::default()).unwrap().energy;
        assert!(
            energy <= exact_e * 1.02 + 1e-9 && energy >= exact_e * (1.0 - 1e-9),
            "dp {energy} vs exact {exact_e}"
        );
    }

    #[test]
    fn chain_dp_rejects_non_chains() {
        let g = generators::diamond([1.0; 4]);
        let ms = modes(&[1.0]);
        assert!(matches!(
            chain_dp(&g, 10.0, &ms, P, 100),
            Err(SolveError::Unsupported(_))
        ));
    }

    #[test]
    fn chain_dp_rejects_zero_resolution() {
        let g = generators::chain(&[3.0, 2.0]);
        let ms = modes(&[1.0, 2.0]);
        assert!(matches!(
            chain_dp(&g, 6.0, &ms, P, 0),
            Err(SolveError::Unsupported(_))
        ));
    }

    #[test]
    fn chain_dp_infeasible() {
        let g = generators::chain(&[4.0, 4.0]);
        let ms = modes(&[1.0, 2.0]);
        assert!(matches!(
            chain_dp(&g, 3.0, &ms, P, 300),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn node_budget_trip_without_incumbent_is_budget_exhausted() {
        // A partition chain large enough to exceed a tiny budget; no
        // warm start and no leaf reachable in 10 nodes → the search
        // holds nothing to return, and says so structurally (not as a
        // misclassified Numerical failure).
        let values: Vec<f64> = (0..14).map(|i| 1.0 + (i as f64) * 0.37).collect();
        let (g, d) = generators::partition_chain(&values);
        let ms = modes(&[1.0, 2.0]);
        let cfg = BnbConfig {
            node_budget: 10,
            warm_start: false,
            ..Default::default()
        };
        let res = bnb(&g, d, &ms, cfg);
        assert!(matches!(
            res,
            Err(SolveError::BudgetExhausted {
                nodes: 11,
                budget: 10
            })
        ));
    }

    #[test]
    fn node_budget_trip_with_warm_start_returns_anytime_incumbent() {
        // Same instance, warm-started: the round-up incumbent is a
        // feasible schedule the budget trip must NOT discard.
        let values: Vec<f64> = (0..14).map(|i| 1.0 + (i as f64) * 0.37).collect();
        let (g, d) = generators::partition_chain(&values);
        let ms = modes(&[1.0, 2.0]);
        let cfg = BnbConfig {
            node_budget: 10,
            ..Default::default()
        };
        let sol = bnb(&g, d, &ms, cfg).unwrap();
        assert!(!sol.complete);
        // Feasible, and no worse than the round-up seed.
        let durations: Vec<f64> = g
            .weights()
            .iter()
            .zip(&sol.speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-9));
        let seed = round_up(&g, d, &ms, None).unwrap();
        let e_seed = continuous::energy_of_speeds(&g, &seed, P);
        assert!(sol.energy <= e_seed * (1.0 + 1e-12));
        // The gap is certified: lower bound below the incumbent, and
        // below the true optimum.
        assert!(sol.lower_bound <= sol.energy);
        assert!(sol.gap() >= 0.0);
        let opt = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        assert!(opt.complete);
        assert!(sol.lower_bound <= opt.energy * (1.0 + 1e-9));
        assert!(sol.energy >= opt.energy * (1.0 - 1e-9));
    }

    #[test]
    fn frontier_enumeration_is_deterministic_and_partitions_the_space() {
        // The Bobpp-style frontier: two enumerations agree exactly,
        // and searching every subtree reproduces the sequential
        // optimum.
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let prep = PreparedGraph::new(&g);
        let ctx = SearchCtx::new(&prep, d, &ms, P).unwrap();
        let mut s1 = BnbStats::default();
        let mut s2 = BnbStats::default();
        let (d1, f1) = ctx.enumerate_frontier(4, f64::INFINITY, &mut s1);
        let (d2, f2) = ctx.enumerate_frontier(4, f64::INFINITY, &mut s2);
        assert_eq!(d1, d2);
        assert_eq!(f1, f2);
        assert_eq!(s1, s2);
        assert!(f1.len() >= 4 || d1 == g.n() - 1);

        let mut best = Incumbent {
            energy: f64::INFINITY,
            modes: None,
        };
        let mut stats = BnbStats::default();
        for prefix in &f1 {
            let out = ctx.search_subtree(prefix, u64::MAX, &mut best, &mut stats);
            assert_eq!(out, SubtreeOutcome::Complete);
        }
        let seq = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        assert!((best.energy - seq.energy).abs() < 1e-12 * seq.energy);
    }

    #[test]
    fn greedy_slowdown_is_feasible_and_dominated_by_exact() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let speeds = greedy_slowdown(&g, d, &ms, P).unwrap();
        for &s in &speeds {
            assert!(ms.contains(s));
        }
        let durations: Vec<f64> = g
            .weights()
            .iter()
            .zip(&speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        assert!(taskgraph::analysis::makespan(&g, &durations) <= d * (1.0 + 1e-9));
        let e_greedy = continuous::energy_of_speeds(&g, &speeds, P);
        let e_exact = bnb(&g, d, &ms, BnbConfig::default()).unwrap().energy;
        assert!(e_greedy >= e_exact * (1.0 - 1e-9));
    }

    #[test]
    fn greedy_slowdown_reaches_floor_on_loose_deadlines() {
        let g = generators::chain(&[1.0, 2.0]);
        let ms = modes(&[0.5, 1.0, 2.0]);
        let speeds = greedy_slowdown(&g, 100.0, &ms, P).unwrap();
        assert_eq!(speeds, vec![0.5, 0.5]);
    }

    #[test]
    fn greedy_slowdown_infeasible() {
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0]);
        assert!(matches!(
            greedy_slowdown(&g, 1.0, &ms, P),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn partition_instance_solved_exactly() {
        // {3,1,1,2,2,1}: total 10, perfect partition exists (5/5).
        let (g, d) = generators::partition_chain(&[3.0, 1.0, 1.0, 2.0, 2.0, 1.0]);
        let ms = modes(&[1.0, 2.0]);
        let sol = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        // Optimal: fast set of weight exactly 5 → energy 4·5 + 1·5 = 25.
        assert!((sol.energy - 25.0).abs() < 1e-9, "energy {}", sol.energy);
    }

    /// An 8-task DAG with a 4-mode ladder at 1.35 × the top-speed
    /// critical path: enough search for every partition count.
    fn fixture() -> (TaskGraph, f64, DiscreteModes) {
        let g = TaskGraph::new(
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
        let d = 1.35 * critical_path_weight(&g) / ms.s_max();
        (g, d, ms)
    }

    #[test]
    fn parallel_matches_sequential_exactly() {
        let (g, d, ms) = fixture();
        let seq = bnb(&g, d, &ms, BnbConfig::default()).unwrap();
        assert_eq!(seq.partitions.len(), 1, "one worker searches one tree");
        for workers in [1, 2, 4] {
            let cfg = BnbConfig {
                partitions: 4 * workers,
                ..BnbConfig::with_workers(workers)
            };
            let par = bnb(&g, d, &ms, cfg).unwrap();
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
            let a = bnb(&g, d, &ms, cfg).unwrap();
            let b = bnb(&g, d, &ms, cfg).unwrap();
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
        let sol = bnb(&g, d, &ms, cfg).unwrap();
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
        let seed = round_up(&g, d, &ms, None).unwrap();
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
            bnb(&g, d, &ms, cfg),
            Err(SolveError::BudgetExhausted { .. })
        ));
    }

    #[test]
    fn profiling_counters_fold_into_calling_thread() {
        let (g, d, ms) = fixture();
        let before = taskgraph::profiling::counts();
        let sol = bnb(&g, d, &ms, BnbConfig::with_workers(4)).unwrap();
        let delta = taskgraph::profiling::counts() - before;
        assert_eq!(delta.bnb_nodes, sol.stats.nodes);
        assert_eq!(delta.bnb_steals, sol.steals);
    }
}
