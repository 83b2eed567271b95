//! Vdd-Hopping solver (Theorem 3): polynomial time, as the CPM
//! time–cost trade-off solved by a min-cost flow.
//!
//! Under Vdd-Hopping a task may switch modes mid-execution. Given a
//! duration `d` between `w/s_{j+1}` and `w/s_j`, work `w` is cheapest
//! on those two bracketing modes (the "mix two consecutive modes"
//! remark of the paper's conclusion), so a task's energy is convex and
//! piecewise linear in its duration, with slope `−c_j` between the
//! breakpoints `w/s_{j+1}` and `w/s_j`:
//!
//! ```text
//! c_j = (s_{j+1}^{α−1} − s_j^{α−1}) / (1/s_j − 1/s_{j+1})
//! ```
//!
//! the energy saved per unit of time between modes `j` and `j+1`,
//! whatever the weight. Theorem 3's LP — minimize `Σ E_i(d_i)` under
//! the precedence rows and the deadline — is then the time–cost
//! trade-off of CPM, whose dual is a min-cost flow on the task network
//! (Fulkerson 1961; Kelley 1961):
//!
//! ```text
//! task i:       a_i → b_i, one parallel arc per mode j,
//!               length w_i/s_j, capacity c_j − c_{j−1}  (c_0 = 0, c_m = ∞)
//! s → a_i, b_i → t, b_u → a_v for (u, v) ∈ Ê:  length 0, uncapacitated
//!
//! E*(D) = Σ_i w_i·s_1^{α−1} + max over s–t flows f of (Σ length·f − D·|f|)
//! ```
//!
//! Successive longest augmenting paths solve it: a Dijkstra on
//! reduced lengths that stops once the sink is settled, then
//! fewest-arc augmentations along the longest paths. The phases carry
//! flows `δ_k` along falling lengths `ℓ_1 > ℓ_2 > …`, so
//! `E*(D) = E_0 + Σ_k δ_k·max(0, ℓ_k − D)`: the augmentation record is
//! the exact energy–deadline curve, and a point solve stops at the
//! first `ℓ_k ≤ D`. The optimal event times are the flow's node
//! potentials: task `i` starts at `τ(a_i)` and runs for
//! `τ(b_i) − τ(a_i)` on the two modes bracketing its speed. By
//! complementary slackness that schedule's energy equals the flow's
//! objective, and every debug-build solve asserts it.
//!
//! [`adjacent_mix`] is the *heuristic* the conclusion contrasts with:
//! take the continuous optimum and emulate each continuous speed by
//! mixing its two bracketing modes, keeping per-task durations. It is
//! always feasible but not always optimal, because the exact solver can
//! also *rebalance durations between tasks* — experiment F4 quantifies
//! the gap.

use crate::continuous;
use crate::engine::{CurveEnergy, CurveSegment};
use crate::error::SolveError;
use models::{DiscreteModes, PowerLaw, Schedule, SpeedProfile};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use taskgraph::{PreparedGraph, TaskGraph, TaskId};

/// Event times closer than this fraction of the time horizon count as
/// equal, so rounding neither flags a respected arc as violated nor
/// splits one augmentation length in two.
const TIME_TOL: f64 = 1e-12;

/// A residual capacity at or below this fraction of the finite
/// capacities' sum counts as saturated.
const CAP_TOL: f64 = 1e-12;

/// No arc.
const NONE: u32 = u32::MAX;

/// Solve Vdd-Hopping exactly (Theorem 3): the schedule of
/// [`solve_lp_warm`] without its warm handle.
///
/// Returns the optimal schedule (piecewise-constant speed profiles and
/// explicit start times taken from the flow's node potentials). The
/// transitive reduction and critical path come from the shared cache
/// instead of being re-derived per call.
pub fn solve_lp_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<Schedule, SolveError> {
    solve_lp_warm(prep, deadline, modes, p).map(|(sched, _)| sched)
}

/// The retained min-cost flow of one Vdd-Hopping instance — its task
/// network, flow, node potentials and augmentation record — behind
/// deadline sweeps, edited re-solves and exact curves, all driven
/// through [`crate::engine::Engine::solve_warm`] and
/// [`crate::engine::Engine::energy_curve_exact_warm`].
///
/// Capacities depend only on the mode ladder and `α`, lengths only on
/// the weights, and the deadline is the length of a return arc
/// `t → s`. So the retained flow stays feasible under any weight or
/// deadline change, and [`VddWarm::resolve`] only repairs it: it
/// saturates the arcs the change made profitable (moving events along
/// uncapacitated ones), routes the resulting imbalances along longest
/// residual paths, then augments or drains until the event times meet
/// the deadline. The record depends on the lengths alone: a
/// deadline change keeps it, a weight change drops it.
///
/// The handle is tied to the task set and the transitively reduced
/// precedence it was built over ([`crate::engine::vdd_basis_survives`]
/// decides); offered another structure, it reports itself spent.
pub struct VddWarm {
    modes: DiscreteModes,
    power: PowerLaw,
    /// The weights the task arcs' lengths come from.
    weights: Vec<f64>,
    /// Capacity of every task's mode-`j` arc.
    kappa: Vec<f64>,
    /// Arc `e` and its reverse `e ^ 1`: head node, length and residual
    /// capacity. Task arcs come first (task-major), then `s → a_i`,
    /// `b_i → t`, the reduced edges in canonical order, and last the
    /// return arc `t → s`.
    head: Vec<u32>,
    len: Vec<f64>,
    res: Vec<f64>,
    /// Node `v`'s out-arcs are `adj[first[v]..first[v + 1]]`. Nodes are
    /// `a_i = 2i`, `b_i = 2i + 1`, then `s` and `t`. The return pair is
    /// left out: only the searches that meet a deadline visit it.
    first: Vec<u32>,
    adj: Vec<u32>,
    /// Node potentials: every residual arc but the return pair respects
    /// them; once a deadline is met they are the event times.
    tau: Vec<f64>,
    /// `(ℓ_k, δ_k)` of every augmentation phase from zero flow.
    record: Vec<(f64, f64)>,
    /// The record holds the whole curve for deadlines from here up
    /// (`∞`: no record).
    floor: f64,
    /// The longest path at `s_1`, the scale of the time tolerance.
    horizon: f64,
    /// Residual capacities at or below this count as saturated.
    cap_tol: f64,
}

/// The one Vdd-Hopping solve: the optimal schedule plus a [`VddWarm`]
/// handle that can re-solve the instance after weight and/or deadline
/// changes without a cold solve.
pub fn solve_lp_warm(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<(Schedule, VddWarm), SolveError> {
    continuous::check_feasible_prepared(prep, deadline, Some(modes.s_max()))?;
    let mut warm = VddWarm::new(prep, modes, p);
    warm.augment_from_zero(prep.topo(), deadline);
    let sched = warm.settle(prep, deadline)?;
    Ok((sched, warm))
}

/// The bytes of the arrays a [`VddWarm`] over `prep` and `modes`
/// holds: what a cache charges for the handle an entry's first
/// Vdd-Hopping solve parks, before that solve runs. The augmentation
/// record, which grows with the solves, is left out.
pub fn warm_bytes(prep: &PreparedGraph<'_>, modes: &DiscreteModes) -> usize {
    let (n, m) = (prep.graph().n(), modes.m());
    let arcs = arc_count(n, m, prep.reduced().m());
    // Per arc: head and adj (u32), len and res (f64). Per node: first
    // (u32) and tau (f64). Per task its weight, per mode its speed and
    // capacity.
    24 * arcs + 12 * (2 * n + 2) + 8 * n + 16 * m
}

/// Arcs of the task network over `n` tasks, `m` modes and `reduced`
/// reduced edges, reverse arcs included.
fn arc_count(n: usize, m: usize, reduced: usize) -> usize {
    2 * (n * m + 2 * n + reduced + 1)
}

/// Reusable buffers of the shortest-path searches.
#[derive(Default)]
struct Search {
    dist: Vec<f64>,
    pred: Vec<u32>,
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    queue: VecDeque<u32>,
}

impl VddWarm {
    /// Build the task network of `prep` at zero flow.
    pub(crate) fn new(prep: &PreparedGraph<'_>, modes: &DiscreteModes, power: PowerLaw) -> VddWarm {
        let (g, speeds) = (prep.graph(), modes.speeds());
        let (n, m) = (g.n(), speeds.len());
        let rate = |s: f64| power.energy_at_speed(1.0, s);
        let mut kappa = Vec::with_capacity(m);
        let mut below = 0.0;
        for (j, &s) in speeds.iter().enumerate() {
            let c = match speeds.get(j + 1) {
                Some(&up) => (rate(up) - rate(s)) / (1.0 / s - 1.0 / up),
                None => f64::INFINITY,
            };
            kappa.push(c - below);
            below = c;
        }
        let (s, t, inf) = (2 * n, 2 * n + 1, f64::INFINITY);
        let edges = prep.reduced().edges();
        let arcs = arc_count(n, m, edges.len());
        let (mut head, mut len, mut res) = (
            Vec::with_capacity(arcs),
            Vec::with_capacity(arcs),
            Vec::with_capacity(arcs),
        );
        let mut arc = |u: usize, v: usize, l: f64, cap: f64| {
            head.extend([v as u32, u as u32]);
            len.extend([l, -l]);
            res.extend([cap, 0.0]);
        };
        for (i, &w) in g.weights().iter().enumerate() {
            for (&sj, &cap) in speeds.iter().zip(&kappa) {
                arc(2 * i, 2 * i + 1, w / sj, cap);
            }
        }
        (0..n).for_each(|i| arc(s, 2 * i, 0.0, inf));
        (0..n).for_each(|i| arc(2 * i + 1, t, 0.0, inf));
        for &(u, v) in edges {
            arc(2 * u.0 + 1, 2 * v.0, 0.0, inf);
        }
        arc(t, s, 0.0, inf);
        let nodes = 2 * n + 2;
        let paired = head.len() - 2;
        let mut first = vec![0u32; nodes + 1];
        for e in 0..paired {
            first[head[e ^ 1] as usize + 1] += 1;
        }
        for v in 0..nodes {
            first[v + 1] += first[v];
        }
        let mut fill = first.clone();
        let mut adj = vec![0u32; paired];
        for e in 0..paired {
            let u = head[e ^ 1] as usize;
            adj[fill[u] as usize] = e as u32;
            fill[u] += 1;
        }
        VddWarm {
            modes: modes.clone(),
            power,
            weights: g.weights().to_vec(),
            cap_tol: CAP_TOL * kappa[..m - 1].iter().sum::<f64>(),
            kappa,
            head,
            len,
            res,
            first,
            adj,
            tau: vec![0.0; nodes],
            record: Vec::new(),
            floor: f64::INFINITY,
            horizon: 0.0,
        }
    }

    /// Re-solve against `prep`'s (possibly edited) weights and a new
    /// deadline, starting from the retained flow and potentials.
    ///
    /// `prep` must describe the same task set and reduced precedence
    /// the handle was built over — weight-only edits qualify. Errors
    /// other than [`SolveError::Infeasible`] mean the handle cannot
    /// serve `prep` (another structure, or a repair that did not
    /// converge); it is then spent and the caller should solve cold.
    pub fn resolve(
        &mut self,
        prep: &PreparedGraph<'_>,
        deadline: f64,
    ) -> Result<Schedule, SolveError> {
        self.fits(prep)?;
        continuous::check_feasible_prepared(prep, deadline, Some(self.modes.s_max()))?;
        let changed = self.set_lengths(prep.graph());
        self.repair(&changed)?;
        self.settle(prep, deadline)
    }

    /// The mode ladder the handle was built over.
    pub fn modes(&self) -> &DiscreteModes {
        &self.modes
    }

    /// The **exact** energy–deadline curve `E*(D)` for
    /// `D ∈ [d_lo, d_hi]`, read off the augmentation record: one affine
    /// segment between consecutive augmentation lengths (zero-width
    /// slivers and slopes equal to 1e-9 merged away). A record that does
    /// not reach `d_lo` (or none, after a weight change) is rebuilt first
    /// by augmenting from zero flow down to `d_lo`, which leaves the
    /// handle optimal there and still usable.
    ///
    /// Errors: [`SolveError::Infeasible`] when `d_lo` is below the
    /// instance's minimum makespan; [`SolveError::Numerical`] when the
    /// handle was built over another structure.
    pub fn deadline_ray(
        &mut self,
        prep: &PreparedGraph<'_>,
        d_lo: f64,
        d_hi: f64,
    ) -> Result<Vec<CurveSegment>, SolveError> {
        self.fits(prep)?;
        continuous::check_feasible_prepared(prep, d_lo, Some(self.modes.s_max()))?;
        self.set_lengths(prep.graph());
        if self.floor > d_lo {
            self.augment_from_zero(prep.topo(), d_lo);
        }
        // Deadlines in (ℓ_k, ℓ_{k−1}] keep phases 0..k active, with
        // energy a − b·D from the prefix sums (a, b) of (δ·ℓ, δ).
        let active = self.record.iter().take_while(|&&(l, _)| l > d_lo).count();
        let mut prefix = Vec::with_capacity(active + 1);
        let (mut a, mut b) = (self.base_energy(), 0.0);
        prefix.push((a, b));
        for &(l, f) in &self.record[..active] {
            a += f * l;
            b += f;
            prefix.push((a, b));
        }
        let mut segments = Vec::new();
        let mut lo = d_lo;
        for k in (0..=active).rev() {
            let hi = match k {
                0 => d_hi,
                _ => self.record[k - 1].0.min(d_hi),
            };
            let (a, b) = prefix[k];
            merge_segment(&mut segments, d_lo, lo, hi, a, -b);
            lo = hi;
            if lo >= d_hi {
                break;
            }
        }
        Ok(segments)
    }

    /// `Ok` when the handle's network is `prep`'s: the same task count
    /// and the same reduced edge sequence.
    fn fits(&self, prep: &PreparedGraph<'_>) -> Result<(), SolveError> {
        let n = self.weights.len();
        let edges = prep.reduced().edges();
        let held = &self.head[2 * n * (self.kappa.len() + 2)..self.head.len() - 2];
        let same = prep.graph().n() == n
            && held.len() == 2 * edges.len()
            && edges
                .iter()
                .zip(held.chunks(2))
                .all(|(&(u, v), arc)| arc == [2 * v.0 as u32, 2 * u.0 as u32 + 1]);
        if same {
            Ok(())
        } else {
            Err(SolveError::Numerical(format!(
                "the warm Vdd network was built over another task graph ({n} tasks, {} reduced edges)",
                held.len() / 2
            )))
        }
    }

    /// Move the task arcs onto `g`'s weights. Returns the tasks whose
    /// weight changed; any change drops the record.
    fn set_lengths(&mut self, g: &TaskGraph) -> Vec<usize> {
        let m = self.kappa.len();
        let mut changed = Vec::new();
        for (i, &w) in g.weights().iter().enumerate() {
            if w.to_bits() == self.weights[i].to_bits() {
                continue;
            }
            self.weights[i] = w;
            for (j, &sj) in self.modes.speeds().iter().enumerate() {
                let e = 2 * (i * m + j);
                self.len[e] = w / sj;
                self.len[e + 1] = -(w / sj);
            }
            changed.push(i);
            self.record.clear();
            self.floor = f64::INFINITY;
        }
        changed
    }

    /// Reset to zero flow and augment along longest residual `s`–`t`
    /// paths until the longest is no longer than `d`, recording each
    /// phase's length and flow.
    fn augment_from_zero(&mut self, topo: &[TaskId], d: f64) {
        let n = self.weights.len();
        let m = self.kappa.len();
        for k in 0..self.res.len() / 2 {
            self.res[2 * k] = if k < n * m {
                self.kappa[k % m]
            } else {
                f64::INFINITY
            };
            self.res[2 * k + 1] = 0.0;
        }
        // At zero flow the residual network is the DAG itself: one
        // pass in topological order gives the longest distances.
        let (s, t) = (2 * n, 2 * n + 1);
        self.tau.fill(f64::NEG_INFINITY);
        self.tau[s] = 0.0;
        for v in std::iter::once(s).chain(topo.iter().flat_map(|x| [2 * x.0, 2 * x.0 + 1])) {
            for k in self.first[v] as usize..self.first[v + 1] as usize {
                let e = self.adj[k] as usize;
                let w = self.head[e] as usize;
                if self.live(e) && self.tau[v] + self.len[e] > self.tau[w] {
                    self.tau[w] = self.tau[v] + self.len[e];
                }
            }
        }
        self.horizon = self.tau[t];
        self.record.clear();
        let mut search = Search::default();
        self.floor = loop {
            let ell = self.longest_path(&mut search);
            if ell <= d {
                break ell;
            }
            match self.augment_longest(&mut search) {
                Some(flow) => self.record.push((ell, flow)),
                // An uncapacitated path: ℓ is the minimum makespan.
                None => break ell,
            }
        };
    }

    /// Make the potentials the longest residual distances from `s`
    /// (return pair excluded) and return the longest `s`–`t` length.
    fn longest_path(&mut self, search: &mut Search) -> f64 {
        let t = self.tau.len() - 1;
        self.dijkstra(&[t - 1], |v| v == t, false, search);
        self.tau[t] - self.tau[t - 1]
    }

    /// Dijkstra on the reduced lengths `τ(w) − τ(v) − len ≥ 0` from
    /// `sources` (at distance 0) until a node `is_sink` accepts is
    /// settled, over the residual arcs (the return pair only
    /// `with_return`). The potentials then drop by each node's distance,
    /// capped at the sink's, which keeps every residual arc's reduced
    /// length non-negative and makes the search tree's arcs tight.
    /// Returns the sink, its tree path left in `search.pred`.
    fn dijkstra(
        &mut self,
        sources: &[usize],
        is_sink: impl Fn(usize) -> bool,
        with_return: bool,
        search: &mut Search,
    ) -> Option<usize> {
        let nodes = self.tau.len();
        let (s, t, ret) = (nodes - 2, nodes - 1, self.head.len() - 2);
        let Search {
            dist, pred, heap, ..
        } = search;
        dist.clear();
        dist.resize(nodes, f64::INFINITY);
        pred.clear();
        pred.resize(nodes, NONE);
        heap.clear();
        for &v in sources {
            dist[v] = 0.0;
            // Non-negative distances order like their bit patterns;
            // ties settle the lower node first.
            heap.push(Reverse((0, v as u32)));
        }
        let mut sink = None;
        while let Some(Reverse((key, u))) = heap.pop() {
            let (du, u) = (f64::from_bits(key), u as usize);
            if du > dist[u] {
                continue;
            }
            if is_sink(u) {
                sink = Some(u);
                break;
            }
            let (lo, hi) = (self.first[u] as usize, self.first[u + 1] as usize);
            for k in lo..=hi {
                // One slot past the node's own arcs: its return arc.
                let e = match k {
                    _ if k < hi => self.adj[k] as usize,
                    _ if with_return && u == t => ret,
                    _ if with_return && u == s => ret ^ 1,
                    _ => break,
                };
                if !self.live(e) {
                    continue;
                }
                let w = self.head[e] as usize;
                let slack = self.tau[w] - self.tau[u] - self.len[e];
                let cand = if slack > 0.0 { du + slack } else { du };
                if cand < dist[w] {
                    dist[w] = cand;
                    pred[w] = e as u32;
                    heap.push(Reverse((cand.to_bits(), w as u32)));
                }
            }
        }
        if let Some(v) = sink {
            let cap = dist[v];
            for (p, &dv) in self.tau.iter_mut().zip(dist.iter()) {
                *p -= dv.min(cap);
            }
        }
        sink
    }

    /// Maximum flow along the longest `s`–`t` paths (the residual arcs
    /// the potentials make tight), by fewest-arc augmentations, so the
    /// augmentation count is bounded by the network, not by the
    /// capacities. `None` when one of those paths is uncapacitated.
    fn augment_longest(&mut self, search: &mut Search) -> Option<f64> {
        let t = self.tau.len() - 1;
        let s = t - 1;
        let ret = self.head.len() - 2;
        let tol = TIME_TOL * self.horizon;
        let Search { pred, queue, .. } = search;
        let mut total = 0.0;
        loop {
            pred.clear();
            pred.resize(self.tau.len(), NONE);
            queue.clear();
            queue.push_back(s as u32);
            'search: while let Some(u) = queue.pop_front() {
                let u = u as usize;
                for k in self.first[u] as usize..self.first[u + 1] as usize {
                    let e = self.adj[k] as usize;
                    let w = self.head[e] as usize;
                    if w == s
                        || pred[w] != NONE
                        || !self.live(e)
                        || self.tau[w] - self.tau[u] - self.len[e] > tol
                    {
                        continue;
                    }
                    pred[w] = e as u32;
                    if w == t {
                        break 'search;
                    }
                    queue.push_back(w as u32);
                }
            }
            if pred[t] == NONE {
                return Some(total);
            }
            let amount = self.path_bottleneck(pred, t);
            if amount == f64::INFINITY {
                return None;
            }
            self.push_path(pred, t, amount);
            // The return arc carries the flow back to s.
            self.res[ret ^ 1] += amount;
            total += amount;
        }
    }

    /// Restore the potentials across the arcs of the `changed` tasks:
    /// a task that no longer fits its window at top speed pushes later
    /// events (saturating the capacitated arcs in the way), every other
    /// violated arc is saturated, and the imbalances this leaves are
    /// routed back. The flow then has no positive residual cycle apart
    /// from the return pair.
    fn repair(&mut self, changed: &[usize]) -> Result<(), SolveError> {
        if changed.is_empty() {
            return Ok(());
        }
        let m = self.kappa.len();
        let eps = TIME_TOL * self.horizon;
        let mut excess = vec![0.0; self.tau.len()];
        for &i in changed {
            let (a, b) = (2 * i, 2 * i + 1);
            let need = self.tau[a] + self.len[2 * (i * m + m - 1)];
            if need > self.tau[b] + eps {
                self.raise(b, need, &mut excess);
            }
            for e in 2 * i * m..2 * (i + 1) * m {
                if self.res[e].is_finite() && self.violated(e, eps) {
                    self.saturate(e, &mut excess);
                }
            }
        }
        self.route(&mut excess, false)
    }

    /// Raise `τ(v0)` to `value`, and along every uncapacitated residual
    /// arc the rise violates, its head too; a capacitated arc it
    /// violates is saturated instead.
    fn raise(&mut self, v0: usize, value: f64, excess: &mut [f64]) {
        let eps = TIME_TOL * self.horizon;
        let mut stack = vec![(v0, value)];
        while let Some((v, value)) = stack.pop() {
            if value <= self.tau[v] + eps {
                continue;
            }
            self.tau[v] = value;
            for k in self.first[v] as usize..self.first[v + 1] as usize {
                let e = self.adj[k] as usize;
                if !self.violated(e, eps) {
                    continue;
                }
                if self.res[e].is_finite() {
                    self.saturate(e, excess);
                } else {
                    stack.push((self.head[e] as usize, self.tau[v] + self.len[e]));
                }
            }
        }
    }

    /// Meet deadline `d`: augment while a longest path exceeds it; then,
    /// if the flow's event times end before it, take the flow off the
    /// return arc and route it back, which drains every flow path
    /// shorter than `d` and stretches the times to `d`.
    fn meet_deadline(&mut self, d: f64) -> Result<(), SolveError> {
        let nodes = self.tau.len();
        let (s, t, ret) = (nodes - 2, nodes - 1, self.head.len() - 2);
        self.len[ret] = -d;
        self.len[ret ^ 1] = d;
        let eps = TIME_TOL * self.horizon.max(d);
        if self.tau[t] - self.tau[s] > d + eps {
            let mut search = Search::default();
            while self.longest_path(&mut search) > d {
                if self.augment_longest(&mut search).is_none() {
                    break;
                }
            }
        }
        if self.live(ret ^ 1) && self.tau[t] - self.tau[s] < d - eps {
            let mut excess = vec![0.0; nodes];
            self.saturate(ret ^ 1, &mut excess);
            self.route(&mut excess, true)?;
        }
        let shift = self.tau[s];
        for x in &mut self.tau {
            *x -= shift;
        }
        Ok(())
    }

    /// Successive shortest paths from surplus to deficit nodes on the
    /// reduced lengths (the return pair only `with_return`), until no
    /// imbalance is left.
    fn route(&mut self, excess: &mut [f64], with_return: bool) -> Result<(), SolveError> {
        let tol = self.cap_tol;
        let mut search = Search::default();
        for _ in 0..4 * self.head.len() {
            let sources: Vec<usize> = (0..excess.len()).filter(|&v| excess[v] > tol).collect();
            if sources.is_empty() {
                return Ok(());
            }
            let Some(sink) =
                self.dijkstra(&sources, |v| excess[v] < -tol, with_return, &mut search)
            else {
                break;
            };
            let mut source = sink;
            while search.pred[source] != NONE {
                source = self.head[search.pred[source] as usize ^ 1] as usize;
            }
            let amount = self
                .path_bottleneck(&search.pred, sink)
                .min(excess[source])
                .min(-excess[sink]);
            self.push_path(&search.pred, sink, amount);
            excess[source] -= amount;
            excess[sink] += amount;
        }
        Err(SolveError::Numerical(
            "the warm Vdd flow could not be repaired".into(),
        ))
    }

    /// The smallest residual capacity on the search-tree path to `v`.
    fn path_bottleneck(&self, pred: &[u32], mut v: usize) -> f64 {
        let mut amount = f64::INFINITY;
        while pred[v] != NONE {
            let e = pred[v] as usize;
            amount = amount.min(self.res[e]);
            v = self.head[e ^ 1] as usize;
        }
        amount
    }

    /// Push `amount` along the search-tree path to `v`.
    fn push_path(&mut self, pred: &[u32], mut v: usize, amount: f64) {
        while pred[v] != NONE {
            let e = pred[v] as usize;
            self.res[e] -= amount;
            self.res[e ^ 1] += amount;
            v = self.head[e ^ 1] as usize;
        }
    }

    /// Push arc `e`'s whole residual capacity, leaving the imbalance in
    /// `excess`.
    fn saturate(&mut self, e: usize, excess: &mut [f64]) {
        let amount = std::mem::take(&mut self.res[e]);
        self.res[e ^ 1] += amount;
        excess[self.head[e ^ 1] as usize] -= amount;
        excess[self.head[e] as usize] += amount;
    }

    /// Whether residual arc `e` wants its head later than it is.
    fn violated(&self, e: usize, eps: f64) -> bool {
        let (u, w) = (self.head[e ^ 1] as usize, self.head[e] as usize);
        self.live(e) && self.tau[u] + self.len[e] > self.tau[w] + eps
    }

    fn live(&self, e: usize) -> bool {
        self.res[e] > self.cap_tol
    }

    /// `E_0 = Σ_i w_i·s_1^{α−1}`: every task flat at the slowest mode.
    fn base_energy(&self) -> f64 {
        let rate = self.power.energy_at_speed(1.0, self.modes.s_min());
        self.weights.iter().map(|&w| w * rate).sum()
    }

    /// Meet `deadline`, then read the schedule off the event times.
    fn settle(&mut self, prep: &PreparedGraph<'_>, deadline: f64) -> Result<Schedule, SolveError> {
        // Inside the feasibility check's tolerance below the minimum
        // makespan, schedule at the minimum makespan.
        let d = deadline.max(prep.critical_path_weight() / self.modes.s_max());
        self.meet_deadline(d)?;
        let sched = self.schedule(prep.graph());
        #[cfg(debug_assertions)]
        self.check_duality(prep.graph(), &sched);
        Ok(sched)
    }

    /// Task `i` starts at `τ(a_i)` and runs for `τ(b_i) − τ(a_i)`,
    /// clamped to `[w_i/s_m, w_i/s_1]`, on the two modes bracketing its
    /// speed.
    fn schedule(&self, g: &TaskGraph) -> Schedule {
        let (s_lo, s_hi) = (self.modes.s_min(), self.modes.s_max());
        let (starts, profiles): (Vec<f64>, Vec<SpeedProfile>) = g
            .weights()
            .iter()
            .enumerate()
            .map(|(i, &w)| {
                let (a, b) = (self.tau[2 * i], self.tau[2 * i + 1]);
                let d = (b - a).clamp(w / s_hi, w / s_lo);
                let speed = (w / d).clamp(s_lo, s_hi);
                (a.max(0.0), two_mode_profile(w, speed, d, &self.modes))
            })
            .unzip();
        Schedule::new(starts, profiles)
    }

    /// The duality certificate: the schedule's energy equals the
    /// flow's objective `E_0 + Σ length·f` (the return arc's length is
    /// `−D`).
    #[cfg(debug_assertions)]
    fn check_duality(&self, g: &TaskGraph, sched: &Schedule) {
        let primal = sched.energy(g, self.power);
        let dual = self.base_energy()
            + (0..self.len.len())
                .step_by(2)
                .map(|e| self.len[e] * self.res[e ^ 1])
                .sum::<f64>();
        assert!(
            (primal - dual).abs() <= 1e-9 * primal.abs(),
            "Vdd duality gap: schedule energy {primal} vs flow objective {dual}"
        );
    }
}

/// Append the affine segment `E(D) = a + b·D` on `[lo, hi]` to a curve
/// that starts at `d_lo`, with the merge rules of a parametric walk:
/// a zero-width sliver widens the previous segment, a slope equal to
/// the previous one (to 1e-9 relative) extends it, and a first segment
/// of zero width gives way to the next.
fn merge_segment(out: &mut Vec<CurveSegment>, d_lo: f64, lo: f64, hi: f64, a: f64, b: f64) {
    let seg = CurveSegment {
        deadline_lo: lo,
        deadline_hi: hi,
        energy: CurveEnergy::Affine { a, b },
    };
    let Some(last) = out.last_mut() else {
        out.push(seg);
        return;
    };
    let CurveEnergy::Affine { b: last_b, .. } = last.energy else {
        unreachable!("Vdd segments are affine")
    };
    if hi <= lo + 1e-12 * (1.0 + (lo - d_lo).abs()) {
        last.deadline_hi = last.deadline_hi.max(hi);
    } else if last.deadline_hi <= last.deadline_lo {
        *last = seg;
    } else if (last_b - b).abs() <= 1e-9 * (1.0 + b.abs()) {
        last.deadline_hi = hi;
    } else {
        out.push(seg);
    }
}

/// Run work `w` for duration `d` (speed `speed = w/d`) on the two
/// modes that bracket `speed`, or flat at `s_1` when `speed` is below
/// it: the one two-mode rule of [`adjacent_mix`] and the exact
/// solver's schedules.
fn two_mode_profile(w: f64, speed: f64, d: f64, modes: &DiscreteModes) -> SpeedProfile {
    match modes.bracket(speed) {
        // Below the slowest mode: run flat at s_1.
        None => SpeedProfile::Constant(modes.s_min()),
        Some((lo, hi)) if (hi - lo).abs() <= 1e-12 * (1.0 + hi) => SpeedProfile::Constant(lo),
        Some((lo, hi)) => {
            // x_hi·hi + (d − x_hi)·lo = w  ⇒  x_hi = (w − lo·d)/(hi − lo)
            let x_hi = (w - lo * d) / (hi - lo);
            let x_lo = d - x_hi;
            debug_assert!(x_hi >= -1e-9 && x_lo >= -1e-9);
            SpeedProfile::Pieces(vec![(lo, x_lo.max(0.0)), (hi, x_hi.max(0.0))])
        }
    }
}

/// The adjacent-mode-mix heuristic (ablation F4).
///
/// Solve the Continuous model with `s_max = s_m`, then execute each
/// task for the same duration `d_i = w_i / s_i^*` by mixing the two
/// modes bracketing `s_i^*` (time split chosen so the work completes
/// exactly). Tasks whose continuous speed falls below `s_1` run at
/// `s_1` (finishing early — still feasible).
///
/// Because every task keeps (or shrinks) its continuous duration, the
/// continuous schedule's start times remain feasible.
pub fn adjacent_mix(
    g: &TaskGraph,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<Schedule, SolveError> {
    let prep = PreparedGraph::new(g);
    let speeds = continuous::solve_dispatched(&prep, deadline, Some(modes.s_max()), p, None)?;
    let profiles = g
        .weights()
        .iter()
        .zip(&speeds)
        .map(|(&w, &s_star)| two_mode_profile(w, s_star, w / s_star, modes))
        .collect();
    Ok(Schedule::asap_from_profiles(g, profiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ExactCurve;
    use models::EnergyModel;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use taskgraph::generators;

    const P: PowerLaw = PowerLaw::CUBIC;

    fn modes(v: &[f64]) -> DiscreteModes {
        DiscreteModes::new(v).unwrap()
    }

    fn solve_lp(
        g: &TaskGraph,
        d: f64,
        ms: &DiscreteModes,
        p: PowerLaw,
    ) -> Result<Schedule, SolveError> {
        solve_lp_prepared(&PreparedGraph::new(g), d, ms, p)
    }

    fn curve(segments: Vec<CurveSegment>) -> ExactCurve {
        ExactCurve {
            segments,
            exact: true,
            stats: Default::default(),
        }
    }

    fn rel_gap(a: f64, b: f64) -> f64 {
        (a - b).abs() / b.abs()
    }

    fn warm_for(prep: &PreparedGraph<'_>, ms: &DiscreteModes) -> VddWarm {
        let d = 1.5 * prep.critical_path_weight() / ms.s_max();
        solve_lp_warm(prep, d, ms, P).unwrap().1
    }

    #[test]
    fn single_task_mixes_bracketing_modes() {
        // One task, w = 3, modes {1, 2}, deadline 2: continuous optimum
        // is speed 1.5; Vdd mixes modes 1 and 2 with one time unit
        // each: energy 1³·1 + 2³·1 = 9 < 2²·3 = 12 (all-fast).
        let g = generators::chain(&[3.0]);
        let ms = modes(&[1.0, 2.0]);
        let sched = solve_lp(&g, 2.0, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), 2.0)
            .unwrap();
        let e = sched.energy(&g, P);
        assert!((e - 9.0).abs() < 1e-6, "energy {e}");
    }

    #[test]
    fn lp_beats_or_matches_discrete_single_speeds() {
        // Chain of two tasks, modes {1, 3}, deadline 4, weights 3 and 3.
        // Discrete options are limited; Vdd can mix.
        let g = generators::chain(&[3.0, 3.0]);
        let ms = modes(&[1.0, 3.0]);
        let sched = solve_lp(&g, 4.0, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), 4.0)
            .unwrap();
        let e_vdd = sched.energy(&g, P);
        // Best single-speed-per-task assignment: speeds (3,1): time
        // 1+3=4 ok, energy 9·3+1·3 = 30; (1,3) symmetric 30; (3,3):
        // energy 54; (1,1): time 6 > 4 infeasible. So discrete best 30.
        assert!(e_vdd <= 30.0 + 1e-6);
        // Continuous lower bound: speed 6/4 = 1.5, E = 2.25·6 = 13.5.
        assert!(e_vdd >= 13.5 - 1e-6);
    }

    #[test]
    fn vdd_energy_between_continuous_and_discrete_bounds() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let sched = solve_lp(&g, d, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
            .unwrap();
        let e_vdd = sched.energy(&g, P);
        let cont =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(ms.s_max()), P, None)
                .unwrap();
        let e_cont = continuous::energy_of_speeds(&g, &cont, P);
        assert!(
            e_vdd >= e_cont * (1.0 - 1e-6),
            "vdd {e_vdd} must dominate continuous {e_cont}"
        );
    }

    #[test]
    fn infeasible_deadline() {
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0]);
        assert!(matches!(
            solve_lp(&g, 1.0, &ms, P),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn exact_mode_speed_uses_single_piece() {
        // Deadline exactly w/s for mode 2: the single mode is optimal.
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0, 4.0]);
        let sched = solve_lp(&g, 2.0, &ms, P).unwrap();
        let e = sched.energy(&g, P);
        // Optimal: speed 2 for 2 time units → 8·2 = 16? Mixing 1 and 4
        // for durations a+b=2, a+4b=4 → b=2/3, a=4/3: energy
        // 1·4/3 + 64·2/3 = 44 — worse. So 16.
        assert!((e - 16.0).abs() < 1e-6, "energy {e}");
    }

    #[test]
    fn adjacent_mix_is_feasible_and_dominates_lp() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let heur = adjacent_mix(&g, d, &ms, P).unwrap();
        heur.validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
            .unwrap();
        let e_heur = heur.energy(&g, P);
        let e_lp = solve_lp(&g, d, &ms, P).unwrap().energy(&g, P);
        assert!(
            e_heur >= e_lp * (1.0 - 1e-6),
            "heuristic {e_heur} cannot beat the LP {e_lp}"
        );
        // And the heuristic is within the bracketing bound of the
        // continuous optimum (mixing is convex interpolation).
        let cont =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(ms.s_max()), P, None)
                .unwrap();
        let e_cont = continuous::energy_of_speeds(&g, &cont, P);
        assert!(e_heur >= e_cont * (1.0 - 1e-6));
    }

    #[test]
    fn adjacent_mix_below_smin_runs_at_s1() {
        // Very loose deadline: continuous optimum is slower than s_1.
        let g = generators::chain(&[1.0]);
        let ms = modes(&[1.0, 2.0]);
        let sched = adjacent_mix(&g, 100.0, &ms, P).unwrap();
        match sched.profile(taskgraph::TaskId(0)) {
            SpeedProfile::Constant(s) => assert_eq!(*s, 1.0),
            other => panic!("expected constant profile, got {other:?}"),
        }
        sched
            .validate(&g, &EnergyModel::VddHopping(ms), 100.0)
            .unwrap();
    }

    #[test]
    fn warm_weight_resolve_matches_cold() {
        use taskgraph::edit::GraphEdit;

        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.0;
        let prep = PreparedGraph::new(&g);
        let (base, mut warm) = solve_lp_warm(&prep, d, &ms, P).unwrap();
        base.validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
            .unwrap();

        // A chain of weight edits, each re-solved warm and compared
        // against an independent cold solve of the edited graph.
        let inst = taskgraph::PreparedInstance::new(std::sync::Arc::new(g));
        let mut current = inst.apply(&[]).unwrap();
        for (task, w) in [(1usize, 3.5), (2, 1.2), (0, 2.0)] {
            current = current
                .apply(&[GraphEdit::SetWeight { task, weight: w }])
                .unwrap();
            let view = current.view();
            let sched = warm.resolve(&view, d).unwrap();
            sched
                .validate(current.graph(), &EnergyModel::VddHopping(ms.clone()), d)
                .unwrap();
            let cold = solve_lp_prepared(&view, d, &ms, P).unwrap();
            let (ew, ec) = (
                sched.energy(current.graph(), P),
                cold.energy(current.graph(), P),
            );
            assert!(
                (ew - ec).abs() <= 1e-6 * (1.0 + ec),
                "warm {ew} vs cold {ec} after w({task}) = {w}"
            );
        }
    }

    #[test]
    fn warm_resolve_reports_infeasible_weights() {
        let g = generators::chain(&[2.0]);
        let ms = modes(&[1.0, 2.0]);
        let prep = PreparedGraph::new(&g);
        let (_, mut warm) = solve_lp_warm(&prep, 2.0, &ms, P).unwrap();
        // Weight 10 at top speed 2 needs 5 time units > deadline 2.
        let heavy = taskgraph::TaskGraph::new(vec![10.0], &[]).unwrap();
        let hp = PreparedGraph::new(&heavy);
        assert!(matches!(
            warm.resolve(&hp, 2.0),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn deadline_ray_matches_cold_solves_pointwise() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let prep = PreparedGraph::new(&g);
        let cp = taskgraph::analysis::critical_path_weight(&g);
        let (d_lo, d_hi) = (1.05 * cp / ms.s_max(), 3.0 * cp / ms.s_max());
        let (_, mut warm) = solve_lp_warm(&prep, d_lo, &ms, P).unwrap();
        let ray = curve(warm.deadline_ray(&prep, d_lo, d_hi).unwrap());
        assert!(!ray.segments.is_empty());
        // Contiguous, monotone segment boundaries spanning [d_lo, d_hi].
        assert!((ray.segments[0].deadline_lo - d_lo).abs() < 1e-9 * d_lo);
        for w in ray.segments.windows(2) {
            assert!(
                (w[0].deadline_hi - w[1].deadline_lo).abs() < 1e-9 * (1.0 + w[0].deadline_hi.abs())
            );
        }
        // Energy non-increasing in D, and pointwise equal to cold solves.
        for k in 0..=16 {
            let d = d_lo + (d_hi - d_lo) * k as f64 / 16.0;
            let exact = ray.energy_at(d).unwrap();
            let cold = solve_lp_prepared(&prep, d, &ms, P).unwrap().energy(&g, P);
            assert!(
                (exact - cold).abs() <= 1e-6 * (1.0 + cold),
                "ray {exact} vs cold {cold} at D = {d}"
            );
        }
        let value_lo = |s: &CurveSegment| s.energy_at(s.deadline_lo);
        for w in ray.segments.windows(2) {
            assert!(value_lo(&w[1]) <= value_lo(&w[0]) * (1.0 + 1e-9));
        }
    }

    #[test]
    fn deadline_ray_rejects_infeasible_lo() {
        let g = generators::chain(&[4.0]);
        let ms = modes(&[1.0, 2.0]);
        let prep = PreparedGraph::new(&g);
        let (_, mut warm) = solve_lp_warm(&prep, 3.0, &ms, P).unwrap();
        assert!(matches!(
            warm.deadline_ray(&prep, 1.0, 5.0),
            Err(SolveError::Infeasible { .. })
        ));
        // The handle survives the rejection (feasibility pre-check
        // fires before the handle is touched).
        assert!(warm.resolve(&prep, 3.0).is_ok());
    }

    #[test]
    fn lp_profiles_use_at_most_two_modes_per_task() {
        // Basic-solution structure: ≤ 2 modes per task (and they are
        // consecutive). Verify on a random-ish instance.
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.5, 1.0, 1.5, 2.0, 2.5]);
        let sched = solve_lp(&g, 5.5, &ms, P).unwrap();
        for t in g.tasks() {
            match sched.profile(t) {
                SpeedProfile::Constant(_) => {}
                SpeedProfile::Pieces(ps) => {
                    assert!(ps.len() <= 2, "task {t} uses {} modes: {ps:?}", ps.len());
                    if ps.len() == 2 {
                        // Consecutive in the mode list.
                        let idx: Vec<usize> = ps
                            .iter()
                            .map(|&(s, _)| {
                                ms.speeds()
                                    .iter()
                                    .position(|&x| (x - s).abs() < 1e-9)
                                    .unwrap()
                            })
                            .collect();
                        assert_eq!(idx[0].abs_diff(idx[1]), 1, "{ps:?}");
                    }
                }
            }
        }
    }

    #[test]
    fn one_mode_ladder_runs_every_task_at_its_speed() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[1.5]);
        let prep = PreparedGraph::new(&g);
        let d_min = prep.critical_path_weight() / 1.5;
        let (sched, mut warm) = solve_lp_warm(&prep, 1.2 * d_min, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), 1.2 * d_min)
            .unwrap();
        let flat = 7.5 * 1.5 * 1.5;
        assert!(rel_gap(sched.energy(&g, P), flat) <= 1e-12);
        // The curve is flat from the minimum makespan on.
        let ray = warm.deadline_ray(&prep, d_min, 2.0 * d_min).unwrap();
        assert_eq!(ray.len(), 1);
        assert!(matches!(ray[0].energy, CurveEnergy::Affine { b, .. } if b == 0.0));
        assert!(rel_gap(ray[0].energy_at(d_min), flat) <= 1e-12);
    }

    #[test]
    fn deadline_at_the_minimum_makespan() {
        // Chain: every task at the top mode.
        let g = generators::chain(&[1.0, 2.0, 3.0]);
        let ms = modes(&[1.0, 2.0]);
        let sched = solve_lp(&g, 3.0, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), 3.0)
            .unwrap();
        assert!(rel_gap(sched.energy(&g, P), 24.0) <= 1e-12);
        // Diamond: the critical tasks 0, 2, 3 at 2.4; task 1 (w = 2)
        // fills its 3/2.4 window at exactly the 1.6 mode.
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let d = 5.5 / 2.4;
        let sched = solve_lp(&g, d, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
            .unwrap();
        let want = 5.5 * 2.4 * 2.4 + 2.0 * 1.6 * 1.6;
        assert!(rel_gap(sched.energy(&g, P), want) <= 1e-12);
    }

    #[test]
    fn deadline_past_the_slowest_critical_path_leaves_slack() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let ms = modes(&[0.8, 1.6, 2.4]);
        let prep = PreparedGraph::new(&g);
        let slowest = prep.critical_path_weight() / 0.8;
        let d = 1.3 * slowest;
        let (sched, mut warm) = solve_lp_warm(&prep, d, &ms, P).unwrap();
        sched
            .validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
            .unwrap();
        for t in g.tasks() {
            assert_eq!(sched.profile(t), &SpeedProfile::Constant(0.8));
        }
        let makespan = g
            .tasks()
            .map(|t| sched.completion(t, &g))
            .fold(0.0, f64::max);
        assert!(makespan < d * (1.0 - 1e-3), "makespan {makespan}");
        let flat = 7.5 * 0.8 * 0.8;
        assert!(rel_gap(sched.energy(&g, P), flat) <= 1e-12);
        // Past cp/s_1 the curve is flat.
        let ray = warm.deadline_ray(&prep, slowest, 2.0 * slowest).unwrap();
        assert_eq!(ray.len(), 1);
        assert!(matches!(ray[0].energy, CurveEnergy::Affine { b, .. } if b == 0.0));
        assert!(rel_gap(ray[0].energy_at(slowest), flat) <= 1e-12);
    }

    #[test]
    fn disconnected_components_add_up() {
        let ms = modes(&[0.5, 1.0, 1.5, 2.0]);
        let both =
            TaskGraph::new(vec![1.0, 2.5, 3.0, 0.5, 1.5], &[(0, 1), (2, 3), (2, 4)]).unwrap();
        let left = TaskGraph::new(vec![1.0, 2.5], &[(0, 1)]).unwrap();
        let right = TaskGraph::new(vec![3.0, 0.5, 1.5], &[(0, 1), (0, 2)]).unwrap();
        let energy = |g: &TaskGraph, d: f64| solve_lp(g, d, &ms, P).unwrap().energy(g, P);
        for d in [2.3, 2.7, 4.0, 9.0] {
            solve_lp(&both, d, &ms, P)
                .unwrap()
                .validate(&both, &EnergyModel::VddHopping(ms.clone()), d)
                .unwrap();
            let (e, l, r) = (energy(&both, d), energy(&left, d), energy(&right, d));
            assert!(rel_gap(e, l + r) <= 1e-9, "D = {d}: {e} vs {l} + {r}");
        }
    }

    #[test]
    fn equal_weights_tie_augmentations() {
        // Five independent equal tasks: five tied longest paths in one
        // phase. Each fills its window at speed 4/3 — one time unit at
        // 1, half a unit at 2 — for 1 + 8·0.5 = 5.
        let g = TaskGraph::new(vec![2.0; 5], &[]).unwrap();
        let ms = modes(&[1.0, 2.0]);
        let (sched, warm) = solve_lp_warm(&PreparedGraph::new(&g), 1.5, &ms, P).unwrap();
        assert!(rel_gap(sched.energy(&g, P), 25.0) <= 1e-12);
        assert_eq!(warm.record.len(), 1, "one phase carries the tie");
        // Equal middle tasks of a fork–join: the curve matches cold
        // solves everywhere.
        let g = generators::fork_join(1.0, &[2.0; 6], 1.0);
        let ms = modes(&[0.5, 1.0, 1.5, 2.0]);
        let prep = PreparedGraph::new(&g);
        let d_min = prep.critical_path_weight() / 2.0;
        let ray = curve(
            warm_for(&prep, &ms)
                .deadline_ray(&prep, d_min, 4.0 * d_min)
                .unwrap(),
        );
        for k in 0..=12 {
            let d = d_min * (1.0 + 3.0 * k as f64 / 12.0);
            let cold = solve_lp(&g, d, &ms, P).unwrap().energy(&g, P);
            assert!(rel_gap(ray.energy_at(d).unwrap(), cold) <= 1e-9, "D = {d}");
        }
    }

    #[test]
    fn retained_handle_is_linear_in_the_network() {
        // The X8 instance: 220 tasks, four modes. The simplex's dense
        // tableau held 1,115 × 2,216 numbers for it.
        let mut rng = StdRng::seed_from_u64(8888);
        let (g, _) = generators::random_sp(220, 0.55, 1.0, 5.0, &mut rng);
        let ms = modes(&[0.6, 1.2, 1.8, 2.4]);
        let prep = PreparedGraph::new(&g);
        let mut warm = warm_for(&prep, &ms);
        let cp = prep.critical_path_weight();
        warm.deadline_ray(&prep, cp / 2.4, cp / 0.6).unwrap();
        let held = warm.weights.len()
            + warm.kappa.len()
            + warm.head.len()
            + warm.len.len()
            + warm.res.len()
            + warm.first.len()
            + warm.adj.len()
            + warm.tau.len()
            + 2 * warm.record.len();
        let network = g.n() * ms.m() + 2 * g.n() + prep.reduced().m() + 1;
        assert!(
            warm.record.len() <= g.n() * ms.m(),
            "{} phases",
            warm.record.len()
        );
        assert!(held <= 12 * network, "{held} numbers for {network} arcs");
        assert!(held * 100 < 1115 * 2216, "{held} numbers");
    }

    #[test]
    fn warm_resolves_match_cold_across_weight_and_deadline_moves() {
        let ms = modes(&[0.6, 1.2, 1.8, 2.4]);
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let (mut g, _) = generators::random_sp(30, 0.55, 1.0, 5.0, &mut rng);
            let edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
            let mut warm = warm_for(&PreparedGraph::new(&g), &ms);
            for step in 0..12 {
                if step % 3 != 2 {
                    let mut w = g.weights().to_vec();
                    w[rng.gen_range(0..g.n())] *= rng.gen_range(0.5..2.0);
                    g = TaskGraph::new(w, &edges).unwrap();
                }
                let prep = PreparedGraph::new(&g);
                let d = rng.gen_range(1.0..3.5) * prep.critical_path_weight() / 2.4;
                let sched = warm.resolve(&prep, d).unwrap();
                sched
                    .validate(&g, &EnergyModel::VddHopping(ms.clone()), d)
                    .unwrap();
                let (e, cold) = (
                    sched.energy(&g, P),
                    solve_lp_prepared(&prep, d, &ms, P).unwrap().energy(&g, P),
                );
                assert!(
                    rel_gap(e, cold) <= 1e-9,
                    "seed {seed} step {step}: {e} vs {cold}"
                );
            }
        }
    }
}
