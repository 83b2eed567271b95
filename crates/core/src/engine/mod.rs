//! The prepared-instance solver engine.
//!
//! The paper's experiments — and every consumer of this crate —
//! solve `MinEnergy(Ĝ, D)` many times on the **same** graph: deadline
//! sweeps, budget bisections, model comparisons. The plain
//! [`crate::solve`] entry point re-derives the topological order,
//! shape classification, SP decomposition, and critical path on every
//! call. This module amortizes all of that:
//!
//! * a [`taskgraph::PreparedInstance`] caches the graph analysis once
//!   per graph (lazily, thread-safely), and every solve reads it
//!   through the [`taskgraph::PreparedGraph`] handle;
//! * one private routing `match` holds the paper's model → algorithm
//!   table (Continuous → Theorem 1/2 closed forms or the §2.1
//!   geometric program; Vdd-Hopping → the Theorem 3 min-cost flow; Discrete →
//!   Theorem 4 branch-and-bound, else the Proposition 1(b) round-up;
//!   Incremental → the Theorem 5 approximation). Point solves and the
//!   adaptive curve sampler both go through it, and the provenance
//!   tag on [`Solution`] names the route taken;
//! * [`Engine::solve_batch`] / [`Engine::solve_deadlines`] fan
//!   independent instances out over scoped threads (no external
//!   dependencies — plain [`std::thread::scope`]);
//! * [`Engine::energy_curve`] samples a whole energy–deadline front,
//!   with two sweep-specific shortcuts: the unbounded-Continuous
//!   scaling law `E*(D) = E*(D₀)·(D₀/D)^{α−1}` collapses the sweep to
//!   one solve, and Vdd-Hopping points reuse the previous point's
//!   flow through the one [`VddWarm`] chain of
//!   [`Engine::solve_deadlines`].
//!
//! The legacy [`crate::solve`] / [`crate::solve_with`] wrappers now
//! route through a transient engine, so every caller gets the same
//! dispatch — existing call sites compile and behave unchanged.

mod key;
pub mod profiling;

pub use key::{content_key, patched_key};

use crate::error::SolveError;
use crate::solver::{Solution, SolveOptions};
pub use crate::vdd::VddWarm;
use crate::{continuous, discrete, incremental, vdd};
use models::{DiscreteModes, EnergyModel, PowerLaw, Schedule, SpeedProfile};
use std::sync::atomic::{AtomicUsize, Ordering};
pub use taskgraph::edit::GraphEdit;
use taskgraph::structure::Shape;
use taskgraph::TaskGraph;
pub use taskgraph::{PreparedGraph, PreparedInstance};

/// One point of an energy–deadline curve (the Pareto front of the
/// bicriteria problem).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// The deadline.
    pub deadline: f64,
    /// The optimal (or approximated, per the model's solver) energy.
    pub energy: f64,
}

/// Closed-form energy of one [`CurveSegment`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CurveEnergy {
    /// `E(D) = a + b·D`. Exact for Vdd-Hopping (the optimum is
    /// piecewise affine in the deadline, with a breakpoint at every
    /// augmentation length of the flow); also the interpolation form of the
    /// adaptively-sampled fallback.
    Affine {
        /// Intercept.
        a: f64,
        /// Slope (non-positive along a Pareto front).
        b: f64,
    },
    /// `E(D) = c / D^p`. Exact for unbounded Continuous, where the
    /// scaling law `E*(D) = E*(D₀)·(D₀/D)^{α−1}` gives `p = α − 1`.
    Power {
        /// Coefficient.
        c: f64,
        /// Exponent (positive).
        p: f64,
    },
}

impl CurveEnergy {
    /// Evaluate the closed form at deadline `d`.
    pub fn at(&self, d: f64) -> f64 {
        match *self {
            CurveEnergy::Affine { a, b } => a + b * d,
            CurveEnergy::Power { c, p } => c / d.powf(p),
        }
    }
}

/// One maximal deadline interval of an exact (or refined-sampled)
/// energy–deadline curve with a single closed-form energy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurveSegment {
    /// Interval start.
    pub deadline_lo: f64,
    /// Interval end (segments of one curve are contiguous:
    /// each `deadline_hi` equals the next segment's `deadline_lo`).
    pub deadline_hi: f64,
    /// The energy on the interval, in closed form.
    pub energy: CurveEnergy,
}

impl CurveSegment {
    /// Energy at deadline `d` (exact for `d` inside the segment).
    pub fn energy_at(&self, d: f64) -> f64 {
        self.energy.at(d)
    }
}

/// Cost counters of one [`Engine::energy_curve_exact`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CurveStats {
    /// Breakpoints of the exact Vdd curve: the distinct augmentation
    /// lengths of the flow inside the range.
    pub lp_breakpoints: usize,
    /// Point solves performed by the adaptive-sampling fallback.
    pub samples: usize,
    /// Newton steps spent in barrier solves (Discrete/Incremental
    /// round-up path).
    pub barrier_newton_steps: u64,
    /// Barrier solves that were warm-seeded from the previous sweep
    /// point's primal.
    pub barrier_warm_seeded: u64,
}

/// A whole energy–deadline curve in closed form: the result of
/// [`Engine::energy_curve_exact`].
#[derive(Debug, Clone, PartialEq)]
pub struct ExactCurve {
    /// Contiguous segments covering `[deadline_lo(), deadline_hi()]`
    /// in increasing deadline order.
    pub segments: Vec<CurveSegment>,
    /// `true` when every segment is an exact closed form (Vdd,
    /// unbounded Continuous); `false` when the curve was adaptively
    /// sampled and the segments interpolate (Discrete / Incremental /
    /// capped Continuous).
    pub exact: bool,
    /// What the curve cost to build.
    pub stats: CurveStats,
}

impl ExactCurve {
    /// First covered deadline.
    pub fn deadline_lo(&self) -> f64 {
        self.segments.first().map_or(f64::NAN, |s| s.deadline_lo)
    }

    /// Last covered deadline.
    pub fn deadline_hi(&self) -> f64 {
        self.segments.last().map_or(f64::NAN, |s| s.deadline_hi)
    }

    /// Energy at deadline `d`, or `None` outside the covered range.
    pub fn energy_at(&self, d: f64) -> Option<f64> {
        if self.segments.is_empty()
            || d < self.deadline_lo() * (1.0 - 1e-12)
            || d > self.deadline_hi() * (1.0 + 1e-12)
        {
            return None;
        }
        let seg = self
            .segments
            .iter()
            .rev()
            .find(|s| d >= s.deadline_lo)
            .unwrap_or(&self.segments[0]);
        Some(seg.energy_at(d.clamp(seg.deadline_lo, seg.deadline_hi)))
    }

    /// The segment covering deadline `d`, if any.
    pub fn segment_at(&self, d: f64) -> Option<&CurveSegment> {
        self.segments
            .iter()
            .find(|s| d >= s.deadline_lo * (1.0 - 1e-12) && d <= s.deadline_hi * (1.0 + 1e-12))
    }
}

/// Provenance tags of one exact branch-and-bound route: sequential
/// complete, parallel complete, budget-tripped anytime incumbent.
type BnbTags = (&'static str, &'static str, &'static str);

const DISCRETE_BNB: BnbTags = ("discrete-bnb", "discrete-bnb-par", "discrete-bnb-anytime");
const INCREMENTAL_BNB: BnbTags = (
    "incremental-bnb",
    "incremental-bnb-par",
    "incremental-bnb-anytime",
);

/// The ASAP schedule for constant per-task speeds, using the cached
/// topological order (no re-analysis).
fn schedule_from_speeds(prep: &PreparedGraph<'_>, speeds: &[f64]) -> Schedule {
    let g = prep.graph();
    assert_eq!(speeds.len(), g.n());
    let durations: Vec<f64> = speeds
        .iter()
        .zip(g.weights())
        .map(|(&s, &w)| w / s)
        .collect();
    let ecl = prep.earliest_completion(&durations);
    let starts: Vec<f64> = ecl.iter().zip(&durations).map(|(c, d)| c - d).collect();
    let profiles = speeds.iter().map(|&s| SpeedProfile::Constant(s)).collect();
    Schedule::new(starts, profiles)
}

/// The most points one sampled [`Engine::energy_curve`] may ask for:
/// far above any plotted sweep, and small enough that sizing the
/// deadline grid stays cheap. A count past it is
/// [`SolveError::Unsupported`] before anything is allocated — a wire
/// request must not size memory it cannot get.
pub const MAX_CURVE_POINTS: usize = 4096;

/// A curve's factor range scaled past f64's range: its deadlines
/// cannot be solved, reported or compared.
fn finite_range_error() -> SolveError {
    SolveError::Unsupported("the factor range's deadlines are not finite numbers".into())
}

/// The reference deadline a curve's factors scale, once the range
/// `0 < lo_factor < hi_factor` checks out: the critical path at top
/// speed, or at unit speed for unbounded Continuous.
fn curve_base(
    prep: &PreparedGraph<'_>,
    model: &EnergyModel,
    lo_factor: f64,
    hi_factor: f64,
) -> Result<f64, SolveError> {
    if !(lo_factor > 0.0 && hi_factor > lo_factor) {
        return Err(SolveError::Unsupported(
            "need 0 < lo_factor < hi_factor".into(),
        ));
    }
    // Unit speed stands in for an absent cap before the division, so
    // the division never reads an absent cap's payload.
    Ok(prep.critical_path_weight() / model.top_speed().unwrap_or(1.0))
}

/// Drop a warm handle built over another mode ladder than `modes`: its
/// flow lives on another network and cannot serve this solve.
fn drop_foreign_warm(warm: &mut Option<VddWarm>, modes: &DiscreteModes) {
    if warm
        .as_ref()
        .is_some_and(|w| w.modes().speeds() != modes.speeds())
    {
        *warm = None;
    }
}

/// The solver engine: a power law plus tuning options, with batch and
/// sweep entry points that amortize graph analysis and fan out over
/// threads.
///
/// ```
/// use models::{EnergyModel, PowerLaw};
/// use reclaim_core::engine::{Engine, PreparedGraph};
/// use taskgraph::TaskGraph;
///
/// let g = TaskGraph::new(vec![2.0, 4.0], &[(0, 1)]).unwrap();
/// let engine = Engine::new(PowerLaw::CUBIC);
/// let prep = PreparedGraph::new(&g);
/// let model = EnergyModel::continuous_unbounded();
/// // One prepared graph, many deadlines: analysis runs once.
/// let a = engine.solve(&prep, &model, 3.0).unwrap();
/// let b = engine.solve(&prep, &model, 6.0).unwrap();
/// assert!((a.energy - 24.0).abs() < 1e-9);
/// assert!((b.energy - 6.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct Engine {
    power: PowerLaw,
    opts: SolveOptions,
    threads: Option<usize>,
}

impl Engine {
    /// An engine with default [`SolveOptions`].
    pub fn new(power: PowerLaw) -> Engine {
        Engine::with_options(power, SolveOptions::default())
    }

    /// An engine with explicit options.
    pub fn with_options(power: PowerLaw, opts: SolveOptions) -> Engine {
        Engine {
            power,
            opts,
            threads: None,
        }
    }

    /// Cap the worker threads used by the batch/sweep entry points
    /// (default: [`std::thread::available_parallelism`]).
    pub fn threads(mut self, n: usize) -> Engine {
        self.threads = Some(n.max(1));
        self
    }

    /// The engine's power law.
    pub fn power(&self) -> PowerLaw {
        self.power
    }

    /// The engine's tuning options.
    pub fn options(&self) -> &SolveOptions {
        &self.opts
    }

    /// Solve one prepared instance: pre-check feasibility against the
    /// cached critical path, then route the model to its paper
    /// algorithm. The returned schedule is always validated against
    /// the model and deadline.
    pub fn solve(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadline: f64,
    ) -> Result<Solution, SolveError> {
        self.solve_inner(prep, model, deadline, self.ctx_workers(), None)
    }

    /// Worker threads a single top-level solve may use. Parallel
    /// branch-and-bound is strictly opt-in: it engages only when the
    /// caller set [`Engine::threads`] to 2 or more (never from
    /// ambient parallelism), so default engines keep bitwise-stable
    /// sequential behavior.
    fn ctx_workers(&self) -> usize {
        self.threads.unwrap_or(1)
    }

    /// Per-job worker share for a fan-out over `n` concurrent jobs:
    /// the thread cap divided among them, at least 1.
    fn job_share(&self, n: usize) -> usize {
        (self.ctx_workers() / n.max(1)).max(1)
    }

    /// Pre-check feasibility, [`Engine::route`], validate and package.
    fn solve_inner(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadline: f64,
        workers: usize,
        chain: Option<&mut continuous::SweepWarm>,
    ) -> Result<Solution, SolveError> {
        continuous::check_feasible_prepared(prep, deadline, model.top_speed())?;
        let (algorithm, schedule) = self.route(prep, model, deadline, workers, chain)?;
        self.finish(prep, model, deadline, schedule, algorithm)
    }

    /// The paper's model → algorithm table, in dispatch-preference
    /// order within each model (exact before approximate):
    ///
    /// * Continuous — Theorem 1/2 closed forms on recognized shapes,
    ///   the §2.1 geometric program on a general DAG;
    /// * Vdd-Hopping — the Theorem 3 min-cost flow;
    /// * Discrete — Theorem 4 branch-and-bound while tractable, else
    ///   (or on a budget trip with nothing in hand) the Proposition
    ///   1(b) round-up;
    /// * Incremental — the Theorem 5 approximation, or
    ///   branch-and-bound on the grid when
    ///   [`SolveOptions::exact_incremental`] asks for it.
    ///
    /// `workers ≥ 2` fans the exact searches' partition sweep out over
    /// that many threads. `chain` threads one barrier warm start through
    /// the numerical routes (general-DAG geometric program, round-up,
    /// approximation) across an ascending deadline sweep; a point
    /// solve passes `None` and runs them cold.
    fn route(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadline: f64,
        workers: usize,
        chain: Option<&mut continuous::SweepWarm>,
    ) -> Result<(&'static str, Schedule), SolveError> {
        let mut cold = continuous::SweepWarm::new();
        let chain = chain.unwrap_or(&mut cold);
        let (p, k) = (self.power, self.opts.precision_k);
        let (algorithm, speeds) = match model {
            EnergyModel::Continuous { s_max } => {
                let speeds = match prep.shape() {
                    Shape::General => continuous::solve_general_warm(
                        prep, deadline, None, *s_max, p, None, chain,
                    )?,
                    _ => continuous::solve_dispatched(prep, deadline, *s_max, p, None)?,
                };
                ("continuous", speeds)
            }
            EnergyModel::VddHopping(modes) => {
                return Ok(("vdd-lp", vdd::solve_lp_prepared(prep, deadline, modes, p)?));
            }
            EnergyModel::Discrete(modes) => {
                match self.exact_bnb(prep, deadline, modes, workers, DISCRETE_BNB)? {
                    Some(found) => found,
                    None => (
                        "discrete-round-up",
                        discrete::round_up_warm(prep, deadline, modes, p, Some(k), chain)?.0,
                    ),
                }
            }
            EnergyModel::Incremental(modes) => {
                let exact = if self.opts.exact_incremental {
                    let grid = modes.to_discrete();
                    self.exact_bnb(prep, deadline, &grid, workers, INCREMENTAL_BNB)?
                } else {
                    None
                };
                match exact {
                    Some(found) => found,
                    None => (
                        "incremental-approx",
                        incremental::approx_warm(prep, deadline, modes, p, k, chain)?,
                    ),
                }
            }
        };
        Ok((algorithm, schedule_from_speeds(prep, &speeds)))
    }

    /// Theorem 4 branch-and-bound, when the search space is plausibly
    /// tractable (it is exponential in general): one
    /// [`discrete::exact`] partition sweep over `workers` threads —
    /// the sequential search at one worker. A budget trip **with** an
    /// incumbent comes back as an anytime result; `None` defers to the
    /// rounding route — the instance is too large, or the budget
    /// tripped with nothing in hand (matched structurally on
    /// [`SolveError::BudgetExhausted`], never on message strings).
    /// The search folds its node and steal totals into this thread's
    /// profiling counters.
    fn exact_bnb(
        &self,
        prep: &PreparedGraph<'_>,
        deadline: f64,
        modes: &DiscreteModes,
        workers: usize,
        (seq_tag, par_tag, anytime_tag): BnbTags,
    ) -> Result<Option<(&'static str, Vec<f64>)>, SolveError> {
        let n = prep.graph().n();
        if n > self.opts.exact_discrete_limit || (modes.m() as f64).powi(n as i32) > 5e9 {
            return Ok(None);
        }
        let cfg = discrete::BnbConfig::with_workers(workers);
        let sol = match discrete::exact(prep, deadline, modes, self.power, &cfg) {
            Ok(sol) => sol,
            Err(SolveError::BudgetExhausted { .. }) => return Ok(None),
            Err(e) => return Err(e),
        };
        let tag = match (sol.complete, workers >= 2) {
            (false, _) => anytime_tag,
            (true, true) => par_tag,
            (true, false) => seq_tag,
        };
        Ok(Some((tag, sol.speeds)))
    }

    /// Validate and package a schedule produced by a solver.
    fn finish(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadline: f64,
        schedule: Schedule,
        algorithm: &'static str,
    ) -> Result<Solution, SolveError> {
        schedule
            .validate(prep.graph(), model, deadline)
            .map_err(|e| SolveError::Numerical(format!("produced schedule invalid: {e}")))?;
        let energy = schedule.energy(prep.graph(), self.power);
        // An energy past f64's range (extreme weights or deadlines) is
        // no answer: no caller can report, store or compare it.
        if !energy.is_finite() {
            return Err(SolveError::Numerical(format!(
                "energy {energy} is not a finite number"
            )));
        }
        Ok(Solution {
            schedule,
            energy,
            algorithm,
        })
    }

    /// Solve one instance, reusing (and refreshing) a retained
    /// Vdd-Hopping warm-start handle across calls.
    ///
    /// For [`EnergyModel::VddHopping`], a populated `warm` handle is
    /// re-optimized from its retained flow ([`VddWarm::resolve`]:
    /// repair the arcs the change touched, then meet the deadline) —
    /// the one warm path behind deadline sweeps
    /// ([`Engine::solve_deadlines`], [`Engine::energy_curve`]) and
    /// patch chains ([`vdd_basis_survives`]). The resulting
    /// schedule gets the same validation as every cold solve; on any
    /// warm failure the handle is dropped and the instance re-solved
    /// cold (so this never fails where [`Engine::solve`] would
    /// succeed), and a successful cold solve refills `warm` for the
    /// next call. Warm solutions are tagged `"vdd-lp-warm"`.
    ///
    /// For every other model this is exactly [`Engine::solve`]
    /// (`warm` is left untouched — the handle belongs to the Vdd flow).
    pub fn solve_warm(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadline: f64,
        warm: &mut Option<VddWarm>,
    ) -> Result<Solution, SolveError> {
        let EnergyModel::VddHopping(modes) = model else {
            return self.solve(prep, model, deadline);
        };
        drop_foreign_warm(warm, modes);
        continuous::check_feasible_prepared(prep, deadline, model.top_speed())?;
        if let Some(w) = warm.as_mut() {
            // Feasibility was just established, so a warm Infeasible,
            // an invalid warm schedule, or any other failure means the
            // handle is spent, not that the instance is unsolvable:
            // fall through to cold.
            let warm_sol = w
                .resolve(prep, deadline)
                .and_then(|sched| self.finish(prep, model, deadline, sched, "vdd-lp-warm"));
            if warm_sol.is_ok() {
                return warm_sol;
            }
            taskgraph::profiling::record(|c| c.warm_lost += 1);
            *warm = None;
        }
        let (sched, handle) = vdd::solve_lp_warm(prep, deadline, modes, self.power)?;
        let sol = self.finish(prep, model, deadline, sched, "vdd-lp")?;
        *warm = Some(handle);
        Ok(sol)
    }

    /// Solve one graph (convenience: prepares it transiently).
    pub fn solve_graph(
        &self,
        g: &TaskGraph,
        model: &EnergyModel,
        deadline: f64,
    ) -> Result<Solution, SolveError> {
        self.solve(&PreparedGraph::new(g), model, deadline)
    }

    /// Solve a batch of `(graph, deadline)` instances under one model,
    /// in parallel across scoped threads. Each **distinct** graph (by
    /// [`content_key`] — content, not address) is prepared once and
    /// its analysis shared across every job and worker that references
    /// it, so identical graphs loaded from two files still share one
    /// [`PreparedGraph`]; results come back in input order, identical
    /// to solving sequentially.
    pub fn solve_batch(
        &self,
        model: &EnergyModel,
        jobs: &[(&TaskGraph, f64)],
    ) -> Vec<Result<Solution, SolveError>> {
        // Deduplicate preparation by content hash so a batch of many
        // deadlines on few graphs amortizes like `solve_deadlines`,
        // even when equal graphs arrive as separate allocations. The
        // hash itself is memoized per allocation, so the common case —
        // one `&TaskGraph` repeated across the whole batch — hashes
        // the graph once, not once per job.
        use std::collections::HashMap;
        let mut key_of_ptr: HashMap<*const TaskGraph, u128> = HashMap::new();
        let mut seen: HashMap<u128, usize> = HashMap::new();
        let mut preps: Vec<PreparedGraph<'_>> = Vec::new();
        let prep_of: Vec<usize> = jobs
            .iter()
            .map(|&(g, _)| {
                let key = *key_of_ptr
                    .entry(std::ptr::from_ref(g))
                    .or_insert_with(|| content_key(g, model));
                *seen.entry(key).or_insert_with(|| {
                    preps.push(PreparedGraph::new(g));
                    preps.len() - 1
                })
            })
            .collect();
        let share = self.job_share(jobs.len());
        self.run_ordered(jobs.len(), |i| {
            self.solve_inner(&preps[prep_of[i]], model, jobs[i].1, share, None)
        })
    }

    /// Solve one prepared graph at many deadlines. Results come back
    /// in caller order, identical to independent [`Engine::solve`]
    /// calls up to solver tolerance.
    ///
    /// Vdd-Hopping requests are sorted, deduplicated, and threaded
    /// through **one** [`VddWarm`] chain in increasing-deadline order
    /// (each point re-optimizes the previous optimal flow instead of
    /// augmenting from zero; duplicates share one solve).
    /// Every other model fans the independent solves out over scoped
    /// worker threads, with the analysis cache shared (first one to
    /// need a pass fills it for everyone).
    pub fn solve_deadlines(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        deadlines: &[f64],
    ) -> Vec<Result<Solution, SolveError>> {
        if matches!(model, EnergyModel::VddHopping(_)) {
            let mut order: Vec<usize> = (0..deadlines.len()).collect();
            order.sort_by(|&a, &b| deadlines[a].total_cmp(&deadlines[b]));
            let mut warm: Option<VddWarm> = None;
            let mut out: Vec<Option<Result<Solution, SolveError>>> = vec![None; deadlines.len()];
            let mut prev: Option<usize> = None;
            for &i in &order {
                // Dedup: an equal deadline reuses the previous result.
                if let Some(pi) = prev {
                    if deadlines[pi].total_cmp(&deadlines[i]).is_eq() {
                        out[i] = out[pi].clone();
                        continue;
                    }
                }
                out[i] = Some(self.solve_warm(prep, model, deadlines[i], &mut warm));
                prev = Some(i);
            }
            return out
                .into_iter()
                .map(|r| r.expect("every index visited"))
                .collect();
        }
        let share = self.job_share(deadlines.len());
        self.run_ordered(deadlines.len(), |i| {
            self.solve_inner(prep, model, deadlines[i], share, None)
        })
    }

    /// Sample the energy–deadline curve at `2 ≤ points ≤`
    /// [`MAX_CURVE_POINTS`] geometrically spaced deadlines between
    /// `lo_factor` and `hi_factor` times the
    /// reference deadline (critical path at top speed, or at unit
    /// speed for unbounded Continuous). Infeasible points are skipped;
    /// other errors abort.
    ///
    /// Sweep shortcuts (each produces the same values as independent
    /// [`Engine::solve`] calls, up to solver tolerance):
    ///
    /// * unbounded Continuous: one solve plus the exact scaling law
    ///   `E*(D) = E*(D₀)·(D₀/D)^{α−1}` — the sweep costs one solve
    ///   instead of N;
    /// * Vdd-Hopping: consecutive points re-optimize the previous flow
    ///   under the moved return arc instead of solving cold
    ///   (the [`VddWarm`] chain of [`Engine::solve_deadlines`]);
    /// * everything else: the points are independent solves fanned out
    ///   over threads.
    pub fn energy_curve(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        points: usize,
        lo_factor: f64,
        hi_factor: f64,
    ) -> Result<Vec<CurvePoint>, SolveError> {
        if points < 2 {
            return Err(SolveError::Unsupported(format!(
                "energy_curve needs at least two points, got {points}"
            )));
        }
        if points > MAX_CURVE_POINTS {
            return Err(SolveError::Unsupported(format!(
                "energy_curve takes at most {MAX_CURVE_POINTS} points, got {points}"
            )));
        }
        let base = curve_base(prep, model, lo_factor, hi_factor)?;
        let ratio = (hi_factor / lo_factor).powf(1.0 / (points - 1) as f64);
        let mut deadlines = Vec::with_capacity(points);
        let mut f = lo_factor;
        for _ in 0..points {
            deadlines.push(f * base);
            f *= ratio;
        }
        if deadlines.iter().any(|d| !d.is_finite()) {
            return Err(finite_range_error());
        }

        // Unbounded Continuous: the optimum scales as D^{1−α}, so one
        // solve pins the whole curve.
        if matches!(model, EnergyModel::Continuous { s_max: None }) {
            let d0 = deadlines[0];
            let e0 = self.solve(prep, model, d0)?.energy;
            let expo = self.power.alpha() - 1.0;
            return Ok(deadlines
                .into_iter()
                .map(|d| CurvePoint {
                    deadline: d,
                    energy: e0 * (d0 / d).powf(expo),
                })
                .collect());
        }

        // Vdd-Hopping runs as one warm chain, every other model as
        // independent solves fanned out over threads.
        let solutions = self.solve_deadlines(prep, model, &deadlines);
        let mut out = Vec::with_capacity(points);
        for (sol, d) in solutions.into_iter().zip(deadlines) {
            match sol {
                Ok(sol) => out.push(CurvePoint {
                    deadline: d,
                    energy: sol.energy,
                }),
                Err(SolveError::Infeasible { .. }) => {}
                Err(e) => return Err(e),
            }
        }
        Ok(out)
    }

    /// The **whole** energy–deadline curve between `lo_factor` and
    /// `hi_factor` times the reference deadline (see
    /// [`Engine::energy_curve`] for the reference), as contiguous
    /// [`CurveSegment`]s with closed-form energies — not samples.
    ///
    /// Per model:
    ///
    /// * **Vdd-Hopping** — exact. The min-cost flow's augmentation
    ///   record lists the curve's breakpoints, so
    ///   [`vdd::VddWarm::deadline_ray`] reads the optimum off it as
    ///   piecewise-affine segments, one per augmentation length, with
    ///   no per-sample work at all.
    /// * **unbounded Continuous** — exact: one solve plus the scaling
    ///   law `E*(D) = E*(D₀)·(D₀/D)^{α−1}` gives a single
    ///   [`CurveEnergy::Power`] segment.
    /// * **Discrete / Incremental / capped Continuous** — adaptive
    ///   sampling (`exact: false`): a coarse grid is refined only
    ///   where linear interpolation disagrees with a midpoint solve,
    ///   and the round-up paths thread one barrier warm-start chain
    ///   ([`continuous::SweepWarm`]) through each ascending round, so
    ///   sweep points reuse the previous point's interior primal.
    ///
    /// Deadlines below the instance's minimum makespan are clamped
    /// away (like the sampled curve's infeasible-point skipping); an
    /// entirely infeasible range is [`SolveError::Infeasible`].
    pub fn energy_curve_exact(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        lo_factor: f64,
        hi_factor: f64,
    ) -> Result<ExactCurve, SolveError> {
        let mut warm = None;
        self.energy_curve_exact_warm(prep, model, lo_factor, hi_factor, &mut warm)
    }

    /// [`Engine::energy_curve_exact`] reusing (and refreshing) a
    /// retained Vdd warm-start handle: when `warm` holds the flow of a
    /// previous solve of this instance whose record reaches the range,
    /// the exact Vdd curve costs no augmentation at all — the daemon's
    /// cached instances ride this path. For other models `warm` is
    /// left untouched.
    pub fn energy_curve_exact_warm(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        lo_factor: f64,
        hi_factor: f64,
        warm: &mut Option<VddWarm>,
    ) -> Result<ExactCurve, SolveError> {
        let base = curve_base(prep, model, lo_factor, hi_factor)?;
        // With a top speed the reference deadline is the minimum
        // makespan.
        let dmin = model.top_speed().map(|_| base);
        let mut d_lo = lo_factor * base;
        if let Some(dm) = dmin {
            // Clamp the infeasible prefix away, mirroring the sampled
            // curve's infeasible-point skipping.
            d_lo = d_lo.max(dm);
        }
        let d_hi = hi_factor * base;
        if !d_hi.is_finite() {
            return Err(finite_range_error());
        }
        if d_hi <= d_lo {
            return Err(SolveError::Infeasible {
                deadline: d_hi,
                min_makespan: dmin.unwrap_or(d_lo),
            });
        }
        let mut stats = CurveStats::default();

        // Unbounded Continuous: the scaling law pins the whole curve.
        if matches!(model, EnergyModel::Continuous { s_max: None }) {
            let e0 = self.solve(prep, model, d_lo)?.energy;
            let p = self.power.alpha() - 1.0;
            let c = e0 * d_lo.powf(p);
            if !c.is_finite() {
                return Err(SolveError::Numerical(format!(
                    "curve coefficient {c} is not a finite number"
                )));
            }
            stats.samples = 1;
            return Ok(ExactCurve {
                segments: vec![CurveSegment {
                    deadline_lo: d_lo,
                    deadline_hi: d_hi,
                    energy: CurveEnergy::Power { c, p },
                }],
                exact: true,
                stats,
            });
        }

        // Vdd-Hopping: the augmentation record, warm when possible.
        if let EnergyModel::VddHopping(modes) = model {
            drop_foreign_warm(warm, modes);
            let segments = match warm.as_mut().map(|w| w.deadline_ray(prep, d_lo, d_hi)) {
                Some(held @ (Ok(_) | Err(SolveError::Infeasible { .. }))) => held,
                spent => {
                    if spent.is_some() {
                        // Spent handle: ledger it and rebuild cold.
                        taskgraph::profiling::record(|c| c.warm_lost += 1);
                    }
                    // The fresh handle is kept only once its curve is.
                    let mut fresh = VddWarm::new(prep, modes, self.power);
                    let segments = fresh.deadline_ray(prep, d_lo, d_hi);
                    *warm = segments.is_ok().then_some(fresh);
                    segments
                }
            }?;
            stats.lp_breakpoints = segments.len().saturating_sub(1);
            return Ok(ExactCurve {
                segments,
                exact: true,
                stats,
            });
        }

        // Adaptive sampling: Discrete / Incremental / capped
        // Continuous.
        let segments = self.adaptive_curve(prep, model, d_lo, d_hi, &mut stats)?;
        Ok(ExactCurve {
            segments,
            exact: false,
            stats,
        })
    }

    /// The sampled fallback of [`Engine::energy_curve_exact`]: a
    /// geometric starter grid, then rounds of midpoint refinement
    /// wherever linear interpolation disagrees with a real solve.
    /// Every round solves its new points in ascending-deadline order
    /// through [`Engine::route`] with one fresh barrier warm-start
    /// chain.
    fn adaptive_curve(
        &self,
        prep: &PreparedGraph<'_>,
        model: &EnergyModel,
        d_lo: f64,
        d_hi: f64,
        stats: &mut CurveStats,
    ) -> Result<Vec<CurveSegment>, SolveError> {
        const INIT_POINTS: usize = 9;
        const REL_TOL: f64 = 1e-3;
        const MAX_SAMPLES: usize = 65;

        let record = |stats: &mut CurveStats, chain: &continuous::SweepWarm| {
            stats.barrier_newton_steps += chain.stats.newton_steps;
            stats.barrier_warm_seeded += chain.stats.warm_seeded;
        };
        let workers = self.ctx_workers();
        let sample = |d: f64, chain: &mut continuous::SweepWarm| {
            self.solve_inner(prep, model, d, workers, Some(chain))
                .map(|sol| sol.energy)
        };
        // Starter grid (geometric, ascending) through one warm chain.
        let ratio = (d_hi / d_lo).powf(1.0 / (INIT_POINTS - 1) as f64);
        let mut samples: Vec<(f64, f64)> = Vec::with_capacity(MAX_SAMPLES);
        let mut chain = continuous::SweepWarm::new();
        let mut d = d_lo;
        for k in 0..INIT_POINTS {
            // Pin the endpoints exactly despite powf drift.
            let dk = if k == INIT_POINTS - 1 { d_hi } else { d };
            samples.push((dk, sample(dk, &mut chain)?));
            d *= ratio;
        }
        stats.samples += INIT_POINTS;
        record(stats, &chain);

        // Refinement rounds: split every interval whose midpoint
        // disagrees with interpolation, until all agree or the sample
        // budget is gone.
        let mut suspect: Vec<(f64, f64)> = samples.windows(2).map(|w| (w[0].0, w[1].0)).collect();
        while !suspect.is_empty() && samples.len() < MAX_SAMPLES {
            suspect.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut next = Vec::new();
            let mut chain = continuous::SweepWarm::new();
            let mut solved = 0usize;
            for (lo, hi) in suspect.drain(..) {
                if samples.len() + solved >= MAX_SAMPLES {
                    break;
                }
                let mid = (lo * hi).sqrt();
                if mid <= lo || mid >= hi {
                    continue; // interval at float resolution
                }
                let e_mid = sample(mid, &mut chain)?;
                solved += 1;
                let (e_lo, e_hi) = (
                    samples
                        .iter()
                        .find(|s| s.0 == lo)
                        .expect("interval endpoint solved")
                        .1,
                    samples
                        .iter()
                        .find(|s| s.0 == hi)
                        .expect("interval endpoint solved")
                        .1,
                );
                let interp = e_lo + (e_hi - e_lo) * (mid - lo) / (hi - lo);
                samples.push((mid, e_mid));
                if (interp - e_mid).abs() > REL_TOL * (1.0 + e_mid.abs()) {
                    next.push((lo, mid));
                    next.push((mid, hi));
                }
            }
            stats.samples += solved;
            record(stats, &chain);
            samples.sort_by(|a, b| a.0.total_cmp(&b.0));
            suspect = next;
        }
        samples.sort_by(|a, b| a.0.total_cmp(&b.0));
        let segments = samples
            .windows(2)
            .map(|w| {
                let ((d0, e0), (d1, e1)) = (w[0], w[1]);
                let b = (e1 - e0) / (d1 - d0);
                CurveSegment {
                    deadline_lo: d0,
                    deadline_hi: d1,
                    energy: CurveEnergy::Affine { a: e0 - b * d0, b },
                }
            })
            .collect();
        Ok(segments)
    }

    /// [`fan_out`] over the engine's thread cap (default:
    /// [`std::thread::available_parallelism`]).
    fn run_ordered<T: Send>(&self, n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
        let workers = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1)
        });
        fan_out(workers, n, f).0
    }
}

/// Run `f(0..n)` on up to `workers` scoped threads that pull indices
/// from one atomic counter, so uneven items balance; inline at one
/// worker or one item. Results come back in index order, with the
/// pickups beyond each thread's first ("steals"; 0 inline). A scoped
/// thread's [`taskgraph::profiling`] counts die with it, so each
/// thread's counts fold into the caller's: the calling thread sees all
/// the work it caused.
pub(crate) fn fan_out<T: Send>(
    workers: usize,
    n: usize,
    f: impl Fn(usize) -> T + Sync,
) -> (Vec<T>, u64) {
    let workers = workers.min(n);
    if workers <= 1 {
        return ((0..n).map(f).collect(), 0);
    }
    let next = AtomicUsize::new(0);
    let mut indexed = Vec::with_capacity(n);
    let mut steals = 0;
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut mine = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= n {
                            break;
                        }
                        mine.push((i, f(i)));
                    }
                    // A fresh thread's counts are exactly its work.
                    (mine, taskgraph::profiling::counts())
                })
            })
            .collect();
        for h in handles {
            let (mine, work) = h.join().expect("fan-out worker panicked");
            taskgraph::profiling::record(|c| *c += work);
            steals += mine.len().saturating_sub(1) as u64;
            indexed.extend(mine);
        }
    });
    indexed.sort_by_key(|&(i, _)| i);
    (indexed.into_iter().map(|(_, t)| t).collect(), steals)
}

/// Whether a Vdd warm flow retained for `base` still lives on the task
/// network of `patched`, the result of `base.apply(edits)` — the one
/// rule every patch path follows before handing the flow to
/// [`Engine::solve_warm`].
///
/// The network is a function of the task count, the mode ladder and
/// the **transitively reduced** precedence edges, so the flow survives
/// a weight-only batch (only arc lengths move) and any structural batch
/// that keeps the task set and the reduced edge sequence (e.g.
/// inserting or removing a transitive edge). Arc order matters, since
/// the network is built in canonical reduced-edge order, so the
/// sequences must match exactly. Every other batch spends the flow: it
/// lives on another network.
pub fn vdd_basis_survives(
    base: &PreparedInstance,
    patched: &PreparedInstance,
    edits: &[GraphEdit],
) -> bool {
    edits.iter().all(GraphEdit::is_weight_only)
        || (!edits.iter().any(GraphEdit::changes_task_set)
            && base.view().reduced().edges() == patched.view().reduced().edges())
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{DiscreteModes, IncrementalModes};
    use taskgraph::{generators, profiling};

    const P: PowerLaw = PowerLaw::CUBIC;

    /// The patch flow every caller follows: apply the batch, keep the
    /// Vdd basis only where [`vdd_basis_survives`], solve warm.
    fn patch_then_solve(
        engine: &Engine,
        base: &PreparedInstance,
        edits: &[GraphEdit],
        model: &EnergyModel,
        deadline: f64,
        warm: &mut Option<VddWarm>,
    ) -> Result<(PreparedInstance, Solution), SolveError> {
        let patched = base
            .apply(edits)
            .map_err(|e| SolveError::Unsupported(format!("invalid edit batch: {e}")))?;
        if !vdd_basis_survives(base, &patched, edits) {
            *warm = None;
        }
        let sol = engine.solve_warm(&patched.view(), model, deadline, warm)?;
        Ok((patched, sol))
    }

    #[test]
    fn analysis_runs_exactly_once_per_prepared_graph() {
        // The acceptance hook: classify / SP recognition / topo order
        // each run once per prepared graph no matter how many solves
        // reuse it. Counters are thread-local, so keep everything on
        // this thread (single solves never spawn).
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        let before = profiling::counts();
        let mut energies = Vec::new();
        for k in 0..8 {
            let d = 4.0 + k as f64;
            energies.push(engine.solve(&prep, &model, d).unwrap().energy);
        }
        let delta = profiling::counts() - before;
        assert_eq!(delta.classify, 1, "classification must run once");
        assert_eq!(delta.sp_from_graph, 1, "SP recognition must run once");
        assert_eq!(delta.topo_order, 1, "topo order must be computed once");
        // Sanity: the solves were real.
        assert!(energies.windows(2).all(|w| w[1] < w[0]));
    }

    #[test]
    fn every_route_reads_its_analysis_from_the_warm_cache() {
        // The once-only promise, route by route: on a warm instance of
        // every shape (plus one produced by a structural patch), a
        // solve re-derives no classification, SP recognition or
        // transitive reduction, and no topological order — except the
        // branch-and-bound's one canonical branching order.
        use std::sync::Arc;
        let fork_join = generators::fork_join(1.0, &[2.0, 3.0, 1.0, 2.5], 1.5);
        let instances: Vec<(Shape, TaskGraph)> = vec![
            (Shape::Chain, generators::chain(&[1.0, 2.0, 1.5, 3.0])),
            (Shape::Fork, generators::fork(1.0, &[2.0, 1.0, 3.0])),
            (Shape::Join, generators::join(&[2.0, 1.0, 3.0], 1.0)),
            (
                Shape::InTree,
                TaskGraph::new(
                    vec![1.0, 2.0, 1.5, 3.0, 1.0],
                    &[(0, 2), (1, 2), (2, 4), (3, 4)],
                )
                .unwrap(),
            ),
            (Shape::SeriesParallel, fork_join.clone()),
            (
                Shape::General,
                TaskGraph::new(
                    vec![1.0, 2.0, 3.0, 1.0, 2.0],
                    &[(0, 2), (0, 3), (1, 3), (3, 4)],
                )
                .unwrap(),
            ),
        ];
        let mut warm: Vec<(String, PreparedInstance)> = instances
            .into_iter()
            .map(|(shape, g)| {
                let inst = PreparedInstance::new(Arc::new(g));
                inst.warm();
                assert_eq!(inst.view().shape(), shape);
                (format!("{shape:?}"), inst)
            })
            .collect();
        let base = PreparedInstance::new(Arc::new(fork_join));
        base.warm();
        let patched = base
            .apply(&[GraphEdit::InsertEdge { from: 1, to: 2 }])
            .unwrap();
        patched.warm();
        warm.push(("patched fork-join".into(), patched));

        let modes = DiscreteModes::new(&[1.0, 2.0, 3.0]).unwrap();
        let grid = IncrementalModes::new(1.0, 3.0, 0.5).unwrap();
        let seq = Engine::new(P).threads(1);
        let exact_inc = Engine::with_options(
            P,
            SolveOptions {
                exact_incremental: true,
                ..Default::default()
            },
        );
        let round_up = Engine::with_options(
            P,
            SolveOptions {
                exact_discrete_limit: 0,
                ..Default::default()
            },
        );
        let routes: Vec<(&str, Engine, EnergyModel)> = vec![
            (
                "continuous",
                seq.clone(),
                EnergyModel::continuous_unbounded(),
            ),
            ("continuous", seq.clone(), EnergyModel::continuous(3.0)),
            (
                "vdd-lp",
                seq.clone(),
                EnergyModel::VddHopping(modes.clone()),
            ),
            (
                "discrete-bnb",
                seq.clone(),
                EnergyModel::Discrete(modes.clone()),
            ),
            (
                "discrete-bnb-par",
                Engine::new(P).threads(2),
                EnergyModel::Discrete(modes.clone()),
            ),
            ("discrete-round-up", round_up, EnergyModel::Discrete(modes)),
            (
                "incremental-approx",
                seq,
                EnergyModel::Incremental(grid.clone()),
            ),
            ("incremental-bnb", exact_inc, EnergyModel::Incremental(grid)),
        ];
        for (label, inst) in &warm {
            let view = inst.view();
            let d = 1.5 * view.critical_path_weight() / 3.0;
            for (tag, engine, model) in &routes {
                let before = profiling::counts();
                let sol = engine.solve(&view, model, d).unwrap();
                let delta = profiling::counts() - before;
                let what = format!("{label}, {} via {tag}", model.name());
                assert_eq!(sol.algorithm, *tag, "{what}");
                let bnb = tag.contains("-bnb");
                assert_eq!(delta.topo_order, u64::from(bnb), "{what}: topo_order");
                assert_eq!(delta.classify, 0, "{what}: classify");
                assert_eq!(delta.sp_from_graph, 0, "{what}: sp_from_graph");
                assert_eq!(delta.transitive_reduction, 0, "{what}: reduction");
            }
        }
    }

    #[test]
    fn vdd_path_reuses_prepared_analysis() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let before = profiling::counts();
        for k in 0..5 {
            engine.solve(&prep, &model, 5.0 + k as f64).unwrap();
        }
        let delta = profiling::counts() - before;
        // Vdd never needs the shape, and the reduction/critical path
        // reuse the single cached topo order.
        assert_eq!(delta.topo_order, 1);
        assert_eq!(delta.classify, 0);
        assert_eq!(delta.sp_from_graph, 0);
    }

    #[test]
    fn engine_matches_legacy_dispatch_tags() {
        let g = generators::chain(&[1.0, 1.0]);
        let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        let engine = Engine::new(P);
        let cases: Vec<(EnergyModel, &str)> = vec![
            (EnergyModel::continuous_unbounded(), "continuous"),
            (EnergyModel::VddHopping(modes.clone()), "vdd-lp"),
            (EnergyModel::Discrete(modes), "discrete-bnb"),
            (
                EnergyModel::Incremental(IncrementalModes::new(1.0, 2.0, 0.5).unwrap()),
                "incremental-approx",
            ),
        ];
        for (model, expect) in cases {
            let prep = PreparedGraph::new(&g);
            let sol = engine.solve(&prep, &model, 3.0).unwrap();
            assert_eq!(sol.algorithm, expect);
        }
    }

    #[test]
    fn batch_matches_sequential_in_order_and_values() {
        let graphs: Vec<TaskGraph> = vec![
            generators::chain(&[1.0, 2.0, 3.0]),
            generators::diamond([1.0, 2.0, 3.0, 1.5]),
            generators::fork(1.0, &[2.0, 1.0, 3.0]),
            generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5),
        ];
        let jobs: Vec<(&TaskGraph, f64)> =
            graphs.iter().flat_map(|g| [(g, 5.0), (g, 8.0)]).collect();
        let model = EnergyModel::continuous(2.5);
        let sequential = Engine::new(P).threads(1).solve_batch(&model, &jobs);
        let parallel = Engine::new(P).threads(4).solve_batch(&model, &jobs);
        assert_eq!(sequential.len(), parallel.len());
        for (s, q) in sequential.iter().zip(&parallel) {
            let (s, q) = (s.as_ref().unwrap(), q.as_ref().unwrap());
            assert_eq!(s.algorithm, q.algorithm);
            assert!((s.energy - q.energy).abs() <= 1e-12 * (1.0 + s.energy));
        }
    }

    #[test]
    fn batch_prepares_each_distinct_graph_once() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let h = generators::chain(&[1.0, 2.0]);
        let jobs: Vec<(&TaskGraph, f64)> = vec![(&g, 5.0), (&g, 6.0), (&h, 4.0), (&g, 7.0)];
        let model = EnergyModel::continuous_unbounded();
        // The fan-out folds its threads' counts into this one, so the
        // thread-local counters see the whole batch at any width.
        for threads in [1, 4] {
            let before = profiling::counts();
            let results = Engine::new(P).threads(threads).solve_batch(&model, &jobs);
            assert!(results.iter().all(Result::is_ok));
            let delta = profiling::counts() - before;
            // Two distinct graphs → exactly two classifications and two
            // topo orders, not four.
            assert_eq!(delta.classify, 2, "threads {threads}");
            assert_eq!(delta.topo_order, 2, "threads {threads}");
        }
    }

    #[test]
    fn fan_out_keeps_branch_and_bound_nodes() {
        // A sampled Discrete curve and a deadline batch fan their
        // solves out over threads; the nodes those threads expand
        // still land in the caller's counts.
        let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
        let model = EnergyModel::Discrete(DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap());
        let prep = PreparedGraph::new(&g);
        for threads in [1, 2] {
            let engine = Engine::new(P).threads(threads);
            let before = profiling::counts();
            engine.energy_curve(&prep, &model, 6, 1.1, 3.0).unwrap();
            let curve = profiling::counts() - before;
            let results = engine.solve_deadlines(&prep, &model, &[5.0, 6.0, 7.0]);
            assert!(results.iter().all(Result::is_ok));
            let deadlines = profiling::counts() - before - curve;
            assert_eq!(
                (curve.bnb_nodes, deadlines.bnb_nodes),
                (130, 71),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn batch_dedups_identical_graphs_by_content() {
        // Two separate allocations of the same graph (as if loaded
        // from two files): content hashing must prepare only once.
        let g1 = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let g2 = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        assert!(!std::ptr::eq(&g1, &g2));
        let jobs: Vec<(&TaskGraph, f64)> = vec![(&g1, 5.0), (&g2, 6.0), (&g1, 7.0)];
        let model = EnergyModel::continuous_unbounded();
        let before = profiling::counts();
        let results = Engine::new(P).threads(1).solve_batch(&model, &jobs);
        assert!(results.iter().all(Result::is_ok));
        let delta = profiling::counts() - before;
        assert_eq!(delta.classify, 1, "equal content must share one prep");
        assert_eq!(delta.topo_order, 1);
    }

    #[test]
    fn weight_only_patch_recomputes_no_structure() {
        use std::sync::Arc;

        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let model = EnergyModel::continuous_unbounded();
        let mut warm = None;
        let before = profiling::counts();
        let (patched, sol) = patch_then_solve(
            &engine,
            &inst,
            &[GraphEdit::SetWeight {
                task: 1,
                weight: 4.0,
            }],
            &model,
            8.0,
            &mut warm,
        )
        .unwrap();
        let delta = profiling::counts() - before;
        assert_eq!(delta.topo_order, 0);
        assert_eq!(delta.classify, 0);
        assert_eq!(delta.sp_from_graph, 0);
        assert_eq!(delta.transitive_reduction, 0);
        // Equivalent to rebuilding and solving from scratch.
        let rebuilt =
            TaskGraph::new(vec![1.0, 4.0, 3.0, 1.5], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let cold = engine.solve_graph(&rebuilt, &model, 8.0).unwrap();
        assert!((sol.energy - cold.energy).abs() <= 1e-9 * (1.0 + cold.energy));
        assert_eq!(patched.graph(), &rebuilt);
    }

    #[test]
    fn vdd_warm_chain_matches_cold_and_tags_warm() {
        use std::sync::Arc;

        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let inst = PreparedInstance::new(Arc::new(g));
        inst.warm();
        let mut warm = None;
        let d = 6.0;
        // First edited solve: no warm state yet → cold LP, handle filled.
        let (i1, s1) = patch_then_solve(
            &engine,
            &inst,
            &[GraphEdit::SetWeight {
                task: 1,
                weight: 2.5,
            }],
            &model,
            d,
            &mut warm,
        )
        .unwrap();
        assert_eq!(s1.algorithm, "vdd-lp");
        assert!(warm.is_some());
        // Second edit: warm path.
        let (i2, s2) = patch_then_solve(
            &engine,
            &i1,
            &[GraphEdit::SetWeight {
                task: 2,
                weight: 4.0,
            }],
            &model,
            d,
            &mut warm,
        )
        .unwrap();
        assert_eq!(s2.algorithm, "vdd-lp-warm");
        let cold = engine.solve(&i2.view(), &model, d).unwrap();
        assert!(
            (s2.energy - cold.energy).abs() <= 1e-6 * (1.0 + cold.energy),
            "warm {} vs cold {}",
            s2.energy,
            cold.energy
        );
        // A structural edit that leaves the transitively reduced
        // precedence rows unchanged keeps the handle: inserting the
        // transitive edge 0→4 changes the graph but not the LP.
        let (i3, s3) = patch_then_solve(
            &engine,
            &i2,
            &[GraphEdit::InsertEdge { from: 0, to: 4 }],
            &model,
            d,
            &mut warm,
        )
        .unwrap();
        assert_eq!(s3.algorithm, "vdd-lp-warm", "same LP: handle survives");
        let cold = engine.solve(&i3.view(), &model, d).unwrap();
        assert!((s3.energy - cold.energy).abs() <= 1e-6 * (1.0 + cold.energy));
        // A structural edit that changes the reduction spends the
        // handle: the next solve is cold again.
        let (_, s4) = patch_then_solve(
            &engine,
            &i3,
            &[GraphEdit::InsertEdge { from: 1, to: 2 }],
            &model,
            d,
            &mut warm,
        )
        .unwrap();
        assert_eq!(s4.algorithm, "vdd-lp");
    }

    #[test]
    fn invalid_patch_batches_are_rejected() {
        use std::sync::Arc;

        let g = generators::chain(&[1.0, 2.0]);
        let engine = Engine::new(P);
        let inst = PreparedInstance::new(Arc::new(g));
        let mut warm = None;
        let err = patch_then_solve(
            &engine,
            &inst,
            &[GraphEdit::InsertEdge { from: 1, to: 0 }],
            &EnergyModel::continuous_unbounded(),
            3.0,
            &mut warm,
        )
        .unwrap_err();
        assert!(matches!(err, SolveError::Unsupported(_)));
    }

    #[test]
    fn curve_shortcut_matches_pointwise_solves() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        let curve = engine.energy_curve(&prep, &model, 6, 0.8, 3.0).unwrap();
        assert_eq!(curve.len(), 6);
        for pt in &curve {
            let direct = engine.solve(&prep, &model, pt.deadline).unwrap().energy;
            assert!(
                (pt.energy - direct).abs() <= 1e-9 * (1.0 + direct),
                "scaling shortcut diverged at D = {}",
                pt.deadline
            );
        }
    }

    #[test]
    fn vdd_warm_sweep_matches_cold_solves() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let curve = engine.energy_curve(&prep, &model, 8, 1.05, 4.0).unwrap();
        assert!(curve.len() >= 7);
        for pt in &curve {
            let cold = engine.solve(&prep, &model, pt.deadline).unwrap().energy;
            assert!(
                (pt.energy - cold).abs() <= 1e-6 * (1.0 + cold),
                "warm LP diverged at D = {}: {} vs {}",
                pt.deadline,
                pt.energy,
                cold
            );
        }
        // Monotone non-increasing along the front.
        for w in curve.windows(2) {
            assert!(w[1].energy <= w[0].energy * (1.0 + 1e-6));
        }
    }

    #[test]
    fn exact_vdd_curve_matches_sampled_curve_pointwise() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let curve = engine.energy_curve_exact(&prep, &model, 1.05, 4.0).unwrap();
        assert!(curve.exact);
        assert!(!curve.segments.is_empty());
        // Contiguous, monotone boundaries; non-increasing energy.
        for w in curve.segments.windows(2) {
            assert!((w[0].deadline_hi - w[1].deadline_lo).abs() < 1e-9 * w[0].deadline_hi);
            assert!(w[0].deadline_lo < w[0].deadline_hi);
        }
        let sampled = engine.energy_curve(&prep, &model, 16, 1.05, 4.0).unwrap();
        for pt in &sampled {
            let exact = curve.energy_at(pt.deadline).unwrap();
            assert!(
                (exact - pt.energy).abs() <= 1e-6 * (1.0 + pt.energy),
                "exact {exact} vs sampled {} at D = {}",
                pt.energy,
                pt.deadline
            );
        }
    }

    #[test]
    fn exact_vdd_curve_warm_handle_skips_cold_lp() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        // Seed a warm handle the way the daemon does.
        let mut warm = None;
        engine.solve_warm(&prep, &model, 6.0, &mut warm).unwrap();
        assert!(warm.is_some());
        let a = engine
            .energy_curve_exact_warm(&prep, &model, 1.05, 4.0, &mut warm)
            .unwrap();
        assert!(warm.is_some(), "handle survives the walk");
        // A repeat request through the retained handle gives the same
        // value function (segment boundaries may differ at degenerate
        // ties between alternate optimal bases — the values may not).
        let b = engine
            .energy_curve_exact_warm(&prep, &model, 1.05, 4.0, &mut warm)
            .unwrap();
        assert!((a.deadline_lo() - b.deadline_lo()).abs() < 1e-9 * (1.0 + a.deadline_lo()));
        assert!((a.deadline_hi() - b.deadline_hi()).abs() < 1e-9 * (1.0 + a.deadline_hi()));
        for k in 0..=32 {
            let d = a.deadline_lo() + (a.deadline_hi() - a.deadline_lo()) * k as f64 / 32.0;
            let (ea, eb) = (a.energy_at(d).unwrap(), b.energy_at(d).unwrap());
            assert!(
                (ea - eb).abs() <= 1e-6 * (1.0 + ea),
                "repeat walk diverged at D = {d}: {ea} vs {eb}"
            );
        }
    }

    #[test]
    fn exact_continuous_curve_is_the_scaling_law() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        let curve = engine.energy_curve_exact(&prep, &model, 0.8, 3.0).unwrap();
        assert!(curve.exact);
        assert_eq!(curve.segments.len(), 1);
        for k in 0..8 {
            let d =
                curve.deadline_lo() + (curve.deadline_hi() - curve.deadline_lo()) * k as f64 / 7.0;
            let direct = engine.solve(&prep, &model, d).unwrap().energy;
            let exact = curve.energy_at(d).unwrap();
            assert!((exact - direct).abs() <= 1e-9 * (1.0 + direct));
        }
    }

    #[test]
    fn exact_discrete_curve_brackets_pointwise_solves() {
        // Discrete (bnb-tractable here): the adaptive fallback samples
        // real solves, so any deadline's interpolated energy must lie
        // between the true energies at its segment's endpoints
        // (monotone non-increasing curve).
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        let model = EnergyModel::Discrete(modes);
        let curve = engine.energy_curve_exact(&prep, &model, 1.05, 3.0).unwrap();
        assert!(!curve.exact);
        assert!(curve.stats.samples >= 9);
        for k in 1..8 {
            let d = curve.deadline_lo()
                * (curve.deadline_hi() / curve.deadline_lo()).powf(k as f64 / 8.0);
            let seg = curve.segment_at(d).unwrap();
            let e = curve.energy_at(d).unwrap();
            let hi_true = engine.solve(&prep, &model, seg.deadline_lo).unwrap().energy;
            let lo_true = engine.solve(&prep, &model, seg.deadline_hi).unwrap().energy;
            assert!(
                e <= hi_true * (1.0 + 1e-6) && e >= lo_true * (1.0 - 1e-6),
                "interpolated {e} outside [{lo_true}, {hi_true}] at D = {d}"
            );
        }
    }

    #[test]
    fn adaptive_curve_threads_the_barrier_chain_through_routing() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;

        let seeded = |engine: &Engine, g: &TaskGraph, model: &EnergyModel| {
            let curve = engine
                .energy_curve_exact(&PreparedGraph::new(g), model, 1.05, 3.0)
                .unwrap();
            assert!(!curve.exact);
            curve.stats.barrier_warm_seeded
        };
        let diamond = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        let discrete = EnergyModel::Discrete(modes);

        // Discrete past the exact limit: the round-up route.
        let past_limit = Engine::with_options(
            P,
            SolveOptions {
                exact_discrete_limit: 2,
                ..Default::default()
            },
        );
        assert!(seeded(&past_limit, &diamond, &discrete) > 0);
        // Incremental: the approximation route.
        let incremental = EnergyModel::Incremental(IncrementalModes::new(0.5, 2.0, 0.25).unwrap());
        assert!(seeded(&Engine::new(P), &diamond, &incremental) > 0);
        // Capped Continuous on a layered (general) DAG: the geometric
        // program route.
        let layered = generators::layered_dag(4, 3, 0.5, 1.0, 3.0, &mut StdRng::seed_from_u64(7));
        assert!(matches!(
            PreparedGraph::new(&layered).shape(),
            Shape::General
        ));
        assert!(seeded(&Engine::new(P), &layered, &EnergyModel::continuous(3.0)) > 0);
        // A tractable Discrete curve is all branch-and-bound, whose
        // round-up seed runs cold inside the search: the chain seeds
        // nothing.
        assert_eq!(seeded(&Engine::new(P), &diamond, &discrete), 0);
    }

    #[test]
    fn exact_curve_rejects_structurally_stale_warm_handle() {
        use taskgraph::edit::GraphEdit;

        // A handle built over one precedence structure must not walk
        // a curve for a structurally different (same-n) graph: the
        // engine has to detect the stale basis, ledger it, and rebuild
        // cold — matching the edited graph's true optimum.
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let inst = PreparedInstance::new(std::sync::Arc::new(g));
        let mut warm = None;
        engine
            .solve_warm(&inst.view(), &model, 6.0, &mut warm)
            .unwrap();
        let patched = inst
            .apply(&[GraphEdit::InsertEdge { from: 1, to: 2 }])
            .unwrap();
        let before = super::profiling::counts();
        let curve = engine
            .energy_curve_exact_warm(&patched.view(), &model, 1.05, 3.0, &mut warm)
            .unwrap();
        let delta = super::profiling::counts() - before;
        assert_eq!(delta.warm_lost, 1, "stale handle must be ledgered");
        // The curve must describe the *edited* graph.
        for k in 0..6 {
            let d =
                curve.deadline_lo() + (curve.deadline_hi() - curve.deadline_lo()) * k as f64 / 5.0;
            let cold = engine.solve(&patched.view(), &model, d).unwrap().energy;
            let exact = curve.energy_at(d).unwrap();
            assert!(
                (exact - cold).abs() <= 1e-6 * (1.0 + cold),
                "stale-handle curve wrong at D = {d}: {exact} vs {cold}"
            );
        }
    }

    #[test]
    fn exact_curve_clamps_infeasible_prefix_and_rejects_empty_range() {
        let g = generators::chain(&[4.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        // dmin = 2; lo_factor 0.5 starts below it: clamped, not fatal.
        let curve = engine.energy_curve_exact(&prep, &model, 0.5, 3.0).unwrap();
        assert!((curve.deadline_lo() - 2.0).abs() < 1e-9);
        // A range entirely below dmin is infeasible.
        assert!(matches!(
            engine.energy_curve_exact(&prep, &model, 0.2, 0.5),
            Err(SolveError::Infeasible { .. })
        ));
        assert!(matches!(
            engine.energy_curve_exact(&prep, &model, 2.0, 1.0),
            Err(SolveError::Unsupported(_))
        ));
    }

    #[test]
    fn solve_deadlines_vdd_warm_chain_keeps_caller_order() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        // Unsorted, with duplicates and an infeasible entry.
        let deadlines = [8.0, 5.0, 1.0, 6.5, 5.0, 12.0];
        let results = engine.solve_deadlines(&prep, &model, &deadlines);
        assert_eq!(results.len(), deadlines.len());
        assert!(matches!(results[2], Err(SolveError::Infeasible { .. })));
        for (i, &d) in deadlines.iter().enumerate() {
            if i == 2 {
                continue;
            }
            let sol = results[i].as_ref().unwrap();
            let cold = engine.solve(&prep, &model, d).unwrap();
            assert!(
                (sol.energy - cold.energy).abs() <= 1e-6 * (1.0 + cold.energy),
                "order-restored result at index {i} (D = {d})"
            );
        }
        // The duplicate pair shares one solve (identical results).
        let (a, b) = (results[1].as_ref().unwrap(), results[4].as_ref().unwrap());
        assert_eq!(a.energy.to_bits(), b.energy.to_bits());
        // Only the smallest feasible deadline runs cold; the rest of
        // the chain re-optimizes the retained basis.
        let warm_tags = results
            .iter()
            .filter(|r| r.as_ref().is_ok_and(|s| s.algorithm == "vdd-lp-warm"))
            .count();
        assert!(warm_tags >= 3, "warm chain must carry the sweep");
    }

    #[test]
    fn warm_lost_counter_ledgers_spent_handles() {
        use taskgraph::edit::GraphEdit;

        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let inst = PreparedInstance::new(std::sync::Arc::new(g));
        let mut warm = None;
        engine
            .solve_warm(&inst.view(), &model, 6.0, &mut warm)
            .unwrap();
        assert!(warm.is_some());
        // A structural edit invalidates the basis; feeding the stale
        // handle a structurally different instance must be ledgered.
        let patched = inst
            .apply(&[GraphEdit::InsertEdge { from: 1, to: 2 }])
            .unwrap();
        let before = super::profiling::counts();
        engine
            .solve_warm(&patched.view(), &model, 6.0, &mut warm)
            .unwrap();
        let delta = super::profiling::counts() - before;
        assert_eq!(delta.warm_lost, 1, "spent handle must be counted");
    }

    #[test]
    fn warm_handle_across_a_task_count_change_is_lost_not_fatal() {
        // A handle built before an `AddTask` patch no longer matches
        // the LP's size: both warm entry points must ledger it and
        // answer exactly what a cold solve answers.
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let engine = Engine::new(P);
        let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let model = EnergyModel::VddHopping(modes);
        let inst = PreparedInstance::new(std::sync::Arc::new(g));
        let patched = inst
            .apply(&[GraphEdit::AddTask {
                weight: 2.0,
                preds: vec![1],
                succs: vec![4],
            }])
            .unwrap();
        let stale = || {
            let mut warm = None;
            engine
                .solve_warm(&inst.view(), &model, 6.0, &mut warm)
                .unwrap();
            warm
        };

        let mut warm = stale();
        let before = super::profiling::counts();
        let sol = engine
            .solve_warm(&patched.view(), &model, 6.0, &mut warm)
            .unwrap();
        assert_eq!((super::profiling::counts() - before).warm_lost, 1);
        let cold = engine.solve(&patched.view(), &model, 6.0).unwrap();
        assert_eq!(sol.algorithm, "vdd-lp");
        assert_eq!(sol.energy.to_bits(), cold.energy.to_bits());
        assert!(warm.is_some(), "the cold solve refills the handle");

        let mut warm = stale();
        let before = super::profiling::counts();
        let curve = engine
            .energy_curve_exact_warm(&patched.view(), &model, 1.05, 3.0, &mut warm)
            .unwrap();
        assert_eq!((super::profiling::counts() - before).warm_lost, 1);
        let cold = engine
            .energy_curve_exact(&patched.view(), &model, 1.05, 3.0)
            .unwrap();
        assert!(curve.exact);
        assert_eq!(curve, cold);
        assert!(warm.is_some(), "the cold walk refills the handle");
    }

    #[test]
    fn curve_is_monotone_decreasing() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        for model in [
            EnergyModel::continuous(2.0),
            EnergyModel::VddHopping(modes.clone()),
            EnergyModel::Discrete(modes),
        ] {
            let curve = engine.energy_curve(&prep, &model, 6, 1.05, 4.0).unwrap();
            assert!(curve.len() >= 5, "{}", model.name());
            for w in curve.windows(2) {
                assert!(w[0].deadline < w[1].deadline);
                assert!(
                    w[1].energy <= w[0].energy * (1.0 + 1e-6),
                    "{}: energy must decrease along the front",
                    model.name()
                );
            }
        }
    }

    #[test]
    fn unbounded_continuous_uses_unit_speed_reference() {
        let g = generators::chain(&[2.0, 2.0]);
        let prep = PreparedGraph::new(&g);
        let curve = Engine::new(P)
            .energy_curve(&prep, &EnergyModel::continuous_unbounded(), 3, 0.5, 2.0)
            .unwrap();
        assert_eq!(curve.len(), 3);
        // E(D) = (Σw)³/D²: check the first point.
        let d0 = curve[0].deadline;
        assert!((curve[0].energy - 64.0 / (d0 * d0)).abs() < 1e-6);
    }

    #[test]
    fn infeasible_points_are_skipped_not_fatal() {
        let g = generators::chain(&[4.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        // lo_factor < 1: the first points sit below dmin.
        let curve = engine
            .energy_curve(&prep, &EnergyModel::Discrete(modes), 5, 0.5, 3.0)
            .unwrap();
        assert!(!curve.is_empty() && curve.len() < 5);
    }

    #[test]
    fn bad_curve_parameters_error_instead_of_panicking() {
        let g = generators::chain(&[1.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        assert!(matches!(
            engine.energy_curve(&prep, &model, 1, 1.0, 2.0),
            Err(SolveError::Unsupported(_))
        ));
        assert!(matches!(
            engine.energy_curve(&prep, &model, 4, 2.0, 1.0),
            Err(SolveError::Unsupported(_))
        ));
    }

    #[test]
    fn rejects_bad_factors() {
        let g = generators::chain(&[1.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        for (lo, hi) in [
            (2.0, 1.0),
            (1.5, 1.5),
            (0.0, 2.0),
            (-1.0, 2.0),
            (f64::NAN, 2.0),
        ] {
            assert!(
                matches!(
                    engine.energy_curve(&prep, &model, 3, lo, hi),
                    Err(SolveError::Unsupported(_))
                ),
                "factors ({lo}, {hi})"
            );
        }
    }

    #[test]
    fn too_few_points_error_instead_of_panicking() {
        let g = generators::chain(&[1.0]);
        let engine = Engine::new(P);
        let prep = PreparedGraph::new(&g);
        let model = EnergyModel::continuous_unbounded();
        for points in [0, 1] {
            assert!(matches!(
                engine.energy_curve(&prep, &model, points, 1.0, 2.0),
                Err(SolveError::Unsupported(_))
            ));
        }
    }
}
