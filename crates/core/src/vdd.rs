//! Vdd-Hopping solver (Theorem 3): polynomial time via linear
//! programming.
//!
//! Under Vdd-Hopping a task may switch between modes during execution,
//! so the decision per task is *how much time to spend in each mode*.
//! With variables `x_{ij}` (time task `i` runs at mode `s_j`) and
//! completion times `t_i`, `MinEnergy(Ĝ, D)` becomes the LP
//!
//! ```text
//! minimize   Σ_{i,j} s_j^α · x_{ij}
//! subject to Σ_j s_j · x_{ij} = w_i                (work completion)
//!            t_u + Σ_j x_{vj} ≤ t_v   ∀ (u,v) ∈ Ê  (precedence)
//!            Σ_j x_{ij} ≤ t_i                      (start ≥ 0)
//!            t_i ≤ D
//!            x_{ij}, t_i ≥ 0
//! ```
//!
//! solved by the `lp` crate's two-phase simplex. The LP optimum uses
//! at most two (consecutive) modes per task in basic solutions, which
//! is the "mix two consecutive modes optimally" intuition of the
//! paper's conclusion.
//!
//! [`adjacent_mix`] is the *heuristic* the conclusion contrasts with:
//! take the continuous optimum and emulate each continuous speed by
//! mixing its two bracketing modes, keeping per-task durations. It is
//! always feasible but not always optimal, because the LP can also
//! *rebalance durations between tasks* — experiment F4 quantifies the
//! gap.

use crate::continuous;
use crate::error::SolveError;
use lp::{LpSolution, Problem, Relation};
use models::{DiscreteModes, PowerLaw, Schedule, SpeedProfile};
use taskgraph::{PreparedGraph, TaskGraph};

/// Minimum piece duration kept in an extracted profile (pure noise
/// below this).
const PIECE_EPS: f64 = 1e-10;

/// Solve Vdd-Hopping exactly via the LP of Theorem 3: the schedule of
/// [`solve_lp_warm`] without its warm handle.
///
/// Returns the optimal schedule (piecewise-constant speed profiles and
/// explicit start times taken from the LP's completion-time
/// variables). The transitive reduction and critical path come from
/// the shared cache instead of being re-derived per call.
pub fn solve_lp_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<Schedule, SolveError> {
    solve_lp_warm(prep, deadline, modes, p).map(|(sched, _)| sched)
}

/// A retained, re-optimizable Theorem 3 LP for **one graph structure
/// and mode ladder** — the warm-start substrate of deadline sweeps,
/// edited re-solves and exact curves, all driven through
/// [`crate::engine::Engine::solve_warm`] and
/// [`crate::engine::Engine::energy_curve_exact_warm`].
///
/// A deadline move shifts the RHS of the `t_i ≤ D` rows. Weight edits
/// are the same parametric situation one row-block over: a task cost
/// `w_i` is the RHS of the work-completion row `Σ_j s_j·x_{ij} = w_i`.
/// Either keeps the LP's *matrix* (hence the retained basis's dual
/// feasibility) intact and moves only `b`. [`VddWarm::resolve`]
/// re-optimizes with a few dual-simplex pivots
/// ([`lp::PreparedLp::resolve_rhs`]) instead of a cold two-phase run.
///
/// The handle is tied to the precedence structure the LP was built
/// over: it stays valid across any number of weight and deadline
/// changes, and must be discarded after edits that change the LP
/// ([`crate::engine::vdd_basis_survives`] decides). Offered a graph
/// with another task count, it reports itself spent.
pub struct VddWarm {
    lp: lp::PreparedLp,
    deadline_rows: Vec<usize>,
    modes: DiscreteModes,
    n: usize,
}

/// The one Theorem 3 LP solve: the optimal schedule plus a [`VddWarm`]
/// handle that can re-solve the instance after weight and/or deadline
/// changes without a cold LP.
pub fn solve_lp_warm(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> Result<(Schedule, VddWarm), SolveError> {
    continuous::check_feasible_prepared(prep, deadline, Some(modes.s_max()))?;
    let (prob, deadline_rows) = build_lp(prep, deadline, modes, p);
    let (sol, handle) = prob
        .solve_prepared()
        .map_err(|e| lp_error(prep, deadline, modes, e))?;
    let sched = extract_schedule(prep.graph(), modes, &sol);
    Ok((
        sched,
        VddWarm {
            lp: handle,
            deadline_rows,
            modes: modes.clone(),
            n: prep.graph().n(),
        },
    ))
}

impl VddWarm {
    /// Re-solve against `prep`'s (possibly edited) weights and a new
    /// deadline, starting from the retained optimal basis.
    ///
    /// `prep` must describe the same precedence structure the handle
    /// was built over — weight-only edits qualify, structural edits do
    /// not. Errors other than [`SolveError::Infeasible`] mean the warm
    /// basis could not be re-optimized (e.g.
    /// [`lp::LpError::WarmStartLost`], or a changed task count); the
    /// handle is then spent and the caller should fall back to a cold
    /// solve.
    pub fn resolve(
        &mut self,
        prep: &PreparedGraph<'_>,
        deadline: f64,
    ) -> Result<Schedule, SolveError> {
        let sol = self.reposition(prep, deadline)?;
        Ok(extract_schedule(prep.graph(), &self.modes, &sol))
    }

    /// The mode ladder the handle was built over.
    pub fn modes(&self) -> &DiscreteModes {
        &self.modes
    }

    /// Walk the **exact** energy–deadline curve `E*(D)` for
    /// `D ∈ [d_lo, d_hi]` by parametric-RHS dual simplex
    /// ([`lp::PreparedLp::parametric_rhs`]): the Theorem-3 LP's
    /// deadline rows `t_i ≤ D` are exactly the ray `b + t·𝟙`, so the
    /// optimal energy is piecewise **affine in `D`** and the whole
    /// curve costs one basis walk — one dual pivot per breakpoint, no
    /// per-sample work at all.
    ///
    /// The returned ray's segments carry `t` in **absolute deadline
    /// units** (`t_lo`/`t_hi` are deadlines, `value_*` are energies).
    /// The handle is first re-positioned at `d_lo` (refreshing the
    /// work rows from `prep`'s weights, like [`VddWarm::resolve`]) and
    /// is left positioned at the end of the walk, still usable.
    ///
    /// Errors: [`SolveError::Infeasible`] when `d_lo` is below the
    /// instance's minimum makespan; [`SolveError::Numerical`] when the
    /// warm basis cannot drive the walk (callers fall back to the
    /// sampled sweep).
    pub fn deadline_ray(
        &mut self,
        prep: &PreparedGraph<'_>,
        d_lo: f64,
        d_hi: f64,
    ) -> Result<lp::RhsRay, SolveError> {
        let sol = self.reposition(prep, d_lo)?;
        // The handle carries the *matrix* it was built over. A stale
        // handle — same task count, different precedence — would walk
        // a curve for the wrong constraint set and label it exact, so
        // validate the repositioned optimum against the caller's graph
        // exactly as the warm solve paths do; a stale basis fails the
        // precedence check and routes the caller to a cold rebuild.
        let g = prep.graph();
        let sched = extract_schedule(g, &self.modes, &sol);
        sched
            .validate(
                g,
                &models::EnergyModel::VddHopping(self.modes.clone()),
                d_lo,
            )
            .map_err(|e| SolveError::Numerical(format!("warm basis stale for this graph: {e}")))?;
        let dir: Vec<(usize, f64)> = self.deadline_rows.iter().map(|&r| (r, 1.0)).collect();
        let mut ray = self
            .lp
            .parametric_rhs(&dir, d_hi - d_lo)
            .map_err(|e| SolveError::Numerical(format!("deadline ray walk: {e}")))?;
        // Shift the ray parameter into absolute deadline units.
        for s in &mut ray.segments {
            s.t_lo += d_lo;
            if s.t_hi.is_finite() {
                s.t_hi += d_lo;
            }
        }
        Ok(ray)
    }

    /// Move the retained LP onto `prep`'s weights and `deadline` and
    /// re-optimize it from the retained basis — the step both
    /// [`VddWarm::resolve`] and [`VddWarm::deadline_ray`] start with.
    fn reposition(
        &mut self,
        prep: &PreparedGraph<'_>,
        deadline: f64,
    ) -> Result<LpSolution, SolveError> {
        let g = prep.graph();
        if g.n() != self.n {
            return Err(SolveError::Numerical(format!(
                "warm Vdd LP was built over {} tasks, not {}",
                self.n,
                g.n()
            )));
        }
        continuous::check_feasible_prepared(prep, deadline, Some(self.modes.s_max()))?;
        // Work rows are rows 0..n by construction (`build_lp` adds
        // them first); unchanged RHS entries are skipped inside
        // `resolve_rhs`, so passing the full block is O(changed).
        let mut changes: Vec<(usize, f64)> = g
            .weights()
            .iter()
            .enumerate()
            .map(|(i, &w)| (i, w))
            .collect();
        changes.extend(self.deadline_rows.iter().map(|&r| (r, deadline)));
        self.lp.resolve_rhs(&changes).map_err(|e| match e {
            lp::LpError::Infeasible => SolveError::Infeasible {
                deadline,
                min_makespan: prep.critical_path_weight() / self.modes.s_max(),
            },
            other => SolveError::Numerical(format!("warm Vdd LP: {other}")),
        })
    }
}

/// Build the Theorem 3 LP. Returns the problem and the row indices of
/// the per-task deadline rows `t_i ≤ D` (for parametric re-solves).
fn build_lp(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    p: PowerLaw,
) -> (Problem, Vec<usize>) {
    let g = prep.graph();
    let n = g.n();
    let m = modes.m();
    let x = |i: usize, j: usize| i * m + j;
    let t = |i: usize| n * m + i;
    let mut prob = Problem::new(n * m + n);

    // Objective: Σ s_j^α x_ij.
    let mut obj = Vec::with_capacity(n * m);
    for i in 0..n {
        for (j, &s) in modes.speeds().iter().enumerate() {
            obj.push((x(i, j), p.power(s)));
        }
    }
    prob.set_objective(&obj);

    // Work completion.
    for i in 0..n {
        let coeffs: Vec<(usize, f64)> = modes
            .speeds()
            .iter()
            .enumerate()
            .map(|(j, &s)| (x(i, j), s))
            .collect();
        prob.add_constraint(&coeffs, Relation::Eq, g.weights()[i]);
    }
    // Precedence: t_u + d_v − t_v ≤ 0 (transitively reduced — same
    // feasible set, fewer simplex rows).
    for &(u, v) in prep.reduced().edges() {
        let mut coeffs: Vec<(usize, f64)> = vec![(t(u.0), 1.0), (t(v.0), -1.0)];
        for j in 0..m {
            coeffs.push((x(v.0, j), 1.0));
        }
        prob.add_constraint(&coeffs, Relation::Le, 0.0);
    }
    // Start ≥ 0 and deadline.
    let mut deadline_rows = Vec::with_capacity(n);
    for i in 0..n {
        let mut coeffs: Vec<(usize, f64)> = vec![(t(i), -1.0)];
        for j in 0..m {
            coeffs.push((x(i, j), 1.0));
        }
        prob.add_constraint(&coeffs, Relation::Le, 0.0);
        deadline_rows.push(prob.nrows());
        prob.add_constraint(&[(t(i), 1.0)], Relation::Le, deadline);
    }
    (prob, deadline_rows)
}

fn lp_error(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &DiscreteModes,
    e: lp::LpError,
) -> SolveError {
    match e {
        lp::LpError::Infeasible => SolveError::Infeasible {
            deadline,
            min_makespan: prep.critical_path_weight() / modes.s_max(),
        },
        other => SolveError::Numerical(other.to_string()),
    }
}

/// Extract per-task profiles and start times from an LP solution.
fn extract_schedule(g: &TaskGraph, modes: &DiscreteModes, sol: &LpSolution) -> Schedule {
    let n = g.n();
    let m = modes.m();
    let x = |i: usize, j: usize| i * m + j;
    let t = |i: usize| n * m + i;
    let mut starts = Vec::with_capacity(n);
    let mut profiles = Vec::with_capacity(n);
    for i in 0..n {
        let mut pieces: Vec<(f64, f64)> = Vec::new();
        for (j, &s) in modes.speeds().iter().enumerate() {
            let dur = sol.x[x(i, j)];
            if dur > PIECE_EPS {
                pieces.push((s, dur));
            }
        }
        // Guard against an all-noise extraction (cannot happen for a
        // consistent LP, but keep the schedule well-formed).
        if pieces.is_empty() {
            pieces.push((modes.s_max(), g.weights()[i] / modes.s_max()));
        }
        // Remove tiny work drift from the simplex tolerance by scaling
        // piece durations so ∫ s dt = w_i exactly.
        let done: f64 = pieces.iter().map(|&(s, d)| s * d).sum();
        let scale = g.weights()[i] / done;
        for piece in &mut pieces {
            piece.1 *= scale;
        }
        let duration: f64 = pieces.iter().map(|&(_, d)| d).sum();
        let completion = sol.x[t(i)];
        starts.push((completion - duration).max(0.0));
        profiles.push(if pieces.len() == 1 {
            SpeedProfile::Constant(pieces[0].0)
        } else {
            SpeedProfile::Pieces(pieces)
        });
    }
    Schedule::new(starts, profiles)
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
    let mut profiles = Vec::with_capacity(g.n());
    for (&w, &s_star) in g.weights().iter().zip(&speeds) {
        let profile = match modes.bracket(s_star) {
            None => {
                // Below the slowest mode: run flat at s_1.
                SpeedProfile::Constant(modes.s_min())
            }
            Some((lo, hi)) if (hi - lo).abs() <= 1e-12 * (1.0 + hi) => SpeedProfile::Constant(lo),
            Some((lo, hi)) => {
                let d = w / s_star;
                // x_hi·hi + (d − x_hi)·lo = w  ⇒  x_hi = (w − lo·d)/(hi − lo)
                let x_hi = (w - lo * d) / (hi - lo);
                let x_lo = d - x_hi;
                debug_assert!(x_hi >= -1e-9 && x_lo >= -1e-9);
                SpeedProfile::Pieces(vec![(lo, x_lo.max(0.0)), (hi, x_hi.max(0.0))])
            }
        };
        profiles.push(profile);
    }
    Ok(Schedule::asap_from_profiles(g, profiles))
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::EnergyModel;
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
        // Deadline exactly w/s for mode 2: LP picks the single mode.
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
        // against an independent cold LP on the edited graph.
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
        let ray = warm.deadline_ray(&prep, d_lo, d_hi).unwrap();
        assert!(!ray.segments.is_empty());
        // Contiguous, monotone segment boundaries spanning [d_lo, d_hi].
        assert!((ray.segments[0].t_lo - d_lo).abs() < 1e-9 * d_lo);
        for w in ray.segments.windows(2) {
            assert!((w[0].t_hi - w[1].t_lo).abs() < 1e-9 * (1.0 + w[0].t_hi.abs()));
        }
        // Energy non-increasing in D, and pointwise equal to cold LPs.
        for k in 0..=16 {
            let d = d_lo + (d_hi - d_lo) * k as f64 / 16.0;
            let exact = ray.value_at(d).unwrap();
            let cold = solve_lp_prepared(&prep, d, &ms, P).unwrap().energy(&g, P);
            assert!(
                (exact - cold).abs() <= 1e-6 * (1.0 + cold),
                "ray {exact} vs cold {cold} at D = {d}"
            );
        }
        for w in ray.segments.windows(2) {
            assert!(w[1].value_lo <= w[0].value_lo * (1.0 + 1e-9));
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
        // fires before any tableau work).
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
}
