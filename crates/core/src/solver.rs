//! Unified entry point: dispatch `MinEnergy(Ĝ, D)` on the energy
//! model and the detected graph shape.
//!
//! [`solve`] and [`solve_with`] are thin compatibility wrappers over
//! the [`crate::engine`]: they prepare the graph transiently and run
//! it through the engine's model → algorithm routing. Callers that
//! solve the same graph repeatedly should hold a
//! [`taskgraph::PreparedGraph`] and an [`crate::engine::Engine`]
//! instead, so the analysis is paid once.

use crate::error::SolveError;
use models::{EnergyModel, PowerLaw, Schedule};
use taskgraph::TaskGraph;

/// A solved instance: the schedule plus its bookkeeping.
#[derive(Debug, Clone)]
pub struct Solution {
    /// The feasible (validated) schedule.
    pub schedule: Schedule,
    /// Total dynamic energy of the schedule.
    pub energy: f64,
    /// Which algorithm produced it (for reporting).
    pub algorithm: &'static str,
}

/// Tuning knobs for [`solve_with`].
#[derive(Debug, Clone, Copy)]
pub struct SolveOptions {
    /// Precision parameter `K` for the approximation algorithms
    /// (Theorem 5 / Proposition 1).
    pub precision_k: u32,
    /// Largest task count for which the Discrete model is solved
    /// exactly by branch-and-bound; beyond it the Proposition 1(b)
    /// rounding is used (Theorem 4: exact is NP-hard).
    pub exact_discrete_limit: usize,
    /// Solve Incremental exactly (branch-and-bound on the grid)
    /// instead of the Theorem 5 approximation, subject to the same
    /// task-count limit.
    pub exact_incremental: bool,
}

impl Default for SolveOptions {
    fn default() -> Self {
        SolveOptions {
            precision_k: 10_000,
            exact_discrete_limit: 24,
            exact_incremental: false,
        }
    }
}

/// Solve `MinEnergy(Ĝ, D)` under the given model with default options.
///
/// * Continuous → exact closed form when the shape allows (Theorems 1
///   and 2), otherwise the geometric program (§2.1);
/// * Vdd-Hopping → the Theorem 3 LP as a min-cost flow (exact, polynomial);
/// * Discrete → exact branch-and-bound up to
///   [`SolveOptions::exact_discrete_limit`] tasks, then the
///   Proposition 1(b) rounding approximation;
/// * Incremental → the Theorem 5 approximation (exact on request via
///   [`SolveOptions::exact_incremental`]).
///
/// The returned schedule is always validated against the model and
/// deadline before being handed back.
///
/// ```
/// use models::{EnergyModel, PowerLaw};
/// use taskgraph::TaskGraph;
///
/// // A two-task chain with 6 units of work and deadline 3:
/// // the optimum runs both tasks at speed 2 → energy 2²·6 = 24.
/// let g = TaskGraph::new(vec![2.0, 4.0], &[(0, 1)]).unwrap();
/// let sol = reclaim_core::solve(
///     &g, 3.0, &EnergyModel::continuous_unbounded(), PowerLaw::CUBIC,
/// ).unwrap();
/// assert!((sol.energy - 24.0).abs() < 1e-9);
/// ```
pub fn solve(
    g: &TaskGraph,
    deadline: f64,
    model: &EnergyModel,
    p: PowerLaw,
) -> Result<Solution, SolveError> {
    solve_with(g, deadline, model, p, SolveOptions::default())
}

/// [`solve`] with explicit options.
pub fn solve_with(
    g: &TaskGraph,
    deadline: f64,
    model: &EnergyModel,
    p: PowerLaw,
    opts: SolveOptions,
) -> Result<Solution, SolveError> {
    crate::engine::Engine::with_options(p, opts).solve_graph(g, model, deadline)
}

/// The seed's hand-rolled `match` dispatcher, retained verbatim as a
/// differential-testing oracle for the engine (see the
/// `engine_equivalence` property suite). Not part of the public API.
#[doc(hidden)]
pub mod reference {
    use super::*;
    use crate::discrete::BnbConfig;
    use crate::{continuous, discrete, incremental, vdd};
    use taskgraph::PreparedGraph;

    /// The pre-engine dispatch of [`solve_with`].
    pub fn solve_with(
        g: &TaskGraph,
        deadline: f64,
        model: &EnergyModel,
        p: PowerLaw,
        opts: SolveOptions,
    ) -> Result<Solution, SolveError> {
        let prep = PreparedGraph::new(g);
        let (schedule, algorithm) = match model {
            EnergyModel::Continuous { s_max } => {
                let speeds = continuous::solve_dispatched(&prep, deadline, *s_max, p, None)?;
                (Schedule::asap_from_speeds(g, &speeds), "continuous")
            }
            EnergyModel::VddHopping(modes) => {
                (vdd::solve_lp_prepared(&prep, deadline, modes, p)?, "vdd-lp")
            }
            EnergyModel::Discrete(modes) => {
                // Exact only when the search space is plausibly tractable
                // (Theorem 4: it is exponential); if the node budget still
                // trips, return the anytime incumbent when the search holds
                // one, and degrade gracefully to the Proposition 1(b)
                // rounding otherwise.
                let tractable = g.n() <= opts.exact_discrete_limit
                    && (modes.m() as f64).powi(g.n() as i32) <= 5e9;
                let exact_result = if tractable {
                    match discrete::exact(&prep, deadline, modes, p, &BnbConfig::default()) {
                        Ok(sol) => Some(sol),
                        // Budget trip with no incumbent.
                        Err(SolveError::BudgetExhausted { .. }) => None,
                        Err(e) => return Err(e),
                    }
                } else {
                    None
                };
                match exact_result {
                    Some(sol) => (
                        Schedule::asap_from_speeds(g, &sol.speeds),
                        if sol.complete {
                            "discrete-bnb"
                        } else {
                            "discrete-bnb-anytime"
                        },
                    ),
                    None => {
                        let k = Some(opts.precision_k);
                        let speeds = discrete::round_up_prepared(&prep, deadline, modes, p, k)?;
                        (Schedule::asap_from_speeds(g, &speeds), "discrete-round-up")
                    }
                }
            }
            EnergyModel::Incremental(modes) => {
                let tractable = g.n() <= opts.exact_discrete_limit
                    && (modes.m() as f64).powi(g.n() as i32) <= 5e9;
                let exact_result = if opts.exact_incremental && tractable {
                    let grid = modes.to_discrete();
                    match discrete::exact(&prep, deadline, &grid, p, &BnbConfig::default()) {
                        Ok(sol) => Some(sol),
                        Err(SolveError::BudgetExhausted { .. }) => None,
                        Err(e) => return Err(e),
                    }
                } else {
                    None
                };
                match exact_result {
                    Some(sol) => (
                        Schedule::asap_from_speeds(g, &sol.speeds),
                        if sol.complete {
                            "incremental-bnb"
                        } else {
                            "incremental-bnb-anytime"
                        },
                    ),
                    None => {
                        let k = opts.precision_k;
                        let speeds = incremental::approx_prepared(&prep, deadline, modes, p, k)?;
                        (Schedule::asap_from_speeds(g, &speeds), "incremental-approx")
                    }
                }
            }
        };
        schedule
            .validate(g, model, deadline)
            .map_err(|e| SolveError::Numerical(format!("produced schedule invalid: {e}")))?;
        let energy = schedule.energy(g, p);
        Ok(Solution {
            schedule,
            energy,
            algorithm,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::{DiscreteModes, IncrementalModes};
    use taskgraph::generators;

    const P: PowerLaw = PowerLaw::CUBIC;

    #[test]
    fn model_dominance_on_diamond() {
        // E_continuous ≤ E_vdd ≤ E_discrete and E_incremental-exact ≥
        // E_vdd(grid): the paper's whole point, checked end to end.
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let d = 5.0;
        let ms = DiscreteModes::new(&[0.8, 1.6, 2.4]).unwrap();
        let inc = IncrementalModes::new(0.8, 2.4, 0.8).unwrap();

        let e_cont = solve(&g, d, &EnergyModel::continuous(2.4), P)
            .unwrap()
            .energy;
        let e_vdd = solve(&g, d, &EnergyModel::VddHopping(ms.clone()), P)
            .unwrap()
            .energy;
        let e_disc = solve(&g, d, &EnergyModel::Discrete(ms), P).unwrap().energy;
        let e_inc = solve_with(
            &g,
            d,
            &EnergyModel::Incremental(inc),
            P,
            SolveOptions {
                exact_incremental: true,
                ..Default::default()
            },
        )
        .unwrap()
        .energy;

        let tol = 1.0 + 1e-6;
        assert!(e_cont <= e_vdd * tol, "cont {e_cont} vs vdd {e_vdd}");
        assert!(e_vdd <= e_disc * tol, "vdd {e_vdd} vs disc {e_disc}");
        // The incremental grid here equals the discrete mode set, so
        // the exact optima coincide.
        assert!((e_inc - e_disc).abs() < 1e-6 * e_disc);
    }

    #[test]
    fn every_model_returns_validated_schedules() {
        let g = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
        let d = 6.0;
        let ms = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
        let inc = IncrementalModes::new(0.5, 2.0, 0.25).unwrap();
        for model in [
            EnergyModel::continuous_unbounded(),
            EnergyModel::continuous(2.0),
            EnergyModel::VddHopping(ms.clone()),
            EnergyModel::Discrete(ms),
            EnergyModel::Incremental(inc),
        ] {
            let sol =
                solve(&g, d, &model, P).unwrap_or_else(|e| panic!("{} failed: {e}", model.name()));
            assert!(sol.energy > 0.0);
            assert!(sol.schedule.makespan(&g) <= d * (1.0 + 1e-6));
        }
    }

    #[test]
    fn discrete_falls_back_to_rounding_beyond_limit() {
        let g = generators::chain(&[1.0, 2.0, 1.0]);
        let ms = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        let opts = SolveOptions {
            exact_discrete_limit: 2,
            ..Default::default()
        };
        let sol = solve_with(&g, 3.0, &EnergyModel::Discrete(ms), P, opts).unwrap();
        assert_eq!(sol.algorithm, "discrete-round-up");
    }

    #[test]
    fn infeasible_instances_error_for_all_models() {
        let g = generators::chain(&[10.0]);
        let ms = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        let inc = IncrementalModes::new(1.0, 2.0, 0.5).unwrap();
        for model in [
            EnergyModel::continuous(2.0),
            EnergyModel::VddHopping(ms.clone()),
            EnergyModel::Discrete(ms),
            EnergyModel::Incremental(inc),
        ] {
            assert!(
                matches!(
                    solve(&g, 4.0, &model, P),
                    Err(SolveError::Infeasible { .. })
                ),
                "{} should be infeasible",
                model.name()
            );
        }
    }
}
