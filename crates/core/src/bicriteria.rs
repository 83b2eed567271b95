//! The bicriteria view: the paper minimizes energy under a deadline;
//! this module answers the inverse question — the smallest deadline
//! achievable within an **energy budget** — which traces the same
//! Pareto front from the other axis.
//!
//! For unbounded Continuous speeds the scaling law
//! `E*(D) = E*(1)/D^{α−1}` gives a closed form; every other model is
//! handled by bisection over the (monotone) energy–deadline curve.

use crate::engine::Engine;
use crate::error::SolveError;
use models::{EnergyModel, PowerLaw};
use taskgraph::{PreparedGraph, TaskGraph};

/// Energy a bounded-speed model can never go below (every task at the
/// slowest admissible speed), or `None` for unbounded Continuous
/// (energy → 0 as D → ∞).
fn energy_floor(g: &TaskGraph, model: &EnergyModel, p: PowerLaw) -> Option<f64> {
    model
        .bottom_speed()
        .map(|s1| g.weights().iter().map(|&w| p.energy_at_speed(w, s1)).sum())
}

/// Smallest deadline whose optimal energy is at most `budget`
/// (relative precision `tol`).
///
/// Errors: `Infeasible` when even `D → ∞` cannot meet the budget
/// (the model's energy floor exceeds it), `Unsupported` for a
/// non-positive budget.
pub fn min_deadline_for_budget(
    g: &TaskGraph,
    model: &EnergyModel,
    p: PowerLaw,
    budget: f64,
    tol: f64,
) -> Result<f64, SolveError> {
    if !(budget > 0.0 && budget.is_finite()) {
        return Err(SolveError::Unsupported(format!(
            "invalid energy budget {budget}"
        )));
    }
    if let Some(floor) = energy_floor(g, model, p) {
        if budget < floor * (1.0 - 1e-12) {
            return Err(SolveError::Infeasible {
                deadline: f64::INFINITY,
                min_makespan: f64::INFINITY,
            });
        }
    }
    // One prepared graph for the whole bracket-and-bisect: the
    // analysis (topo order, shape, SP tree, critical path) is shared
    // by every probe solve instead of being re-derived dozens of
    // times.
    let engine = Engine::new(p);
    let prep = PreparedGraph::new(g);
    let solve = |d: f64| engine.solve(&prep, model, d).map(|s| s.energy);
    let cp = prep.critical_path_weight();

    // Closed form for unbounded Continuous: E(D) = E(cp)·(cp/D)^{α−1}.
    if matches!(model, EnergyModel::Continuous { s_max: None }) {
        let e_ref = solve(cp)?;
        let d = cp * (e_ref / budget).powf(1.0 / (p.alpha() - 1.0));
        return Ok(d);
    }

    // Bracket: lo = minimum feasible deadline; grow hi until the
    // budget is met.
    let s_top = model.top_speed().expect("bounded models have a top speed");
    let mut lo = cp / s_top * (1.0 + 1e-9);
    let e_lo = solve(lo)?;
    if e_lo <= budget {
        return Ok(lo);
    }
    let mut hi = lo * 2.0;
    let mut e_hi = solve(hi)?;
    let mut grow = 0;
    while e_hi > budget {
        hi *= 2.0;
        e_hi = solve(hi)?;
        grow += 1;
        if grow > 60 {
            return Err(SolveError::Infeasible {
                deadline: f64::INFINITY,
                min_makespan: f64::INFINITY,
            });
        }
    }
    // Bisection on the monotone curve.
    for _ in 0..100 {
        if (hi - lo) <= tol * hi {
            break;
        }
        let mid = 0.5 * (lo + hi);
        let e_mid = solve(mid)?;
        if e_mid <= budget {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::solve;
    use models::DiscreteModes;
    use taskgraph::generators;

    const P: PowerLaw = PowerLaw::CUBIC;

    #[test]
    fn continuous_closed_form_roundtrip() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.0]);
        let model = EnergyModel::continuous_unbounded();
        // Pick a deadline, get its energy, invert it.
        let d0 = 10.0;
        let e0 = solve(&g, d0, &model, P).unwrap().energy;
        let d = min_deadline_for_budget(&g, &model, P, e0, 1e-9).unwrap();
        assert!((d - d0).abs() < 1e-6 * d0, "{d} vs {d0}");
    }

    #[test]
    fn bounded_models_bisect_to_budget() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.0]);
        let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
        for model in [
            EnergyModel::continuous(2.0),
            EnergyModel::VddHopping(modes.clone()),
            EnergyModel::Discrete(modes),
        ] {
            let d_probe = 8.0;
            let e_probe = solve(&g, d_probe, &model, P).unwrap().energy;
            let budget = e_probe * 1.05;
            let d = min_deadline_for_budget(&g, &model, P, budget, 1e-6).unwrap();
            // The returned deadline's energy respects the budget...
            let e = solve(&g, d, &model, P).unwrap().energy;
            assert!(
                e <= budget * (1.0 + 1e-6),
                "{}: {e} > {budget}",
                model.name()
            );
            // ...and it is no looser than the probe deadline.
            assert!(
                d <= d_probe * (1.0 + 1e-6),
                "{}: {d} > {d_probe}",
                model.name()
            );
        }
    }

    #[test]
    fn budget_below_floor_is_infeasible() {
        let g = generators::chain(&[2.0, 2.0]);
        let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
        let model = EnergyModel::Discrete(modes.clone());
        let floor = energy_floor(&g, &model, P).unwrap();
        assert!((floor - 4.0).abs() < 1e-12); // 1²·4
        assert!(matches!(
            min_deadline_for_budget(&g, &model, P, floor * 0.9, 1e-6),
            Err(SolveError::Infeasible { .. })
        ));
        // Exactly the floor is reachable (loose deadline).
        let d = min_deadline_for_budget(&g, &model, P, floor * 1.0001, 1e-6).unwrap();
        let e = solve(&g, d, &model, P).unwrap().energy;
        assert!(e <= floor * 1.001);
    }

    #[test]
    fn generous_budget_returns_min_makespan() {
        let g = generators::chain(&[2.0, 2.0]);
        let model = EnergyModel::continuous(2.0);
        let d = min_deadline_for_budget(&g, &model, P, 1e9, 1e-9).unwrap();
        assert!((d - 2.0).abs() < 1e-6, "{d}"); // total 4 / s_max 2
    }

    #[test]
    fn invalid_budget_rejected() {
        let g = generators::chain(&[1.0]);
        let model = EnergyModel::continuous_unbounded();
        assert!(min_deadline_for_budget(&g, &model, P, -1.0, 1e-6).is_err());
        assert!(min_deadline_for_budget(&g, &model, P, f64::NAN, 1e-6).is_err());
    }
}
