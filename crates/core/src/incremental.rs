//! Incremental-model solvers: the Theorem 5 approximation.
//!
//! * [`approx_warm`] (and its cold face [`approx_prepared`]) — round
//!   the boxed Continuous relaxation up to the grid, through the same
//!   rounding body as `discrete::round_up_warm`;
//! * [`approx_bound`] — its guaranteed factor.
//!
//! The exact solve is the Discrete branch-and-bound on the
//! materialized grid, `discrete::exact` on
//! [`IncrementalModes::to_discrete`]: Incremental is Discrete with
//! regular spacing, so Theorem 4's NP-completeness covers it.

use crate::continuous;
use crate::discrete;
use crate::error::SolveError;
use models::{IncrementalModes, PowerLaw};
use taskgraph::PreparedGraph;

/// Theorem 5: for any integer `K > 0`, approximate
/// `MinEnergy(Ĝ, D)` within `(1 + δ/s_min)² · (1 + 1/K)²` in time
/// polynomial in the instance and in `K` (exponent 2 = `α_pow − 1`
/// for the paper's cubic power law), with a [`continuous::SweepWarm`]
/// chain threaded through the boxed relaxation for cheap sampled
/// energy–deadline curves (a point solve passes a fresh chain).
///
/// Algorithm: solve the Continuous relaxation boxed to
/// `[s_min, top_mode]` to relative precision `1/K` (polynomial: the
/// barrier method needs `O(log(m·K))` outer iterations), then round
/// each speed **up** to the next grid mode. Rounding up shrinks
/// durations, so the schedule stays feasible; each speed inflates by
/// at most `1 + δ/s_min`, hence the energy by at most
/// `(1 + δ/s_min)^{α−1}`.
pub fn approx_warm(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &IncrementalModes,
    p: PowerLaw,
    k: u32,
    warm: &mut continuous::SweepWarm,
) -> Result<Vec<f64>, SolveError> {
    if k == 0 {
        // Library code must not panic on bad user input (the CLI feeds
        // this straight through).
        return Err(SolveError::Unsupported(
            "Theorem 5 requires precision K > 0".into(),
        ));
    }
    discrete::round_relaxed(
        prep,
        deadline,
        (modes.m(), modes.s_min(), modes.top_mode()),
        |s| modes.round_up(s),
        p,
        Some(k),
        warm,
    )
    .map(|(speeds, _)| speeds)
}

/// [`approx_warm`] from a cold barrier chain.
pub fn approx_prepared(
    prep: &PreparedGraph<'_>,
    deadline: f64,
    modes: &IncrementalModes,
    p: PowerLaw,
    k: u32,
) -> Result<Vec<f64>, SolveError> {
    let mut cold = continuous::SweepWarm::new();
    approx_warm(prep, deadline, modes, p, k, &mut cold)
}

/// The guaranteed approximation factor of [`approx_warm`]:
/// `(1 + δ/s_min)^{α−1} · (1 + 1/K)^{α−1}`.
pub fn approx_bound(modes: &IncrementalModes, p: PowerLaw, k: u32) -> f64 {
    modes.rounding_ratio(p.alpha()) * (1.0 + 1.0 / k as f64).powf(p.alpha() - 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taskgraph::{generators, TaskGraph};

    const P: PowerLaw = PowerLaw::CUBIC;

    fn approx(
        g: &TaskGraph,
        d: f64,
        modes: &IncrementalModes,
        p: PowerLaw,
        k: u32,
    ) -> Result<Vec<f64>, SolveError> {
        approx_prepared(&PreparedGraph::new(g), d, modes, p, k)
    }

    #[test]
    fn approx_speeds_live_on_the_grid() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let modes = IncrementalModes::new(0.5, 3.0, 0.25).unwrap();
        let speeds = approx(&g, 5.0, &modes, P, 50).unwrap();
        for &s in &speeds {
            let i = (s - modes.s_min()) / modes.delta();
            assert!((i - i.round()).abs() < 1e-6, "{s} not on grid");
        }
    }

    #[test]
    fn approx_within_theorem5_bound_of_exact() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let modes = IncrementalModes::new(0.5, 3.0, 0.5).unwrap();
        let d = 5.0;
        let k = 10;
        let speeds = approx(&g, d, &modes, P, k).unwrap();
        let e_alg = continuous::energy_of_speeds(&g, &speeds, P);
        let grid = modes.to_discrete();
        let cfg = discrete::BnbConfig::default();
        let opt = discrete::exact(&PreparedGraph::new(&g), d, &grid, P, &cfg)
            .unwrap()
            .energy;
        let bound = approx_bound(&modes, P, k);
        assert!(
            e_alg <= opt * bound * (1.0 + 1e-6),
            "ratio {} > bound {bound}",
            e_alg / opt
        );
        assert!(e_alg >= opt * (1.0 - 1e-9));
    }

    #[test]
    fn finer_grid_tightens_energy() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let d = 5.0;
        let coarse = IncrementalModes::new(0.5, 3.0, 1.0).unwrap();
        let fine = IncrementalModes::new(0.5, 3.0, 0.05).unwrap();
        let e_coarse =
            continuous::energy_of_speeds(&g, &approx(&g, d, &coarse, P, 100).unwrap(), P);
        let e_fine = continuous::energy_of_speeds(&g, &approx(&g, d, &fine, P, 100).unwrap(), P);
        assert!(
            e_fine <= e_coarse * (1.0 + 1e-9),
            "finer grid must not cost more: {e_fine} vs {e_coarse}"
        );
        // And the fine grid approaches the continuous optimum.
        let cont =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(3.0), P, None).unwrap();
        let e_cont = continuous::energy_of_speeds(&g, &cont, P);
        assert!(e_fine <= e_cont * coarse.rounding_ratio(3.0));
        assert!(e_fine <= e_cont * fine.rounding_ratio(3.0) * 1.01);
    }

    #[test]
    fn approx_bound_formula() {
        let modes = IncrementalModes::new(1.0, 2.0, 0.1).unwrap();
        // (1.1)² · (1.01)² for K = 100.
        let b = approx_bound(&modes, P, 100);
        assert!((b - 1.21 * 1.0201).abs() < 1e-9);
    }

    #[test]
    fn infeasible_detected() {
        let g = generators::chain(&[4.0]);
        let modes = IncrementalModes::new(0.5, 1.0, 0.25).unwrap();
        assert!(matches!(
            approx(&g, 3.0, &modes, P, 10),
            Err(SolveError::Infeasible { .. })
        ));
    }

    #[test]
    fn k_zero_is_rejected_without_panicking() {
        let g = generators::chain(&[1.0]);
        let modes = IncrementalModes::new(0.5, 1.0, 0.25).unwrap();
        assert!(matches!(
            approx(&g, 3.0, &modes, P, 0),
            Err(SolveError::Unsupported(_))
        ));
    }
}
