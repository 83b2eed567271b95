//! Solution certification utilities.
//!
//! The continuous optimum on general DAGs is numerical (§2.1: the
//! exact speeds are irrational), so besides the barrier's duality-gap
//! bound we provide *independent* evidence of optimality:
//!
//! * [`local_optimality_probe`] — randomized first-order check: no
//!   feasible redistribution of durations among a random pair of
//!   tasks lowers the energy (convexity makes pairwise exchanges a
//!   strong probe: any strictly better feasible point induces a
//!   strictly improving two-task move along the segment towards it
//!   whenever the schedule graph permits it);
//! * [`lower_bound_bundle`] — the cheap certified lower bounds every
//!   solution can be compared against (independent-tasks bound and
//!   heaviest-path bound).

use models::PowerLaw;
use rand::Rng;
use taskgraph::analysis::{earliest_completion, latest_completion};
use taskgraph::TaskGraph;

/// Cheap certified lower bounds on `MinEnergy(Ĝ, D)` under the
/// Continuous model (no `s_max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LowerBounds {
    /// Precedence-relaxed: each task alone in the whole window,
    /// `Σ w_i^α / D^{α−1}`.
    pub independent_tasks: f64,
    /// Heaviest path as a chain: `(max_path Σ w)^α / D^{α−1}`
    /// (dominates the single-task part of the other bound on chains).
    pub critical_path: f64,
}

impl LowerBounds {
    /// The better (larger) of the two bounds.
    pub fn best(&self) -> f64 {
        self.independent_tasks.max(self.critical_path)
    }
}

/// Compute the certified lower bounds.
pub fn lower_bound_bundle(g: &TaskGraph, deadline: f64, p: PowerLaw) -> LowerBounds {
    let independent: f64 = g
        .weights()
        .iter()
        .map(|&w| p.energy_for_work(w, deadline))
        .sum();
    let cp = taskgraph::analysis::critical_path_weight(g);
    LowerBounds {
        independent_tasks: independent,
        critical_path: p.energy_for_work(cp, deadline),
    }
}

/// Randomized first-order optimality probe.
///
/// Two move families are tried against the claimed-optimal durations
/// `d_i = w_i / s_i`:
///
/// * **grow** — lengthen a single task by `ε` (always lowers its
///   energy; feasible only if the schedule has slack for it — an
///   optimal solution leaves no such slack);
/// * **exchange** — shift `ε` of duration between a random task pair
///   (catches misbalanced splits along chains, where slacks are tight
///   but the division is wrong).
///
/// Returns the number of strictly improving feasible moves found —
/// `0` for an optimal solution (up to `tol`).
#[allow(clippy::too_many_arguments)] // a knob bundle would obscure the probe's call sites
pub fn local_optimality_probe<R: Rng>(
    g: &TaskGraph,
    speeds: &[f64],
    deadline: f64,
    p: PowerLaw,
    trials: usize,
    epsilon: f64,
    tol: f64,
    rng: &mut R,
) -> usize {
    assert_eq!(speeds.len(), g.n());
    let n = g.n();
    if n < 2 {
        return 0;
    }
    let durations: Vec<f64> = g
        .weights()
        .iter()
        .zip(speeds)
        .map(|(&w, &s)| w / s)
        .collect();
    let base_energy: f64 = g
        .weights()
        .iter()
        .zip(&durations)
        .map(|(&w, &d)| p.energy_for_work(w, d))
        .sum();
    let is_feasible = |cand: &[f64]| -> bool {
        let ecl = earliest_completion(g, cand);
        let lcl = latest_completion(g, cand, deadline);
        ecl.iter()
            .zip(&lcl)
            .all(|(e, l)| *e <= *l + 1e-12 * (1.0 + l.abs()))
            && ecl.iter().all(|e| *e <= deadline * (1.0 + 1e-12))
    };
    let energy_of = |cand: &[f64]| -> f64 {
        g.weights()
            .iter()
            .zip(cand)
            .map(|(&w, &d)| p.energy_for_work(w, d))
            .sum()
    };
    let mut violations = 0;
    for _ in 0..trials {
        // Grow move: lengthen one task.
        let k = rng.gen_range(0..n);
        let mut grown = durations.clone();
        grown[k] += epsilon;
        if is_feasible(&grown) && energy_of(&grown) < base_energy * (1.0 - tol) {
            violations += 1;
        }
        // Exchange move between a random pair.
        let i = rng.gen_range(0..n);
        let mut j = rng.gen_range(0..n);
        if i == j {
            j = (j + 1) % n;
        }
        for (a, b) in [(i, j), (j, i)] {
            let mut cand = durations.clone();
            if cand[a] <= epsilon * 2.0 {
                continue;
            }
            cand[a] -= epsilon;
            cand[b] += epsilon;
            if is_feasible(&cand) && energy_of(&cand) < base_energy * (1.0 - tol) {
                violations += 1;
            }
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::continuous;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use taskgraph::{generators, PreparedGraph};

    const P: PowerLaw = PowerLaw::CUBIC;

    #[test]
    fn optimal_solutions_pass_the_probe() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let d = 5.0;
        let speeds =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, None, P, None).unwrap();
        let bad = local_optimality_probe(&g, &speeds, d, P, 300, 1e-3, 1e-5, &mut rng);
        assert_eq!(bad, 0, "optimal solution admits improving moves");
    }

    #[test]
    fn suboptimal_solutions_fail_the_probe() {
        let mut rng = StdRng::seed_from_u64(6);
        // Uniform-speed schedule on a diamond is suboptimal (the light
        // branch should run slower).
        let g = generators::diamond([1.0, 1.0, 8.0, 1.0]);
        let d = 20.0;
        let s_uniform = taskgraph::analysis::critical_path_weight(&g) / d;
        let speeds = vec![s_uniform; 4];
        let bad = local_optimality_probe(&g, &speeds, d, P, 300, 1e-2, 1e-5, &mut rng);
        assert!(bad > 0, "probe must detect the obvious improvement");
    }

    #[test]
    fn lower_bounds_bracket_the_optimum() {
        let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
        let d = 5.0;
        let lb = lower_bound_bundle(&g, d, P);
        let speeds =
            continuous::solve_dispatched(&PreparedGraph::new(&g), d, None, P, None).unwrap();
        let e = continuous::energy_of_speeds(&g, &speeds, P);
        assert!(lb.best() <= e * (1.0 + 1e-9));
        assert!(lb.independent_tasks > 0.0 && lb.critical_path > 0.0);
        // On a chain, the critical-path bound is *tight*.
        let chain = generators::chain(&[1.0, 2.0, 3.0]);
        let lc = lower_bound_bundle(&chain, 3.0, P);
        let e_chain = continuous::energy_of_speeds(
            &chain,
            &continuous::solve_chain(&chain, 3.0, None).unwrap(),
            P,
        );
        assert!((lc.critical_path - e_chain).abs() < 1e-9 * e_chain);
        assert!((lc.best() - e_chain).abs() < 1e-9 * e_chain);
    }

    #[test]
    fn single_task_probe_is_trivial() {
        let mut rng = StdRng::seed_from_u64(1);
        let g = generators::chain(&[2.0]);
        assert_eq!(
            local_optimality_probe(&g, &[1.0], 2.0, P, 50, 1e-3, 1e-6, &mut rng),
            0
        );
    }
}
