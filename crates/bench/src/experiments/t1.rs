//! T1 — Theorem 1: the fork closed form (including `s_max`
//! saturation) agrees with the independent numerical solver.

use super::{gp_speeds, time_it, Outcome, P};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::continuous;
use report::Table;
use taskgraph::generators;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "n-leaves",
        "deadline",
        "regime",
        "E-closed-form",
        "E-numerical",
        "rel-diff",
        "t-closed(us)",
        "t-numeric(us)",
    ]);
    let mut rng = StdRng::seed_from_u64(101);
    let mut worst = 0.0f64;

    for &n in &[2usize, 4, 8, 16, 32] {
        let children = generators::random_weights(n, 1.0, 5.0, &mut rng);
        let g = generators::fork(2.0, &children);
        let comb = P.parallel_combine(children.iter().copied());
        // The saturated branch needs cp/D < s_max < s0; the midpoint
        // always qualifies because s0 = (comb + w0)/D ≥ cp/D with
        // strict inequality for ≥ 2 leaves (comb > max w_i).
        let d = 2.0;
        let s0_unconstrained = (comb + 2.0) / d;
        let cp = taskgraph::analysis::critical_path_weight(&g);
        let sm_mid = 0.5 * (cp / d + s0_unconstrained);
        assert!(sm_mid > cp / d && sm_mid < s0_unconstrained);
        for (label, s_max) in [("unsaturated", None), ("saturated", Some(sm_mid))] {
            let (closed, t_closed) = time_it(|| continuous::solve_fork(&g, d, s_max, P).unwrap());
            let (numer, t_numer) = time_it(|| gp_speeds(&g, d, None, s_max, P));
            let e_closed = continuous::energy_of_speeds(&g, &closed, P);
            let e_numer = continuous::energy_of_speeds(&g, &numer, P);
            let rel = (e_closed - e_numer).abs() / e_closed;
            worst = worst.max(rel);
            table.row(&[
                n.to_string(),
                format!("{d:.2}"),
                label.into(),
                format!("{e_closed:.6}"),
                format!("{e_numer:.6}"),
                format!("{rel:.2e}"),
                format!("{:.0}", t_closed * 1e6),
                format!("{:.0}", t_numer * 1e6),
            ]);
        }
    }
    let pass = worst < 1e-4;
    Outcome {
        size: 33,
        metrics: vec![],
        id: "T1",
        claim: "fork optimum: s0 = ((Σ w_i³)^⅓ + w0)/D, s_i ∝ w_i; s_max-saturated fallback",
        table,
        verdict: format!(
            "{}: closed form vs numerical worst relative diff = {worst:.2e} (threshold 1e-4)",
            if pass { "PASS" } else { "FAIL" }
        ),
    }
}
