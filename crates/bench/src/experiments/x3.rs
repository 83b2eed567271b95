//! X3 (extension) — robustness in the power exponent α: the paper
//! fixes `P(s) = s³` but every algorithm here is implemented for
//! general `α > 1` (series composition `Wₐ+W_b`, parallel composition
//! `(Wₐ^α + W_b^α)^{1/α}`, objective `Σ w^α/d^{α−1}`). The closed
//! forms must keep agreeing with the numerical solver, and the model
//! ordering must persist, at every α.

use super::{gp_speeds, Outcome};
use models::{DiscreteModes, PowerLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{continuous, discrete, vdd};
use report::Table;
use taskgraph::{generators, PreparedGraph};

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "alpha",
        "fork-rel-diff",
        "sp-rel-diff",
        "Vdd/Cont",
        "Disc/Cont",
        "ordering",
    ]);
    let mut rng = StdRng::seed_from_u64(1400);
    let mut all_ok = true;
    let mut worst_diff = 0.0f64;

    for &alpha in &[1.5, 2.0, 2.5, 3.0, 3.5] {
        let p = PowerLaw::new(alpha);
        // Closed forms vs numerical.
        let fork = generators::fork(2.0, &generators::random_weights(6, 1.0, 4.0, &mut rng));
        let d_fork = 3.0;
        let e_closed = continuous::energy_of_speeds(
            &fork,
            &continuous::solve_fork(&fork, d_fork, None, p).unwrap(),
            p,
        );
        let e_numer =
            continuous::energy_of_speeds(&fork, &gp_speeds(&fork, d_fork, None, None, p), p);
        let fork_diff = (e_closed - e_numer).abs() / e_closed;

        let (sp, tree) = generators::random_sp(10, 0.5, 1.0, 4.0, &mut rng);
        let d_sp = taskgraph::analysis::critical_path_weight(&sp) * 0.8;
        let e_sp = continuous::energy_of_speeds(
            &sp,
            &continuous::solve_sp(&sp, &tree, d_sp, p).unwrap(),
            p,
        );
        let e_sp_num = continuous::energy_of_speeds(&sp, &gp_speeds(&sp, d_sp, None, None, p), p);
        let sp_diff = (e_sp - e_sp_num).abs() / e_sp;
        worst_diff = worst_diff.max(fork_diff).max(sp_diff);

        // Model ordering on a mapped instance.
        let g = crate::instances::random_execution_graph(4, 3, 2, 1400);
        let modes = DiscreteModes::new(&[0.5, 1.125, 1.75, 2.375, 3.0]).unwrap();
        let d = 1.4 * crate::instances::dmin(&g, modes.s_max());
        let prep = PreparedGraph::new(&g);
        let e_cont = continuous::energy_of_speeds(
            &g,
            &continuous::solve_dispatched(&prep, d, Some(modes.s_max()), p, None).unwrap(),
            p,
        );
        let e_vdd = vdd::solve_lp_prepared(&prep, d, &modes, p)
            .unwrap()
            .energy(&g, p);
        let e_disc = discrete::exact(&prep, d, &modes, p, &BnbConfig::default())
            .unwrap()
            .energy;
        let ok = e_cont <= e_vdd * (1.0 + 1e-6) && e_vdd <= e_disc * (1.0 + 1e-6);
        all_ok &= ok && fork_diff < 1e-4 && sp_diff < 1e-4;
        table.row(&[
            format!("{alpha:.1}"),
            format!("{fork_diff:.2e}"),
            format!("{sp_diff:.2e}"),
            format!("{:.4}", e_vdd / e_cont),
            format!("{:.4}", e_disc / e_cont),
            if ok { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "X3",
        claim: "(extension) all algorithms generalize from s³ to any power law s^α, α > 1",
        table,
        verdict: format!(
            "{}: closed forms match the numerical solver (worst {worst_diff:.2e}) and the model ordering holds at every α",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
