//! F2 — energy ratio vs number of modes `m`: Vdd-Hopping "smooths out
//! the discrete nature of the modes" even with few modes, while
//! Discrete needs many modes to approach Continuous.

use super::{cont_energy, Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{discrete, vdd};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&["m-modes", "Vdd/Cont", "Disc/Cont", "vdd-advantage"]);
    let seeds: Vec<u64> = (0..8).collect();
    let mut prev_disc = f64::INFINITY;
    let mut disc_decreases = true;
    let mut vdd_below_disc = true;

    for &m in &[2usize, 3, 4, 6, 8, 12, 16] {
        let modes = spread_modes(m, 0.5, 3.0);
        let mut r_vdd = Vec::new();
        let mut r_disc = Vec::new();
        for &seed in &seeds {
            let g = random_execution_graph(4, 3, 2, 900 + seed);
            let d = 1.5 * dmin(&g, modes.s_max());
            let e_cont = cont_energy(&g, d, Some(modes.s_max()));
            let prep = PreparedGraph::new(&g);
            let e_vdd = vdd::solve_lp_prepared(&prep, d, &modes, P)
                .unwrap()
                .energy(&g, P);
            // Exact optimum while the search stays tractable
            // (Theorem 4: it is exponential in general; the chain-
            // cover bound pushes tractability to m ≈ 8 here); the
            // rounding upper bound beyond.
            let e_disc = if m <= 8 {
                discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                    .unwrap()
                    .energy
            } else {
                let sp = discrete::round_up_prepared(&prep, d, &modes, P, None).unwrap();
                reclaim_core::continuous::energy_of_speeds(&g, &sp, P)
            };
            r_vdd.push(e_vdd / e_cont);
            r_disc.push(e_disc / e_cont);
        }
        let gv = report::geo_mean(&r_vdd);
        let gd = report::geo_mean(&r_disc);
        vdd_below_disc &= gv <= gd * (1.0 + 1e-6);
        if m <= 8 {
            // Exact values must be non-increasing in m for nested
            // spread sets only; ours are not nested, so allow noise but
            // require the overall trend down.
            disc_decreases &= gd <= prev_disc * 1.10;
            prev_disc = gd;
        }
        table.row(&[
            m.to_string(),
            format!("{gv:.4}"),
            format!("{gd:.4}"),
            format!("{:.4}", gd / gv),
        ]);
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "F2",
        claim: "Vdd-Hopping smooths out mode discreteness: near-Continuous with any m; Discrete converges only as m grows",
        table,
        verdict: format!(
            "{}: E_vdd ≤ E_disc at every m; the discrete premium shrinks with m while Vdd stays ≈ 1",
            if vdd_below_disc && disc_decreases { "PASS" } else { "FAIL" }
        ),
    }
}
