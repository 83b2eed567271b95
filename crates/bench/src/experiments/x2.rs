//! X2 (extension, beyond the paper) — practical Discrete heuristics
//! vs the exact optimum: the Proposition 1(b) rounding (with its
//! provable bound) against the classic greedy-slowdown DVFS heuristic
//! (no bound), both measured against branch-and-bound.

use super::{Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{continuous, discrete};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "m-modes",
        "tightness",
        "roundup/OPT",
        "greedy/OPT",
        "greedy-wins(%)",
    ]);
    let mut all_feasible = true;
    let mut worst_roundup = 1.0f64;
    let mut worst_greedy = 1.0f64;

    for &m in &[3usize, 5, 8] {
        let modes = spread_modes(m, 0.5, 3.0);
        for &tight in &[1.1, 1.5, 2.5] {
            let mut r_round = Vec::new();
            let mut r_greedy = Vec::new();
            let mut greedy_wins = 0usize;
            for seed in 0..8u64 {
                let g = random_execution_graph(4, 3, 2, 1300 + seed);
                let d = tight * dmin(&g, modes.s_max());
                let prep = PreparedGraph::new(&g);
                let opt = discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                    .unwrap()
                    .energy;
                let ru = discrete::round_up_prepared(&prep, d, &modes, P, None).unwrap();
                let e_ru = continuous::energy_of_speeds(&g, &ru, P);
                let gs = discrete::greedy_slowdown(&g, d, &modes, P).unwrap();
                let e_gs = continuous::energy_of_speeds(&g, &gs, P);
                all_feasible &= e_ru >= opt * (1.0 - 1e-9) && e_gs >= opt * (1.0 - 1e-9);
                r_round.push(e_ru / opt);
                r_greedy.push(e_gs / opt);
                if e_gs < e_ru * (1.0 - 1e-9) {
                    greedy_wins += 1;
                }
            }
            worst_roundup = worst_roundup.max(report::max(&r_round));
            worst_greedy = worst_greedy.max(report::max(&r_greedy));
            table.row(&[
                m.to_string(),
                format!("{tight:.2}"),
                format!("{:.4}", report::geo_mean(&r_round)),
                format!("{:.4}", report::geo_mean(&r_greedy)),
                format!("{:.0}", 100.0 * greedy_wins as f64 / 8.0),
            ]);
        }
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "X2",
        claim: "(extension) the provable rounding and the classic greedy DVFS heuristic both track the exact optimum; neither dominates",
        table,
        verdict: format!(
            "{}: worst ratios — round-up ×{worst_roundup:.3} (bounded by Prop 1(b)), greedy ×{worst_greedy:.3} (no guarantee)",
            if all_feasible { "PASS" } else { "FAIL" }
        ),
    }
}
