//! F4 — ablation: the Theorem 3 LP vs the adjacent-mode-mix
//! heuristic.
//!
//! The heuristic freezes the continuous optimum's per-task durations
//! and mixes the two bracketing modes; the LP can additionally
//! rebalance durations across tasks. The gap quantifies the value of
//! solving the full LP.

use super::{Outcome, P};
use crate::instances::{dmin, random_execution_graph, spread_modes};
use reclaim_core::vdd;
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "m-modes",
        "tightness",
        "geo mix/LP",
        "max mix/LP",
        "LP-never-worse",
    ]);
    let mut all_ok = true;
    let mut overall_max = 1.0f64;

    for &m in &[2usize, 3, 5] {
        let modes = spread_modes(m, 0.5, 3.0);
        for &tight in &[1.05, 1.3, 2.0] {
            let mut ratios = Vec::new();
            let mut ok = true;
            for seed in 0..8u64 {
                let g = random_execution_graph(4, 3, 2, 1100 + seed);
                let d = tight * dmin(&g, modes.s_max());
                let e_lp = vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P)
                    .unwrap()
                    .energy(&g, P);
                let e_mix = vdd::adjacent_mix(&g, d, &modes, P).unwrap().energy(&g, P);
                ok &= e_mix >= e_lp * (1.0 - 1e-6);
                ratios.push(e_mix / e_lp);
            }
            all_ok &= ok;
            let geo = report::geo_mean(&ratios);
            let max = report::max(&ratios);
            overall_max = overall_max.max(max);
            table.row(&[
                m.to_string(),
                format!("{tight:.2}"),
                format!("{geo:.4}"),
                format!("{max:.4}"),
                if ok { "ok".into() } else { "VIOLATED".into() },
            ]);
        }
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "F4",
        claim: "mixing adjacent modes of the continuous optimum is feasible but suboptimal; the LP can rebalance durations",
        table,
        verdict: format!(
            "{}: LP ≤ heuristic always; worst heuristic excess ×{overall_max:.3}",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
