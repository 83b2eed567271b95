//! T6 — Proposition 1(a): any Continuous instance is approximated
//! within `(1 + δ/s_min)²` in the Incremental model with increment δ.
//!
//! The Continuous reference is the box-restricted optimum over
//! `[s_min, s_max]` (the Incremental model cannot run slower than
//! `s_min`, so this is the honest common baseline).

use super::{cont_energy_boxed, Outcome, P};
use crate::instances::{dmin, random_execution_graph};
use models::IncrementalModes;
use reclaim_core::{continuous, incremental};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "delta",
        "bound=(1+d/smin)^2",
        "geo-ratio",
        "max-ratio",
        "within",
    ]);
    let (s_min, s_max) = (0.5, 3.0);
    let mut all_ok = true;

    for &delta in &[1.0, 0.5, 0.25, 0.1, 0.05, 0.01] {
        let modes = IncrementalModes::new(s_min, s_max, delta).unwrap();
        let bound = modes.rounding_ratio(P.alpha());
        let mut ratios = Vec::new();
        for seed in 0..8u64 {
            let g = random_execution_graph(4, 3, 2, 600 + seed);
            let d = 1.4 * dmin(&g, modes.top_mode());
            let e_cont = cont_energy_boxed(&g, d, s_min, modes.top_mode());
            // Large K isolates the rounding loss from the numerical
            // precision term.
            let speeds =
                incremental::approx_prepared(&PreparedGraph::new(&g), d, &modes, P, 10_000)
                    .unwrap();
            let e_inc = continuous::energy_of_speeds(&g, &speeds, P);
            ratios.push(e_inc / e_cont);
        }
        let geo = report::geo_mean(&ratios);
        let max = report::max(&ratios);
        let ok = max <= bound * (1.0 + 1e-4);
        all_ok &= ok;
        table.row(&[
            format!("{delta:.2}"),
            format!("{bound:.4}"),
            format!("{geo:.4}"),
            format!("{max:.4}"),
            if ok { "ok".into() } else { "VIOLATED".into() },
        ]);
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "T6",
        claim: "Continuous approximated within (1+δ/s_min)² by Incremental with increment δ",
        table,
        verdict: format!(
            "{}: max ratio ≤ bound at every δ, and → 1 as δ → 0 (the 'arbitrarily efficient' knob)",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
