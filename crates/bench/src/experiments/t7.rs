//! T7 — Proposition 1(b): any Discrete instance is approximated
//! within `(1 + α/s_1)² (1 + 1/K)²`, `α = max_i (s_{i+1} − s_i)`,
//! by rounding the boxed Continuous optimum up to the next mode.

use super::{time_it, Outcome, P};
use crate::instances::{dmin, irregular_modes, random_execution_graph};
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{continuous, discrete};
use report::Table;
use taskgraph::PreparedGraph;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut table = Table::new(&[
        "modes",
        "alpha-gap",
        "K",
        "bound",
        "ratio-vs-exact",
        "t-approx(ms)",
        "within",
    ]);
    let mut all_ok = true;

    for (mi, &m) in [3usize, 4, 6].iter().enumerate() {
        for &k in &[1u32, 10, 100] {
            let modes = irregular_modes(m, 0.6, 3.0, 700 + mi as u64);
            let alpha_gap = modes.max_gap();
            let bound = (1.0 + alpha_gap / modes.s_min()).powi(2) * (1.0 + 1.0 / k as f64).powi(2);
            let g = random_execution_graph(4, 3, 2, 710 + mi as u64); // 12 tasks
            let d = 1.5 * dmin(&g, modes.s_max());
            let (speeds, t_alg) = time_it(|| {
                discrete::round_up_prepared(&PreparedGraph::new(&g), d, &modes, P, Some(k)).unwrap()
            });
            let e_alg = continuous::energy_of_speeds(&g, &speeds, P);
            let prep = PreparedGraph::new(&g);
            let opt = discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                .unwrap()
                .energy;
            let ratio = e_alg / opt;
            let ok = ratio <= bound * (1.0 + 1e-6);
            all_ok &= ok;
            table.row(&[
                format!(
                    "{:?}",
                    modes
                        .speeds()
                        .iter()
                        .map(|s| (s * 100.0).round() / 100.0)
                        .collect::<Vec<_>>()
                ),
                format!("{alpha_gap:.3}"),
                k.to_string(),
                format!("{bound:.4}"),
                format!("{ratio:.4}"),
                format!("{:.2}", t_alg * 1e3),
                if ok { "ok".into() } else { "VIOLATED".into() },
            ]);
        }
    }
    Outcome {
        size: 12,
        metrics: vec![],
        id: "T7",
        claim: "Discrete approximated within (1+α/s_1)²(1+1/K)², α = max mode gap",
        table,
        verdict: format!(
            "{}: measured ratio vs the exact Discrete optimum ≤ bound on all irregular mode sets",
            if all_ok { "PASS" } else { "FAIL" }
        ),
    }
}
