//! X6 (extension) — sweep amortization: the prepared-instance
//! engine's [`Engine::energy_curve`] against N independent
//! `solve()` calls on the same 200-task series–parallel execution
//! graph (the "before" path re-derives the analysis and solves every
//! point cold; the "after" path prepares once, exploits the
//! unbounded-Continuous scaling law `E*(D) = E*(D₀)·(D₀/D)^{α−1}`,
//! and warm-starts the Vdd flow between points).
//!
//! The `BENCH_X6.json` metrics record both arms, so the perf trail
//! keeps a before/after entry for the sweep path from this PR onward.

use super::{time_it, Outcome, P};
use crate::instances::deadline_grid;
use models::{DiscreteModes, EnergyModel};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::{solve, Engine, SolveError};
use report::Table;
use taskgraph::{generators, PreparedGraph};

/// Graph size, sweep resolution, and deadline range (the acceptance
/// configuration: 200-task SP graph, 32 points).
const N_TASKS: usize = 200;
const POINTS: usize = 32;
const LO: f64 = 1.05;
const HI: f64 = 4.0;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut rng = StdRng::seed_from_u64(4242);
    let (g, _) = generators::random_sp(N_TASKS, 0.55, 1.0, 5.0, &mut rng);
    let modes = DiscreteModes::new(&[0.5, 1.125, 1.75, 2.375, 3.0]).unwrap();
    let engine = Engine::new(P);

    let mut table = Table::new(&["model", "naive(ms)", "engine(ms)", "speedup", "max |dE|/E"]);
    let mut metrics: Vec<(&'static str, f64)> = Vec::new();
    let mut min_speedup = f64::INFINITY;
    let mut max_drift = 0.0f64;

    let cases: [(&str, EnergyModel, (&'static str, &'static str)); 2] = [
        (
            "Continuous",
            EnergyModel::continuous_unbounded(),
            ("continuous_naive_ns", "continuous_engine_ns"),
        ),
        (
            "Vdd-Hopping",
            EnergyModel::VddHopping(modes),
            ("vdd_naive_ns", "vdd_engine_ns"),
        ),
    ];
    for (name, model, (naive_key, engine_key)) in cases {
        // The same geometric deadline grid the engine samples.
        let deadlines = deadline_grid(&g, &model, POINTS, LO, HI);

        // Before: N cold solves, each re-deriving the graph analysis.
        let (naive, t_naive) = time_it(|| {
            deadlines
                .iter()
                .map(|&d| solve(&g, d, &model, P).map(|s| s.energy))
                .collect::<Vec<Result<f64, SolveError>>>()
        });
        // After: one prepared graph, one engine sweep.
        let (curve, t_engine) = time_it(|| {
            let prep = PreparedGraph::new(&g);
            engine
                .energy_curve(&prep, &model, POINTS, LO, HI)
                .expect("sweep is feasible")
        });

        let mut drift = 0.0f64;
        assert_eq!(curve.len(), POINTS, "no point of the sweep is infeasible");
        for (pt, naive_e) in curve.iter().zip(&naive) {
            let e = naive_e.as_ref().expect("cold solve feasible");
            drift = drift.max((pt.energy - e).abs() / (1.0 + e.abs()));
        }
        let speedup = t_naive / t_engine;
        min_speedup = min_speedup.min(speedup);
        max_drift = max_drift.max(drift);
        table.row(&[
            name.to_string(),
            format!("{:.1}", t_naive * 1e3),
            format!("{:.1}", t_engine * 1e3),
            format!("{speedup:.2}x"),
            format!("{drift:.2e}"),
        ]);
        metrics.push((naive_key, t_naive * 1e9));
        metrics.push((engine_key, t_engine * 1e9));
    }

    let pass = min_speedup >= 2.0 && max_drift <= 1e-6;
    Outcome {
        size: N_TASKS,
        metrics,
        id: "X6",
        claim: "prepared-engine sweeps are ≥ 2x faster than N independent solves, at identical energies",
        table,
        verdict: format!(
            "{}: min speedup {min_speedup:.2}x, max energy drift {max_drift:.2e}",
            if pass { "PASS" } else { "FAIL" }
        ),
    }
}
