//! X9 (extension) — exact parametric energy–deadline curves: the
//! Vdd flow's augmentation record versus the sampled sweep, plus the
//! barrier warm-start evidence for the round-up paths.
//!
//! **Arm 1 (Vdd, exact vs sampled).** A 220-task series–parallel
//! Vdd-Hopping instance is solved once (the daemon steady state: the
//! instance is cached and its entry retains the optimal min-cost
//! flow). Then both curve paths run over the same deadline range:
//!
//! * *sampled*: `Engine::energy_curve` at 64 points — the pre-existing
//!   API; each point is a warm re-solve of the flow (drain the paths
//!   the longer deadline no longer pays for) plus schedule extraction
//!   and validation, and the chain starts with its own cold solve;
//! * *exact*: `Engine::energy_curve_exact_warm` through the retained
//!   flow, whose augmentation record already reaches the range: the
//!   **whole** curve is read off it, with no per-sample work.
//!
//! Pass requires the exact walk to be **≥ 8× faster** and the exact
//! curve to be **pointwise equal** (≤ 1e-6 relative) to every sampled
//! energy at the sampled deadlines.
//!
//! **Arm 2 (barrier warm start).** The Discrete round-up path solves a
//! boxed continuous relaxation per sweep point. On a 60-task SP
//! instance, an ascending 8-point sweep through one
//! `continuous::SweepWarm` chain must spend fewer Newton steps than
//! the same sweep with a fresh (cold) chain per point. Both Newton
//! counts land in `BENCH_X9.json`.

use super::Outcome;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::{continuous, discrete, Engine};
use report::Table;
use taskgraph::{generators, PreparedGraph};

/// Vdd instance size (past the 200-task bar) and sweep resolution.
const N_TASKS: usize = 220;
const POINTS: usize = 64;
const LO: f64 = 1.05;
const HI: f64 = 1.6;

/// Barrier-arm instance size and sweep length.
const N_BARRIER: usize = 60;
const BARRIER_POINTS: usize = 8;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut rng = StdRng::seed_from_u64(9999);
    let (g, _) = generators::random_sp(N_TASKS, 0.55, 1.0, 5.0, &mut rng);
    let modes = models::DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap();
    let model = models::EnergyModel::VddHopping(modes);
    let engine = Engine::new(super::P).threads(1);
    let prep = PreparedGraph::new(&g);

    // Steady state: the instance has been solved once at the tightest
    // deadline of interest, so a warm flow is retained there, its
    // record reaching that deadline — exactly what the daemon's cache
    // entry holds after serving the instance.
    let mut warm = None;
    let seed_deadline = LO * prep.critical_path_weight() / 2.4;
    engine
        .solve_warm(&prep, &model, seed_deadline, &mut warm)
        .expect("seed solve");

    // Sampled arm: the 64-point sweep (cold flow + warm chain inside).
    let t0 = std::time::Instant::now();
    let sampled = engine
        .energy_curve(&prep, &model, POINTS, LO, HI)
        .expect("sampled sweep");
    let sampled_ns = t0.elapsed().as_nanos() as u64;

    // Exact arm: the curve read off the retained flow's record.
    let t0 = std::time::Instant::now();
    let exact = engine
        .energy_curve_exact_warm(&prep, &model, LO, HI, &mut warm)
        .expect("exact walk");
    let exact_ns = t0.elapsed().as_nanos() as u64;
    assert!(exact.exact, "the Vdd curve must be exact closed forms");

    // Pointwise equality at every sampled deadline.
    let mut max_drift = 0.0f64;
    for pt in &sampled {
        let e = exact
            .energy_at(pt.deadline)
            .expect("sampled deadline inside the exact range");
        max_drift = max_drift.max((e - pt.energy).abs() / (1.0 + pt.energy));
    }
    let equivalent = max_drift <= 1e-6;
    let speedup = sampled_ns as f64 / exact_ns.max(1) as f64;
    let fast_enough = speedup >= 8.0;

    // Barrier arm: warm vs cold Newton steps on the Discrete round-up
    // relaxation, ascending sweep.
    let (gb, _) = generators::random_sp(N_BARRIER, 0.55, 1.0, 5.0, &mut rng);
    let prep_b = PreparedGraph::new(&gb);
    let modes_b = models::DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap();
    let dmin = prep_b.critical_path_weight() / modes_b.s_max();
    let deadlines: Vec<f64> = (0..BARRIER_POINTS)
        .map(|k| dmin * 1.1 * (3.0f64 / 1.1).powf(k as f64 / (BARRIER_POINTS - 1) as f64))
        .collect();
    let mut chain = continuous::SweepWarm::new();
    let mut cold_newton = 0u64;
    for &d in &deadlines {
        discrete::round_up_warm(&prep_b, d, &modes_b, super::P, Some(10_000), &mut chain)
            .expect("warm round-up");
        let mut one = continuous::SweepWarm::new();
        discrete::round_up_warm(&prep_b, d, &modes_b, super::P, Some(10_000), &mut one)
            .expect("cold round-up");
        cold_newton += one.stats.newton_steps;
    }
    let warm_newton = chain.stats.newton_steps;
    let newton_reduced = warm_newton < cold_newton;

    let mut table = Table::new(&["arm", "work", "wall(ms)", "per-point"]);
    table.row(&[
        "sampled (64 pts, warm flow chain)".into(),
        format!("{POINTS} warm re-solves + extract/validate"),
        format!("{:.2}", sampled_ns as f64 / 1e6),
        format!("{:.2} ms", sampled_ns as f64 / 1e6 / POINTS as f64),
    ]);
    table.row(&[
        "exact (augmentation record)".into(),
        format!("{} breakpoints off the record", exact.stats.lp_breakpoints),
        format!("{:.2}", exact_ns as f64 / 1e6),
        "—".into(),
    ]);
    table.row(&[
        "barrier warm vs cold (Newton)".into(),
        format!("{warm_newton} vs {cold_newton} steps"),
        "—".into(),
        format!("{BARRIER_POINTS} pts, n = {N_BARRIER}"),
    ]);

    let pass = equivalent && fast_enough && newton_reduced;
    Outcome {
        id: "X9",
        claim: "the exact Vdd energy-deadline curve (the min-cost flow's \
                augmentation record) beats the 64-point sampled sweep by ≥ 8× with \
                pointwise-identical energies, and barrier warm-starts cut \
                Newton iterations on the round-up path",
        size: N_TASKS,
        metrics: vec![
            ("sampled_ns", sampled_ns as f64),
            ("exact_ns", exact_ns as f64),
            ("speedup", speedup),
            ("segments", exact.segments.len() as f64),
            ("lp_breakpoints", exact.stats.lp_breakpoints as f64),
            ("max_drift", max_drift),
            ("newton_warm", warm_newton as f64),
            ("newton_cold", cold_newton as f64),
        ],
        table,
        verdict: format!(
            "{}: {} segments over [{:.2}, {:.2}], speedup {:.1}× (want ≥ 8×), \
             max drift {:.1e} {}, Newton {} vs {} {}",
            if pass { "PASS" } else { "FAIL" },
            exact.segments.len(),
            exact.deadline_lo(),
            exact.deadline_hi(),
            speedup,
            max_drift,
            if equivalent { "✓" } else { "✗" },
            warm_newton,
            cold_newton,
            if newton_reduced { "✓" } else { "✗" },
        ),
    }
}
