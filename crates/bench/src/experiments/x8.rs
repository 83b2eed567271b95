//! X8 (extension) — incremental re-solving: a chain of weight-edit
//! `patch` requests against a live `reclaimd`, versus cold solves of
//! the same evolving instance.
//!
//! The paper's premise is re-solving `MinEnergy(G, D)` as the instance
//! evolves. A daemon is started in-process; a 220-task series–parallel
//! Vdd-Hopping instance is solved once (cold: graph preparation plus
//! augmentations from zero flow, which also seed the cache entry's
//! retained min-cost flow). Then `N_PATCH` weight edits are sent as protocol-v2
//! `patch` requests, each naming the previous instance by content key
//! and carrying only the delta. The structural pass condition:
//!
//! * every patch reports `prep_ns = 0` (selective invalidation carried
//!   every structural analysis over) and `warm_lp` (the solve
//!   re-optimized the retained flow instead of running cold);
//! * every patched energy matches an independent cold solve of the
//!   same edited graph to 1e-6;
//! * the mean patched re-solve is **≥ 5× faster** than the mean cold
//!   re-solve — and the cold arm is measured *in-process* (no daemon
//!   round-trip), so the speedup is understated, not flattered.
//!
//! `BENCH_X8.json` records both arms (`cold_mean_ns`,
//! `patch_mean_ns`, `speedup_x`) for the perf trail, plus the pass
//! conditions CI gates on (`warm_lp_hits`, `prep_zero`, `max_drift`).

use super::{LiveDaemon, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::engine::content_key;
use reclaim_core::Engine;
use reclaim_service::daemon::DaemonConfig;
use reclaim_service::proto::{PatchReport, Request, Response};
use report::Table;
use taskgraph::edit::{apply_edits, GraphEdit};
use taskgraph::{generators, PreparedGraph};

/// Graph size (comfortably past the 200-task bar) and edit-chain
/// length.
const N_TASKS: usize = 220;
const N_PATCH: usize = 12;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut rng = StdRng::seed_from_u64(8888);
    let (g, _) = generators::random_sp(N_TASKS, 0.55, 1.0, 5.0, &mut rng);
    let modes = models::DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap();
    let model = models::EnergyModel::VddHopping(modes);
    let deadline = 1.4 * taskgraph::analysis::critical_path_weight(&g) / 2.4;

    let daemon = LiveDaemon::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let mut client = daemon.client();

    // Seed: one cold solve of the base instance (also retains the
    // flow in the cache entry's warm slot).
    let t0 = std::time::Instant::now();
    let seed = client
        .roundtrip(Request::Solve {
            graph: g.clone(),
            model: model.clone(),
            deadline,
        })
        .expect("seed solve");
    let seed_wall = t0.elapsed().as_nanos() as u64;
    let seed = match seed.response {
        Response::Solve(r) => r,
        other => panic!("unexpected response: {other:?}"),
    };

    // The edit chain: each step bumps one task's weight, patches the
    // daemon's cached instance in place, and cold-solves the same
    // edited graph in-process for the control arm.
    let engine = Engine::new(super::P).threads(1);
    let mut base_key = content_key(&g, &model);
    let mut current = g.clone();
    let mut patch_reports: Vec<(PatchReport, u64)> = Vec::with_capacity(N_PATCH);
    let mut cold_ns: Vec<u64> = Vec::with_capacity(N_PATCH);
    let mut max_drift = 0.0f64;
    for i in 0..N_PATCH {
        let task = (i * 37 + 11) % N_TASKS;
        let weight = 1.0 + ((i * 13 + 5) % 40) as f64 / 10.0;
        let edits = [GraphEdit::SetWeight { task, weight }];

        let t0 = std::time::Instant::now();
        let resp = client
            .patch(base_key, &edits, deadline)
            .expect("patch roundtrip");
        let wall = t0.elapsed().as_nanos() as u64;
        let p = match resp.response {
            Response::Patch(p) => p,
            other => panic!("unexpected response: {other:?}"),
        };

        (current, _) = apply_edits(&current, &edits).expect("valid edit");
        assert_eq!(p.key, content_key(&current, &model), "incremental re-key");
        base_key = p.key;

        let t0 = std::time::Instant::now();
        let cold = engine
            .solve(&PreparedGraph::new(&current), &model, deadline)
            .expect("cold control solve");
        cold_ns.push(t0.elapsed().as_nanos() as u64);
        let drift = (p.report.energy - cold.energy).abs() / (1.0 + cold.energy);
        max_drift = max_drift.max(drift);
        patch_reports.push((p, wall));
    }

    daemon.shutdown();

    let all_prep_zero = patch_reports.iter().all(|(p, _)| p.report.prep_ns == 0);
    let all_warm = patch_reports.iter().all(|(p, _)| p.warm_lp);
    let equivalent = max_drift <= 1e-6;
    let patch_mean = patch_reports.iter().map(|&(_, w)| w).sum::<u64>() / N_PATCH as u64;
    let cold_mean = cold_ns.iter().sum::<u64>() / N_PATCH as u64;
    let speedup = cold_mean as f64 / patch_mean.max(1) as f64;
    let fast_enough = speedup >= 5.0;

    let mut table = Table::new(&["arm", "re-solves", "mean(µs)", "prep(µs)", "flow"]);
    table.row(&[
        "cold (in-process)".into(),
        format!("{N_PATCH}"),
        format!("{:.1}", cold_mean as f64 / 1e3),
        "prep + solve".into(),
        "from zero".into(),
    ]);
    table.row(&[
        "patched (daemon RTT incl.)".into(),
        format!("{N_PATCH}"),
        format!("{:.1}", patch_mean as f64 / 1e3),
        "0.0".into(),
        "repair".into(),
    ]);
    table.row(&[
        "seed solve".into(),
        "1".into(),
        format!("{:.1}", seed_wall as f64 / 1e3),
        format!("{:.1}", seed.prep_ns as f64 / 1e3),
        "from zero".into(),
    ]);

    let pass = all_prep_zero && all_warm && equivalent && fast_enough;
    Outcome {
        id: "X8",
        claim: "a weight-edit patch re-solves a cached 200+-task SP instance \
                ≥ 5× faster than a cold solve, with prep_ns = 0 and energies \
                matching the rebuilt instance",
        size: N_TASKS,
        metrics: vec![
            ("cold_mean_ns", cold_mean as f64),
            ("patch_mean_ns", patch_mean as f64),
            ("speedup_x", speedup),
            (
                "warm_lp_hits",
                patch_reports.iter().filter(|(p, _)| p.warm_lp).count() as f64,
            ),
            ("prep_zero", if all_prep_zero { 1.0 } else { 0.0 }),
            ("max_drift", max_drift),
            ("seed_ns", seed_wall as f64),
        ],
        table,
        verdict: format!(
            "{}: {N_PATCH}/{N_PATCH} patches, prep_ns = 0 {}, warm flow {}, \
             max energy drift {:.1e}, speedup {:.1}× (want ≥ 5×)",
            if pass { "PASS" } else { "FAIL" },
            if all_prep_zero { "✓" } else { "✗" },
            if all_warm { "✓" } else { "✗" },
            max_drift,
            speedup,
        ),
    }
}
