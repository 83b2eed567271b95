//! X7 (extension) — daemon throughput: repeated solves of one
//! instance through a live `reclaimd`, measuring what the
//! content-addressed cache buys.
//!
//! A daemon is started in-process on an ephemeral TCP port; a client
//! sends the same 240-task series–parallel instance once cold (cache
//! miss: the worker prepares and warms the analysis) and then
//! `WARM_REQUESTS` more times (cache hits: `prep_ns` must be 0 and
//! the solve must run against the retained analysis). The pass
//! condition is structural, not a wall-clock race: every repeat must
//! report `cached` with zero preparation, and the daemon's own hit
//! counter must match. Wall-clock per phase still lands in
//! `BENCH_X7.json` (`cold_ns` vs `warm_mean_ns`) so the perf trail
//! tracks daemon latency from this PR onward.

use super::{LiveDaemon, Outcome};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_service::daemon::DaemonConfig;
use reclaim_service::proto::{Request, Response, SolveReport};
use report::Table;
use taskgraph::generators;

/// Graph size (large enough that SP recognition is a real cost) and
/// warm-phase request count.
const N_TASKS: usize = 240;
const WARM_REQUESTS: usize = 16;

/// Run the experiment.
pub fn run() -> Outcome {
    let mut rng = StdRng::seed_from_u64(7777);
    let (g, _) = generators::random_sp(N_TASKS, 0.55, 1.0, 5.0, &mut rng);
    let model = models::EnergyModel::continuous_unbounded();
    let deadline = 1.4 * taskgraph::analysis::critical_path_weight(&g);

    let daemon = LiveDaemon::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let mut client = daemon.client();
    let mut ask = |g: &taskgraph::TaskGraph| -> (SolveReport, u128) {
        let t0 = std::time::Instant::now();
        let resp = client
            .roundtrip(Request::Solve {
                graph: g.clone(),
                model: model.clone(),
                deadline,
            })
            .expect("solve roundtrip");
        let wall = t0.elapsed().as_nanos();
        match resp.response {
            Response::Solve(r) => (r, wall),
            other => panic!("unexpected response: {other:?}"),
        }
    };

    let (cold, cold_wall) = ask(&g);
    let mut warm_reports = Vec::with_capacity(WARM_REQUESTS);
    let mut warm_wall_total = 0u128;
    for _ in 0..WARM_REQUESTS {
        let (r, wall) = ask(&g);
        warm_wall_total += wall;
        warm_reports.push(r);
    }
    let stats = daemon.stats();
    daemon.shutdown();

    let hits_ok = stats.cache.hits >= WARM_REQUESTS as u64;
    let all_cached = warm_reports.iter().all(|r| r.cached && r.prep_ns == 0);
    let cold_ok = !cold.cached && cold.prep_ns > 0;
    let energy_stable = warm_reports
        .iter()
        .all(|r| (r.energy - cold.energy).abs() <= 1e-9 * (1.0 + cold.energy));
    let warm_mean_wall = warm_wall_total / WARM_REQUESTS as u128;
    let warm_mean_solve =
        warm_reports.iter().map(|r| r.solve_ns).sum::<u64>() / WARM_REQUESTS as u64;

    let mut table = Table::new(&["phase", "requests", "wall(µs)", "prep(µs)", "cache"]);
    table.row(&[
        "cold".into(),
        "1".into(),
        format!("{:.1}", cold_wall as f64 / 1e3),
        format!("{:.1}", cold.prep_ns as f64 / 1e3),
        "miss".into(),
    ]);
    table.row(&[
        "warm".into(),
        format!("{WARM_REQUESTS}"),
        format!("{:.1} (mean)", warm_mean_wall as f64 / 1e3),
        "0.0".into(),
        "hit".into(),
    ]);

    let pass = hits_ok && all_cached && cold_ok && energy_stable;
    Outcome {
        id: "X7",
        claim: "repeated solves through reclaimd skip preparation: \
                every repeat is a cache hit with prep_ns = 0, at identical energy",
        size: N_TASKS,
        metrics: vec![
            ("cold_ns", cold_wall as f64),
            ("cold_prep_ns", cold.prep_ns as f64),
            ("warm_mean_ns", warm_mean_wall as f64),
            ("warm_mean_solve_ns", warm_mean_solve as f64),
            ("cache_hits", stats.cache.hits as f64),
        ],
        table,
        verdict: format!(
            "{}: {}/{WARM_REQUESTS} hits with prep_ns = 0 (daemon counted {}), \
             cold prep {:.1} µs",
            if pass { "PASS" } else { "FAIL" },
            warm_reports.iter().filter(|r| r.cached).count(),
            stats.cache.hits,
            cold.prep_ns as f64 / 1e3,
        ),
    }
}
