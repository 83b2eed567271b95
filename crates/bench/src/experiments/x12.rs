//! X12 (extension) — restart-under-replay: what the content-addressed
//! disk store buys a restarted daemon.
//!
//! **The trace.** A deterministic mixed trace over a pool of
//! series–parallel graphs: one preamble solve per graph (so every
//! patch base exists before it is patched, in every arm), then a
//! seeded mix of cached solves, identity patch batches (set a weight,
//! set it back — the XOR-delta key is stable, so bases survive
//! repeated patching), and exact Vdd energy curves. The trace depends
//! only on the seed and is replayed serially — per-request latency is
//! the roundtrip itself.
//!
//! **Arms.**
//!
//! * *populate*: a fresh daemon with `--store DIR` answers the trace,
//!   then shuts down cleanly (clean shutdown spills every cached
//!   instance and retained curve to the store);
//! * *warm*: a second daemon boots on the populated store — its start
//!   (which includes the recovery scan) is timed — and answers the
//!   same trace. Every instance it needs re-materializes from disk:
//!   zero prepare passes, curves served from restored slots;
//! * *cold*: a daemon with no store answers the same trace from
//!   scratch — one prepare pass per distinct instance.
//!
//! **Gates.** All three arms must answer every request exactly once
//! with the right response kind, and the warm arm's energies must be
//! bit-identical to the cold arm's (the store roundtrip loses
//! nothing). The headline claim — the cold arm pays ≥ 5× the warm
//! arm's prepare passes — is a deterministic count, so it is gated
//! unconditionally at any core count. Recovery time and p50/p99
//! latencies land in `BENCH_X12.json`.
//!
//! `X12_SMOKE=1` shrinks the trace for quick CI runs; every gate
//! holds at every scale.

use super::{
    curve_request, identity_patch, kind_matches, percentile, solve_request, time_it, xorshift,
    Kind, LiveDaemon, Outcome, SLACK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_service::cache::CacheConfig;
use reclaim_service::daemon::DaemonConfig;
use reclaim_service::proto::{Request, Response};
use report::Table;
use std::path::PathBuf;
use taskgraph::{generators, TaskGraph};

/// The headline bar: cold prepare passes ≥ this multiple of warm.
const GATE_RATIO: f64 = 5.0;

/// Full-scale vs `X12_SMOKE=1` trace dimensions: (graphs, total
/// requests including the per-graph preamble).
fn scale() -> (usize, usize) {
    if std::env::var("X12_SMOKE").is_ok() {
        (8, 60)
    } else {
        (40, 1200)
    }
}

/// The fixed workload pool: series–parallel graphs with their solve
/// deadlines, one solve model, one curve model.
struct Pool {
    graphs: Vec<(TaskGraph, f64)>,
    solve_model: models::EnergyModel,
    curve_model: models::EnergyModel,
}

fn pool(n_graphs: usize) -> Pool {
    let graphs: Vec<(TaskGraph, f64)> = (0..n_graphs)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x12AA + i as u64);
            let n = 16 + (i % 24);
            let (g, _) = generators::random_sp(n, 0.55, 1.0, 5.0, &mut rng);
            let d = SLACK * taskgraph::analysis::critical_path_weight(&g);
            (g, d)
        })
        .collect();
    Pool {
        graphs,
        solve_model: models::EnergyModel::continuous_unbounded(),
        curve_model: models::EnergyModel::VddHopping(
            models::DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap(),
        ),
    }
}

/// Deal the deterministic trace: one preamble solve per graph, then
/// the seeded mix. Depends only on the seed and the pool — never on
/// timing — so all three arms answer byte-for-byte the same requests.
fn trace(pool: &Pool, total: usize) -> Vec<(Kind, Request)> {
    let mut out: Vec<(Kind, Request)> = pool
        .graphs
        .iter()
        .map(|(g, d)| solve_request(g, &pool.solve_model, *d))
        .collect();
    let mut roll = xorshift(0x9e37_79b9_7f4a_7c15);
    while out.len() < total {
        let (g, d) = &pool.graphs[roll(pool.graphs.len() as u64) as usize];
        let entry = match roll(100) {
            0..=54 => solve_request(g, &pool.solve_model, *d),
            // Identity batches keep every base patchable for the whole
            // trace.
            55..=84 => {
                let task = roll(g.n() as u64) as usize;
                identity_patch(g, &pool.solve_model, task, *d)
            }
            _ => curve_request(g, &pool.curve_model, true),
        };
        out.push(entry);
    }
    out
}

/// A timing-free fingerprint of one response: energy bits for solves
/// and patches, segment layout for exact curves. Equal traces must
/// fingerprint equally across arms — the store roundtrip is lossless.
fn fingerprint(resp: &Response) -> u64 {
    match resp {
        Response::Solve(r) => r.energy.to_bits(),
        Response::Patch(p) => p.report.energy.to_bits() ^ (p.key as u64),
        Response::CurveExact(c) => c.segments.iter().fold(c.segments.len() as u64, |acc, s| {
            acc ^ s.deadline_lo.to_bits().rotate_left(17) ^ s.deadline_hi.to_bits().rotate_right(13)
        }),
        _ => 0,
    }
}

/// One arm's replay measurements.
struct Arm {
    lat_ns: Vec<u64>,
    answered: usize,
    mismatched: usize,
    /// Solve responses that paid a prepare pass (`prep_ns > 0`) — the
    /// quantity the store exists to eliminate after a restart.
    prepares: usize,
    /// Exact-curve responses served from a retained (or restored)
    /// curve slot.
    cached_curves: usize,
    fingerprints: Vec<u64>,
}

/// Replay the trace serially over one connection.
fn replay(daemon: &LiveDaemon, trace: &[(Kind, Request)]) -> Arm {
    let mut client = daemon.client();
    let mut arm = Arm {
        lat_ns: Vec::with_capacity(trace.len()),
        answered: 0,
        mismatched: 0,
        prepares: 0,
        cached_curves: 0,
        fingerprints: Vec::with_capacity(trace.len()),
    };
    for (kind, req) in trace {
        let t0 = std::time::Instant::now();
        let resp = client.roundtrip(req.clone()).expect("replay roundtrip");
        arm.lat_ns.push(t0.elapsed().as_nanos() as u64);
        arm.answered += 1;
        if !kind_matches(*kind, &resp.response) {
            arm.mismatched += 1;
            eprintln!(
                "X12: request {} expected a {kind:?} answer, got {:?}",
                resp.id, resp.response
            );
        }
        match &resp.response {
            Response::Solve(r) if r.prep_ns > 0 => arm.prepares += 1,
            Response::CurveExact(c) if c.cached_curve => arm.cached_curves += 1,
            _ => {}
        }
        arm.fingerprints.push(fingerprint(&resp.response));
    }
    arm
}

/// Start an in-process daemon, optionally on a store directory (whose
/// recovery scan then runs inside the start).
fn start_daemon(store: Option<PathBuf>) -> LiveDaemon {
    LiveDaemon::start(DaemonConfig {
        workers: 2,
        cache: CacheConfig {
            max_entries: 4096,
            max_bytes: 256 << 20,
        },
        store,
        ..DaemonConfig::default()
    })
}

/// Run the experiment.
pub fn run() -> Outcome {
    let (n_graphs, total) = scale();
    let pool = pool(n_graphs);
    let trace = trace(&pool, total);
    let requests = trace.len();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    let dir = std::env::temp_dir().join(format!("reclaim-x12-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // Arm 1: populate the store, then shut down cleanly (the spill on
    // shutdown is what a warm restart recovers from).
    let daemon = start_daemon(Some(dir.clone()));
    let populate = replay(&daemon, &trace);
    let populated = daemon.stats().store;
    daemon.shutdown();

    // Arm 2: restart on the populated store. The start is the
    // recovery: the boot scan re-indexes every entry before the
    // socket opens.
    let (daemon, recovery_s) = time_it(|| start_daemon(Some(dir.clone())));
    let warm = replay(&daemon, &trace);
    let recovered = daemon.stats().store;
    daemon.shutdown();

    // Arm 3: no store — every distinct instance pays its prepare.
    let daemon = start_daemon(None);
    let cold = replay(&daemon, &trace);
    daemon.shutdown();

    let _ = std::fs::remove_dir_all(&dir);

    let clean = |a: &Arm| a.answered == requests && a.mismatched == 0;
    let lossless = clean(&populate) && clean(&warm) && clean(&cold);
    let answers_match =
        populate.fingerprints == warm.fingerprints && warm.fingerprints == cold.fingerprints;
    let prepare_ratio = cold.prepares as f64 / warm.prepares.max(1) as f64;
    // Prepare counts are deterministic (they depend on the trace, not
    // on timing), so the ratio is gated unconditionally.
    let few_prepares = prepare_ratio >= GATE_RATIO;
    let recovered_warm = recovered.recovered > 0;

    let (w_p50, w_p99) = (percentile(&warm.lat_ns, 50), percentile(&warm.lat_ns, 99));
    let (c_p50, c_p99) = (percentile(&cold.lat_ns, 50), percentile(&cold.lat_ns, 99));

    let mut table = Table::new(&[
        "arm",
        "requests",
        "prepares",
        "cached curves",
        "p50(µs)",
        "p99(µs)",
        "mismatched",
    ]);
    for (name, a) in [
        ("populate (store, cold)", &populate),
        ("warm restart (store)", &warm),
        ("cold (no store)", &cold),
    ] {
        table.row(&[
            name.into(),
            format!("{requests}"),
            format!("{}", a.prepares),
            format!("{}", a.cached_curves),
            format!("{:.1}", percentile(&a.lat_ns, 50)),
            format!("{:.1}", percentile(&a.lat_ns, 99)),
            format!("{}", a.mismatched),
        ]);
    }

    let pass = lossless && answers_match && few_prepares && recovered_warm;
    Outcome {
        id: "X12",
        claim: "a daemon restarted on its content-addressed store answers the \
                same deterministic trace with bit-identical energies, zero-ish \
                prepare passes (>= 5x fewer than a cold start), and curves \
                served from restored slots — recovery time is one boot scan",
        size: requests,
        metrics: vec![
            ("requests", requests as f64),
            ("graphs", n_graphs as f64),
            ("cores", cores as f64),
            ("cold_prepares", cold.prepares as f64),
            ("warm_prepares", warm.prepares as f64),
            ("prepare_ratio", prepare_ratio),
            ("recovery_ms", recovery_s * 1e3),
            ("warm_p50_us", w_p50),
            ("warm_p99_us", w_p99),
            ("cold_p50_us", c_p50),
            ("cold_p99_us", c_p99),
            ("warm_cached_curves", warm.cached_curves as f64),
            ("store_entries", populated.entries as f64),
            ("store_bytes", populated.bytes as f64),
            ("store_recovered", recovered.recovered as f64),
            ("store_corrupt_skipped", recovered.corrupt_skipped as f64),
            ("answers_match", f64::from(u8::from(answers_match))),
            ("lossless", f64::from(u8::from(lossless))),
        ],
        table,
        verdict: format!(
            "{}: {requests} requests × 3 arms, cold paid {} prepare passes vs \
             {} warm ({prepare_ratio:.1}×, want ≥ {GATE_RATIO}×), recovery \
             {:.2} ms for {} entries, energies {} across arms, lossless {}",
            if pass { "PASS" } else { "FAIL" },
            cold.prepares,
            warm.prepares,
            recovery_s * 1e3,
            recovered.recovered,
            if answers_match {
                "bit-identical"
            } else {
                "DRIFTED"
            },
            if lossless { "✓" } else { "✗" },
        ),
    }
}
