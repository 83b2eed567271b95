//! X11 (extension) — event-driven daemon throughput: a deterministic
//! mixed traffic trace replayed serial vs pipelined against a live
//! `reclaimd`, measuring what the nonblocking poll loop and the
//! pipelined client buy together.
//!
//! **The trace.** A fixed xorshift stream deals `REQUESTS_PER_CONN`
//! requests to each of `CONNECTIONS` connections from a weighted mix:
//! cached solves (the common case), multi-deadline solves, sampled
//! and exact energy curves (Vdd-hopping, so the parametric ray and
//! curve cache are on the path), incremental patches against cached
//! bases, and sharded corpus runs — every protocol-v4 request kind
//! the daemon serves. The trace depends only on the seed: with
//! `X11_MANIFEST=PATH` in the environment a manifest (one line per
//! request: connection, sequence number, and the encoded envelope) is
//! written to `PATH`, and two independent process runs must produce
//! byte-identical files (CI `cmp`s them).
//!
//! **Arms.** The same trace replays against a fresh in-process daemon
//! per arm, after an identical warmup that populates the solve,
//! curve, and patch caches:
//!
//! * *serial*: pipeline window 1 — one request in flight, the classic
//!   request/response lockstep;
//! * *pipelined*: window `WINDOW` (32) — the client keeps the window
//!   full and reassociates responses by id in daemon completion
//!   order, exercising the out-of-order write path and the
//!   per-connection admission bound (window = `--max-inflight`).
//!
//! **Gates.** Structural correctness is gated unconditionally: every
//! request must be answered exactly once with the response kind its
//! request calls for (zero dropped, zero mismatched) in both arms.
//! The throughput claim — pipelined ≥ 4× serial — is enforced only
//! when the host grants ≥ 4 cores (below that the speedup is
//! reported, not gated; CI runs on ≥ 4). Per-request latency
//! percentiles (p50/p99) land in `BENCH_X11.json` either way.
//!
//! `X11_SMOKE=1` shrinks the trace for quick CI runs; the manifest
//! determinism contract holds at every scale.

use super::{
    curve_request, identity_patch, kind_matches, percentile, solve_request, write_manifest,
    xorshift, Kind, LiveDaemon, Outcome, SLACK,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_service::cache::CacheConfig;
use reclaim_service::corpus::CorpusJob;
use reclaim_service::daemon::DaemonConfig;
use reclaim_service::proto::{Request, RequestEnvelope, ResponseEnvelope};
use report::Table;
use std::collections::HashMap;
use std::time::Instant;
use taskgraph::{generators, TaskGraph};

/// Pipelined arm's window; matches the daemon's default
/// `--max-inflight` so the admission bound is actually exercised.
const WINDOW: usize = 32;
/// Gate the speedup only at this many cores or more.
const GATE_CORES: usize = 4;

/// Full-scale vs `X11_SMOKE=1` trace dimensions: (connections,
/// requests per connection).
fn scale() -> (usize, usize) {
    if std::env::var("X11_SMOKE").is_ok() {
        (3, 16)
    } else {
        (120, 180)
    }
}

/// The fixed workload pool: small series–parallel graphs (sizes
/// 36–96), their solve deadlines, and the corpus jobs.
struct Pool {
    graphs: Vec<(TaskGraph, f64)>,
    solve_model: models::EnergyModel,
    curve_model: models::EnergyModel,
    corpus_jobs: Vec<CorpusJob>,
}

fn pool() -> Pool {
    // Small graphs on purpose: the replay measures the transport, so
    // per-request work (codec + cached solve) must be cheap enough
    // that the serial arm's cost is the round trip itself.
    let graphs: Vec<(TaskGraph, f64)> = (0..6)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x11AA + i as u64);
            let (g, _) = generators::random_sp(16 + 6 * i, 0.55, 1.0, 5.0, &mut rng);
            let d = SLACK * taskgraph::analysis::critical_path_weight(&g);
            (g, d)
        })
        .collect();
    let corpus_jobs = (0..4)
        .map(|i| CorpusJob {
            name: format!("trace_{i}.inst"),
            graph: generators::chain(&[1.0 + i as f64, 2.0, 0.5, 1.5]),
            model: models::EnergyModel::continuous_unbounded(),
            deadline: 10.0,
        })
        .collect();
    Pool {
        graphs,
        solve_model: models::EnergyModel::continuous_unbounded(),
        curve_model: models::EnergyModel::VddHopping(
            models::DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap(),
        ),
        corpus_jobs,
    }
}

/// Deal the deterministic trace: `conns` connections of `per_conn`
/// requests each, from the weighted mix. Depends only on the seed and
/// the pool — never on timing. Patch requests are
/// [`identity_patch`]es, so every base stays patchable.
fn trace(pool: &Pool, conns: usize, per_conn: usize) -> Vec<Vec<(Kind, Request)>> {
    let mut roll = xorshift(0x2545_f491_4f6c_dd1d);
    (0..conns)
        .map(|_| {
            (0..per_conn)
                .map(|_| {
                    let (g, d) = &pool.graphs[roll(pool.graphs.len() as u64) as usize];
                    match roll(100) {
                        // Cached solves dominate, as in real traffic.
                        0..=49 => solve_request(g, &pool.solve_model, *d),
                        50..=59 => (
                            Kind::Deadlines,
                            Request::SolveDeadlines {
                                graph: g.clone(),
                                model: pool.solve_model.clone(),
                                deadlines: vec![*d, 1.1 * d, 1.5 * d],
                            },
                        ),
                        // Exact curves hit the daemon's curve cache
                        // after warmup; sampled curves recompute every
                        // time, so they ride on the smallest graph
                        // only (they exercise the protocol, not the
                        // throughput claim).
                        60..=61 => curve_request(&pool.graphs[0].0, &pool.curve_model, false),
                        62..=69 => curve_request(g, &pool.curve_model, true),
                        70..=94 => {
                            let task = roll(g.n() as u64) as usize;
                            identity_patch(g, &pool.solve_model, task, *d)
                        }
                        _ => (
                            Kind::Corpus,
                            Request::Corpus {
                                shards: 2,
                                jobs: pool.corpus_jobs.clone(),
                            },
                        ),
                    }
                })
                .collect()
        })
        .collect()
}

/// Render the trace manifest: connection, sequence number, encoded
/// envelope (ids are trace-global sequence numbers, not live client
/// ids). Two runs of the same binary must produce identical bytes.
fn manifest(trace: &[Vec<(Kind, Request)>]) -> String {
    let mut s = String::new();
    let mut seq = 0u64;
    for (c, conn) in trace.iter().enumerate() {
        for (k, (_, req)) in conn.iter().enumerate() {
            s.push_str(&format!(
                "{c}:{k} {}\n",
                RequestEnvelope::new(seq, req.clone()).encode()
            ));
            seq += 1;
        }
    }
    s
}

/// One arm's replay measurements.
struct Arm {
    wall_ns: u64,
    /// Per-request latency samples, nanoseconds.
    lat_ns: Vec<u64>,
    answered: usize,
    mismatched: usize,
    dropped: usize,
}

/// Replay the trace connection by connection at the given window.
/// Window 1 is the serial arm; the code path is otherwise identical.
fn replay(daemon: &LiveDaemon, trace: &[Vec<(Kind, Request)>], window: usize) -> Arm {
    let mut lat_ns = Vec::new();
    let mut answered = 0usize;
    let mut mismatched = 0usize;
    let mut dropped = 0usize;
    let t0 = Instant::now();
    for conn in trace {
        let mut client = daemon.client();
        let mut pipe = client.pipeline(window);
        let mut sent: HashMap<u64, (Instant, Kind)> = HashMap::new();
        let mut record = |resp: ResponseEnvelope,
                          sent: &mut HashMap<u64, (Instant, Kind)>,
                          lat_ns: &mut Vec<u64>| {
            let Some((at, kind)) = sent.remove(&resp.id) else {
                mismatched += 1;
                return;
            };
            lat_ns.push(at.elapsed().as_nanos() as u64);
            answered += 1;
            if !kind_matches(kind, &resp.response) {
                mismatched += 1;
                eprintln!(
                    "X11: request {} expected a {kind:?} answer, got {:?}",
                    resp.id, resp.response
                );
            }
        };
        for (kind, req) in conn {
            let id = pipe.send(req.clone()).expect("pipelined send");
            sent.insert(id, (Instant::now(), *kind));
            // Responses collected while `send` waited for window
            // space: timestamp them now, not at the final drain.
            for resp in pipe.take_ready() {
                record(resp, &mut sent, &mut lat_ns);
            }
        }
        while pipe.outstanding() > 0 {
            let resp = pipe.recv().expect("pipelined recv");
            record(resp, &mut sent, &mut lat_ns);
        }
        dropped += sent.len();
    }
    Arm {
        wall_ns: t0.elapsed().as_nanos() as u64,
        lat_ns,
        answered,
        mismatched,
        dropped,
    }
}

/// Fresh daemon + identical warmup (populate solve, curve, and corpus
/// caches so the replay measures the transport, not cold solves).
fn spawn_warm_daemon(pool: &Pool) -> LiveDaemon {
    let daemon = LiveDaemon::start(DaemonConfig {
        workers: 4,
        cache: CacheConfig {
            max_entries: 4096,
            max_bytes: 256 << 20,
        },
        ..DaemonConfig::default()
    });
    let mut client = daemon.client();
    for (g, d) in &pool.graphs {
        for (_, req) in [
            solve_request(g, &pool.solve_model, *d),
            curve_request(g, &pool.curve_model, true),
        ] {
            client.roundtrip(req).expect("warmup request");
        }
    }
    client
        .roundtrip(Request::Corpus {
            shards: 2,
            jobs: pool.corpus_jobs.clone(),
        })
        .expect("warmup corpus");
    daemon
}

/// Run the experiment.
pub fn run() -> Outcome {
    let (conns, per_conn) = scale();
    let pool = pool();
    let trace = trace(&pool, conns, per_conn);
    let requests: usize = trace.iter().map(Vec::len).sum();
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    if let Ok(path) = std::env::var("X11_MANIFEST") {
        write_manifest(&path, &manifest(&trace));
    }

    let daemon = spawn_warm_daemon(&pool);
    let serial = replay(&daemon, &trace, 1);
    daemon.shutdown();

    let daemon = spawn_warm_daemon(&pool);
    let pipelined = replay(&daemon, &trace, WINDOW);
    daemon.shutdown();

    let speedup = serial.wall_ns as f64 / pipelined.wall_ns.max(1) as f64;
    let fast_enough = speedup >= 4.0 || cores < GATE_CORES;
    let clean = |a: &Arm| a.answered == requests && a.mismatched == 0 && a.dropped == 0;
    let lossless = clean(&serial) && clean(&pipelined);

    let (s_p50, s_p99) = (
        percentile(&serial.lat_ns, 50),
        percentile(&serial.lat_ns, 99),
    );
    let (p_p50, p_p99) = (
        percentile(&pipelined.lat_ns, 50),
        percentile(&pipelined.lat_ns, 99),
    );

    let mut table = Table::new(&[
        "arm",
        "requests",
        "wall(ms)",
        "p50(µs)",
        "p99(µs)",
        "dropped",
        "mismatched",
    ]);
    table.row(&[
        "serial (window 1)".into(),
        format!("{requests}"),
        format!("{:.2}", serial.wall_ns as f64 / 1e6),
        format!("{s_p50:.1}"),
        format!("{s_p99:.1}"),
        format!("{}", serial.dropped),
        format!("{}", serial.mismatched),
    ]);
    table.row(&[
        format!("pipelined (window {WINDOW})"),
        format!("{requests}"),
        format!("{:.2}", pipelined.wall_ns as f64 / 1e6),
        format!("{p_p50:.1}"),
        format!("{p_p99:.1}"),
        format!("{}", pipelined.dropped),
        format!("{}", pipelined.mismatched),
    ]);

    let pass = lossless && fast_enough;
    Outcome {
        id: "X11",
        claim: "the event-driven poll loop sustains pipelined mixed traffic \
                losslessly (every request answered once, right kind, out-of-order \
                completion reassociated by id) and a window of 32 beats serial \
                lockstep by ≥ 4× on the same deterministic trace",
        size: requests,
        metrics: vec![
            ("requests", requests as f64),
            ("connections", conns as f64),
            ("window", WINDOW as f64),
            ("serial_ns", serial.wall_ns as f64),
            ("pipelined_ns", pipelined.wall_ns as f64),
            ("speedup", speedup),
            ("cores", cores as f64),
            ("serial_p50_us", s_p50),
            ("serial_p99_us", s_p99),
            ("pipelined_p50_us", p_p50),
            ("pipelined_p99_us", p_p99),
            ("dropped", (serial.dropped + pipelined.dropped) as f64),
            (
                "mismatched",
                (serial.mismatched + pipelined.mismatched) as f64,
            ),
            ("lossless", f64::from(u8::from(lossless))),
        ],
        table,
        verdict: format!(
            "{}: {requests} requests × 2 arms, speedup {speedup:.2}× on {cores} \
             cores (want ≥ 4× at ≥ {GATE_CORES}), pipelined p99 {p_p99:.1} µs \
             vs serial p99 {s_p99:.1} µs, lossless {}",
            if pass { "PASS" } else { "FAIL" },
            if lossless { "✓" } else { "✗" },
        ),
    }
}
