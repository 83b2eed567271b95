//! Integration tests against a real `reclaimd` process: spawn the
//! binary on a temp Unix socket, drive it over the wire, and assert
//! the acceptance behaviors — repeated solves hit the cache (hit
//! counter increments, `prep_ns` drops to 0), a tiny budget evicts,
//! and `shutdown` exits cleanly and removes the socket.

use models::EnergyModel;
use reclaim_service::client::Client;
use reclaim_service::daemon::{Daemon, DaemonConfig, Endpoint};
use reclaim_service::proto::{ErrorKind, Request, Response, SolveReport, StatsReport};
use std::path::PathBuf;
use std::process::{Child, Command};
use std::time::Duration;
use taskgraph::{generators, TaskGraph};

struct Spawned {
    child: Child,
    endpoint: Endpoint,
    socket: PathBuf,
}

impl Spawned {
    /// Spawn `reclaimd` on a fresh temp socket with extra flags.
    fn new(tag: &str, extra: &[&str]) -> Spawned {
        let socket =
            std::env::temp_dir().join(format!("reclaimd-test-{}-{tag}.sock", std::process::id()));
        let _ = std::fs::remove_file(&socket);
        let child = Command::new(env!("CARGO_BIN_EXE_reclaimd"))
            .arg("--socket")
            .arg(&socket)
            .args(extra)
            .stderr(std::process::Stdio::null())
            .spawn()
            .expect("spawn reclaimd");
        Spawned {
            child,
            endpoint: Endpoint::Unix(socket.clone()),
            socket,
        }
    }

    fn client(&self) -> Client {
        Client::connect_with_retry(&self.endpoint, Duration::from_secs(10))
            .expect("daemon must come up")
    }

    /// Ask for shutdown, close the connection, and assert a clean
    /// exit (the daemon drains open connections before exiting, so
    /// the client must be dropped before waiting).
    fn shutdown(mut self, mut client: Client) {
        match client.roundtrip(Request::Shutdown).unwrap().response {
            Response::Shutdown => {}
            other => panic!("unexpected shutdown response: {other:?}"),
        }
        drop(client);
        let status = self.child.wait().expect("wait for reclaimd");
        assert!(status.success(), "daemon must exit cleanly: {status:?}");
        assert!(
            !self.socket.exists(),
            "socket file must be removed on shutdown"
        );
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_file(&self.socket);
    }
}

fn big_graph(seed: u64) -> TaskGraph {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_sp(120, 0.55, 1.0, 5.0, &mut rng).0
}

fn solve_req(g: &TaskGraph) -> Request {
    Request::Solve {
        graph: g.clone(),
        model: EnergyModel::continuous_unbounded(),
        deadline: 1.5 * taskgraph::analysis::critical_path_weight(g),
    }
}

fn expect_solve(resp: Response) -> SolveReport {
    match resp {
        Response::Solve(r) => r,
        other => panic!("expected a solve report, got {other:?}"),
    }
}

fn expect_stats(resp: Response) -> StatsReport {
    match resp {
        Response::Stats(s) => s,
        other => panic!("expected stats, got {other:?}"),
    }
}

/// Send one raw frame and decode its answer.
fn raw_exchange(
    raw: &mut std::os::unix::net::UnixStream,
    frame: &str,
) -> reclaim_service::proto::ResponseEnvelope {
    use reclaim_service::proto::{read_frame, write_frame, ResponseEnvelope};
    write_frame(raw, frame).unwrap();
    let payload = read_frame(raw).unwrap().expect("an answer");
    ResponseEnvelope::decode(&payload).unwrap()
}

fn expect_error(resp: Response) -> reclaim_service::proto::ErrorBody {
    match resp {
        Response::Error(e) => e,
        other => panic!("expected an error, got {other:?}"),
    }
}

/// The v2 patch path, end to end over the wire: cache an instance,
/// mutate it in place by content key, chain a second patch off the
/// returned key, and check the stats ledger kept patch traffic apart
/// from plain hits.
#[test]
fn patch_edits_cached_instance_in_place() {
    use reclaim_service::proto::PatchReport;
    use taskgraph::edit::GraphEdit;

    let daemon = Spawned::new("patch", &["--workers", "2"]);
    let mut client = daemon.client();
    // Modest size: the structural patch below forces a cold LP, and
    // this is a debug-build test.
    let g = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(3);
        generators::random_sp(36, 0.55, 1.0, 5.0, &mut rng).0
    };
    let model = EnergyModel::VddHopping(models::DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap());
    let deadline = 1.5 * taskgraph::analysis::critical_path_weight(&g);

    let expect_patch = |resp: Response| -> PatchReport {
        match resp {
            Response::Patch(p) => p,
            other => panic!("expected a patch report, got {other:?}"),
        }
    };

    // Patching an unknown base is a structured unknown_base error.
    let missing = client.patch(42, &[], deadline).unwrap().response;
    match missing {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownBase),
        other => panic!("expected unknown_base, got {other:?}"),
    }

    // Seed the cache, then patch a weight.
    let seeded = expect_solve(
        client
            .roundtrip(Request::Solve {
                graph: g.clone(),
                model: model.clone(),
                deadline,
            })
            .unwrap()
            .response,
    );
    assert!(!seeded.cached);
    let base = reclaim_core::engine::content_key(&g, &model);
    let edits = [GraphEdit::SetWeight {
        task: 7,
        weight: 3.25,
    }];
    let p1 = expect_patch(client.patch(base, &edits, deadline).unwrap().response);
    assert!(p1.report.cached, "the base came from the cache");
    assert_eq!(p1.report.prep_ns, 0, "weight edits re-prepare nothing");
    assert!(p1.warm_lp, "weight-only Vdd patch must reuse the LP basis");
    // The returned key matches an independent rehash of the edited
    // graph, and the patched result matches a cold solve of it.
    let (edited, _) = taskgraph::edit::apply_edits(&g, &edits).unwrap();
    assert_eq!(p1.key, reclaim_core::engine::content_key(&edited, &model));
    let cold = expect_solve(
        client
            .roundtrip(Request::Solve {
                graph: edited.clone(),
                model: model.clone(),
                deadline,
            })
            .unwrap()
            .response,
    );
    assert!(
        cold.cached,
        "patched entry is addressable under its new key"
    );
    assert!(
        (p1.report.energy - cold.energy).abs() <= 1e-6 * (1.0 + cold.energy),
        "patched {} vs direct {}",
        p1.report.energy,
        cold.energy
    );

    // Chain a structural edit off the returned key: prep is measured
    // (caches re-warmed), the LP goes cold again.
    let p2 = expect_patch(
        client
            .patch(
                p1.key,
                &[GraphEdit::RemoveTask {
                    task: edited.n() - 1,
                }],
                deadline,
            )
            .unwrap()
            .response,
    );
    assert!(!p2.warm_lp, "structural edit spends the warm basis");
    assert_ne!(p2.key, p1.key);

    // The old base key was re-keyed away: patching it again misses.
    match client.patch(base, &edits, deadline).unwrap().response {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::UnknownBase),
        other => panic!("expected unknown_base after re-key, got {other:?}"),
    }

    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.cache.patch_hits, 2);
    assert_eq!(stats.cache.patch_misses, 2);
    assert_eq!(stats.cache.rekeys, 2);
    // Patch traffic stayed out of the plain hit/miss ledger: one hit
    // (the direct re-solve of the edited graph), one miss (the seed
    // solve) — the unknown-base patches never touched it.
    assert_eq!(stats.cache.hits, 1);
    assert_eq!(stats.cache.misses, 1);
    daemon.shutdown(client);
}

/// The acceptance path: a repeated solve of the same instance skips
/// preparation — the hit counter increments and the second report's
/// solve_ns excludes preparation (prep_ns == 0).
#[test]
fn repeated_solve_hits_cache_and_skips_preparation() {
    let daemon = Spawned::new("hit", &["--workers", "2"]);
    let mut client = daemon.client();
    let g = big_graph(1);

    let first = expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    assert!(!first.cached, "first sight of this content is a miss");
    assert!(first.prep_ns > 0, "the miss pays for preparation");

    let hits_before = expect_stats(client.roundtrip(Request::Stats).unwrap().response)
        .cache
        .hits;

    let second = expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    assert!(second.cached, "identical content must hit");
    assert_eq!(second.prep_ns, 0, "a hit pays nothing for preparation");
    assert!(
        (second.energy - first.energy).abs() <= 1e-9 * (1.0 + first.energy),
        "cached preparation must not change the answer"
    );

    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert!(
        stats.cache.hits > hits_before,
        "cache-hit counter must increment ({} -> {})",
        hits_before,
        stats.cache.hits
    );
    assert_eq!(stats.cache.entries, 1);
    // Both worker slots are reported, and the pool did all the work.
    assert_eq!(stats.workers.len(), 2);
    assert!(stats.workers.iter().map(|w| w.solves).sum::<u64>() >= 2);

    daemon.shutdown(client);
}

/// A worker's `stats` row is its whole work ledger: a cold solve of an
/// SP graph shows its one classification and its one SP recognition,
/// and a repeat of the same frame, a cache hit, adds neither.
#[test]
fn worker_row_shows_the_analysis_passes_a_cold_solve_paid() {
    let daemon = Spawned::new("ledger", &["--workers", "1"]);
    let mut client = daemon.client();
    let g = big_graph(4);
    assert!(!expect_solve(client.roundtrip(solve_req(&g)).unwrap().response).cached);
    let cold = expect_stats(client.roundtrip(Request::Stats).unwrap().response).workers[0];
    assert_eq!((cold.classify, cold.sp_from_graph), (1, 1), "{cold:?}");

    assert!(expect_solve(client.roundtrip(solve_req(&g)).unwrap().response).cached);
    let hot = expect_stats(client.roundtrip(Request::Stats).unwrap().response).workers[0];
    let delta = hot - cold;
    assert_eq!((delta.requests, delta.solves), (1, 1));
    assert_eq!((delta.classify, delta.sp_from_graph), (0, 0), "{delta:?}");
    daemon.shutdown(client);
}

/// Under a one-entry budget, a second distinct instance evicts the
/// first (and the evictee misses when it returns).
#[test]
fn tiny_budget_evicts_lru() {
    let daemon = Spawned::new("evict", &["--cache-entries", "1"]);
    let mut client = daemon.client();
    let (a, b) = (big_graph(10), big_graph(11));

    expect_solve(client.roundtrip(solve_req(&a)).unwrap().response);
    expect_solve(client.roundtrip(solve_req(&b)).unwrap().response);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.cache.entries, 1, "budget holds");
    assert!(stats.cache.evictions >= 1, "a must have been evicted");

    let again = expect_solve(client.roundtrip(solve_req(&a)).unwrap().response);
    assert!(!again.cached, "evicted content must miss");

    daemon.shutdown(client);
}

/// A burst of one-off solves larger than the entry budget does not
/// evict the head of a patch chain a client is still patching.
#[test]
fn one_off_burst_keeps_patch_chain_alive() {
    use taskgraph::edit::GraphEdit;

    let daemon = Spawned::new("chain", &["--cache-entries", "4"]);
    let mut client = daemon.client();
    let g = big_graph(20);
    let deadline = 1.5 * taskgraph::analysis::critical_path_weight(&g);
    let patch_key = |client: &mut Client, base: u128, weight: f64| -> u128 {
        let edits = [GraphEdit::SetWeight { task: 3, weight }];
        match client.patch(base, &edits, deadline).unwrap().response {
            Response::Patch(p) => p.key,
            other => panic!("expected a patch report, got {other:?}"),
        }
    };

    expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    let base = reclaim_core::engine::content_key(&g, &EnergyModel::continuous_unbounded());
    let head = patch_key(&mut client, base, 2.5);
    for seed in 30..34 {
        expect_solve(
            client
                .roundtrip(solve_req(&big_graph(seed)))
                .unwrap()
                .response,
        );
    }
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.cache.entries, 4, "budget holds");
    assert_eq!(stats.cache.evictions, 1, "one one-off made room");
    // The chain head survived the burst: patching it gets an answer.
    patch_key(&mut client, head, 3.5);

    daemon.shutdown(client);
}

/// The multi-solve request types work over the wire, and errors come
/// back structured.
#[test]
fn sweep_batch_and_structured_errors() {
    let daemon = Spawned::new("multi", &[]);
    let mut client = daemon.client();
    let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
    let model = EnergyModel::continuous(2.0);

    // solve_deadlines: first feasible entry pays prep once.
    let resp = client
        .roundtrip(Request::SolveDeadlines {
            graph: g.clone(),
            model: model.clone(),
            deadlines: vec![0.1, 5.0, 8.0],
        })
        .unwrap()
        .response;
    let Response::Deadlines(items) = resp else {
        panic!("expected deadlines response");
    };
    assert_eq!(items.len(), 3);
    let e = items[0].as_ref().unwrap_err();
    assert_eq!(e.kind, ErrorKind::Infeasible, "0.1 is below dmin");
    assert!(e.deadline.is_some() && e.min_makespan.is_some());
    let (r1, r2) = (items[1].as_ref().unwrap(), items[2].as_ref().unwrap());
    assert!(r1.energy > r2.energy, "looser deadline, lower energy");

    // energy_curve over the same (already cached) instance.
    let resp = client
        .roundtrip(Request::EnergyCurve {
            graph: g.clone(),
            model: model.clone(),
            points: 6,
            lo: 1.1,
            hi: 3.0,
            exact: false,
        })
        .unwrap()
        .response;
    let Response::Curve(points) = resp else {
        panic!("expected curve response");
    };
    assert_eq!(points.len(), 6);
    assert!(points.windows(2).all(|w| w[1].1 <= w[0].1 * (1.0 + 1e-9)));

    // batch under one model.
    let resp = client
        .roundtrip(Request::Batch {
            model,
            jobs: vec![(g.clone(), 5.0), (g.clone(), 0.01), (g, 9.0)],
        })
        .unwrap()
        .response;
    let Response::Batch(items) = resp else {
        panic!("expected batch response");
    };
    assert_eq!(items.len(), 3);
    assert!(items[0].is_ok() && items[2].is_ok());
    assert_eq!(items[1].as_ref().unwrap_err().kind, ErrorKind::Infeasible);

    daemon.shutdown(client);
}

/// The v3 exact energy_curve path, end to end: closed-form segments
/// that agree with the sampled curve pointwise, a retained ray that
/// answers the repeat request as `cached_curve`, and a patch that
/// invalidates it (the weights changed, so the old curve is wrong).
#[test]
fn exact_curve_over_the_wire_with_retained_ray() {
    use models::DiscreteModes;
    use reclaim_core::engine::content_key;
    use reclaim_service::proto::CurveExactReport;
    use taskgraph::edit::GraphEdit;

    let daemon = Spawned::new("exactcurve", &[]);
    let mut client = daemon.client();
    let g = generators::diamond([1.0, 2.0, 3.0, 1.5]);
    let modes = DiscreteModes::new(&[0.8, 1.6, 2.4]).unwrap();
    let model = EnergyModel::VddHopping(modes);
    let (lo, hi) = (1.05, 3.0);
    let curve_req = |exact: bool| Request::EnergyCurve {
        graph: g.clone(),
        model: model.clone(),
        points: 8,
        lo,
        hi,
        exact,
    };
    let expect_exact = |resp: Response| -> CurveExactReport {
        match resp {
            Response::CurveExact(c) => c,
            other => panic!("expected an exact curve, got {other:?}"),
        }
    };

    let first = expect_exact(client.roundtrip(curve_req(true)).unwrap().response);
    assert!(first.exact, "Vdd curves are exact closed forms");
    assert!(!first.cached_curve, "first request computes");
    assert!(!first.segments.is_empty());
    for w in first.segments.windows(2) {
        assert!(
            (w[0].deadline_hi - w[1].deadline_lo).abs() <= 1e-9 * (1.0 + w[0].deadline_hi),
            "segments must be contiguous"
        );
    }

    // The sampled curve (same instance, same range) agrees pointwise.
    let resp = client.roundtrip(curve_req(false)).unwrap().response;
    let Response::Curve(points) = resp else {
        panic!("expected a sampled curve");
    };
    let curve = reclaim_core::ExactCurve {
        segments: first.segments.clone(),
        exact: first.exact,
        stats: Default::default(),
    };
    for &(d, e) in &points {
        let exact = curve.energy_at(d).expect("sampled point inside range");
        assert!(
            (exact - e).abs() <= 1e-6 * (1.0 + e),
            "exact {exact} vs sampled {e} at D = {d}"
        );
    }

    // Repeat request: served from the retained ray.
    let again = expect_exact(client.roundtrip(curve_req(true)).unwrap().response);
    assert!(again.cached_curve, "repeat must be served from the slot");
    assert_eq!(again.segments, first.segments);

    // A weight patch re-keys the entry; the retained curve must not
    // survive onto the patched instance.
    let base = content_key(&g, &model);
    let resp = client
        .patch(
            base,
            &[GraphEdit::SetWeight {
                task: 1,
                weight: 4.0,
            }],
            6.0,
        )
        .unwrap()
        .response;
    let Response::Patch(_) = resp else {
        panic!("expected a patch response, got {resp:?}");
    };
    let (g2, _) = taskgraph::edit::apply_edits(
        &g,
        &[GraphEdit::SetWeight {
            task: 1,
            weight: 4.0,
        }],
    )
    .unwrap();
    let fresh = expect_exact(
        client
            .roundtrip(Request::EnergyCurve {
                graph: g2,
                model: model.clone(),
                points: 8,
                lo,
                hi,
                exact: true,
            })
            .unwrap()
            .response,
    );
    assert!(
        !fresh.cached_curve,
        "patched instance must recompute its curve"
    );

    daemon.shutdown(client);
}

/// Malformed envelopes are answered (not dropped) with protocol /
/// bad-request errors, and the daemon keeps serving afterwards.
#[test]
fn malformed_requests_get_structured_answers() {
    let daemon = Spawned::new("malformed", &[]);
    let mut client = daemon.client();

    // An unknown version, sent raw over a second connection.
    {
        let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
        let resp = raw_exchange(&mut raw, r#"{"v":99,"id":5,"type":"stats"}"#);
        let e = expect_error(resp.response);
        assert_eq!(e.kind, ErrorKind::Protocol);
        assert!(e.message.contains("version"), "{}", e.message);
    }

    // The daemon still answers well-formed requests.
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.cache.entries, 0);

    daemon.shutdown(client);
}

/// A non-positive deadline under unbounded Continuous has an infinite
/// minimum makespan, which JSON cannot carry: the answer omits the
/// field instead of killing the worker, and the pool keeps serving
/// with no request left in flight.
#[test]
fn infinite_min_makespan_is_answered_not_fatal() {
    use reclaim_service::proto::RequestEnvelope;
    let daemon = Spawned::new("inf-makespan", &["--workers", "2"]);
    let mut client = daemon.client();
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    let g = generators::chain(&[1.0, 2.0]);
    let frame = RequestEnvelope::new(
        77,
        Request::Solve {
            graph: g.clone(),
            model: EnergyModel::continuous_unbounded(),
            deadline: -3.0,
        },
    )
    .encode();
    let resp = raw_exchange(&mut raw, &frame);
    assert_eq!(resp.id, 77, "answered under the frame's own id");
    let e = expect_error(resp.response);
    assert_eq!(e.kind, ErrorKind::Infeasible);
    assert_eq!(e.deadline, Some(-3.0));
    assert_eq!(e.min_makespan, None, "a non-finite number is omitted");

    expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.net.inflight, 0, "every admitted request answered");
    drop(raw);
    daemon.shutdown(client);
}

/// Frames whose answers would carry a number past f64's range (an
/// infinite energy, or a curve deadline that overflows) are answered
/// with structured `numerical`/`unsupported` errors under their own
/// ids. The lone worker survives all of them: the plain solve after
/// them is answered, and nothing is left in flight.
#[test]
fn non_finite_results_are_answered_not_fatal() {
    let daemon = Spawned::new("non-finite", &["--workers", "1"]);
    let mut client = daemon.client();
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    // A dead worker never answers: fail instead of hanging.
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let one = r#""graph":{"weights":[1],"edges":[]},"model":{"kind":"continuous"}"#;
    let huge = r#""graph":{"weights":[1e10],"edges":[]},"model":{"kind":"continuous"}"#;
    let frames = [
        format!(r#"{{"v":1,"id":101,"type":"solve",{one},"deadline":1e-200}}"#),
        r#"{"v":1,"id":102,"type":"solve","graph":{"weights":[1e300,1e300],"edges":[[0,1]]},"model":{"kind":"continuous"},"deadline":1}"#.to_string(),
        format!(r#"{{"v":1,"id":103,"type":"solve_deadlines",{one},"deadlines":[1,1e-200]}}"#),
        r#"{"v":1,"id":104,"type":"batch","model":{"kind":"continuous"},"jobs":[{"graph":{"weights":[1],"edges":[]},"deadline":1e-200}]}"#.to_string(),
        format!(r#"{{"v":1,"id":105,"type":"energy_curve",{one},"points":4,"lo":1e-200,"hi":2}}"#),
        format!(r#"{{"v":1,"id":106,"type":"energy_curve",{huge},"points":4,"lo":1.5,"hi":1e300}}"#),
        format!(
            r#"{{"v":3,"id":107,"type":"energy_curve",{huge},"points":4,"lo":1.5,"hi":1e300,"exact":true}}"#
        ),
        // Finite deadlines, but the power law's coefficient overflows.
        r#"{"v":3,"id":108,"type":"energy_curve","graph":{"weights":[1e103],"edges":[]},"model":{"kind":"continuous"},"points":4,"lo":1.5,"hi":3,"exact":true}"#.to_string(),
    ];
    for (i, frame) in frames.iter().enumerate() {
        let resp = raw_exchange(&mut raw, frame);
        assert_eq!(resp.id, 101 + i as u64, "answered under the frame's own id");
        let errors: Vec<ErrorKind> = match resp.response {
            Response::Error(e) => vec![e.kind],
            Response::Deadlines(items) | Response::Batch(items) => items
                .into_iter()
                .filter_map(Result::err)
                .map(|e| e.kind)
                .collect(),
            other => panic!("frame {frame}: expected an error, got {other:?}"),
        };
        assert_eq!(errors.len(), 1, "frame {frame}: one failed item");
        assert!(
            matches!(errors[0], ErrorKind::Numerical | ErrorKind::Unsupported),
            "frame {frame}: {:?}",
            errors[0]
        );
    }

    let g = generators::chain(&[1.0, 2.0]);
    expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.net.inflight, 0, "every admitted request answered");
    drop(raw);
    daemon.shutdown(client);
}

/// Two wire counts size an allocation before any solve runs: a sampled
/// curve's `points` and a corpus run's `shards`. Both decode as
/// integers up to 2^53, and an allocation that size aborts the whole
/// process, so each is capped where it is consumed: the lone worker
/// answers both frames under their own ids, and the plain solve after
/// them is answered with nothing left in flight.
#[test]
fn oversized_counts_are_answered_not_fatal() {
    let daemon = Spawned::new("oversized-counts", &["--workers", "1"]);
    let mut client = daemon.client();
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    // A dead daemon never answers: fail instead of hanging.
    raw.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    let frames = [
        (
            r#"{"v":1,"id":201,"type":"energy_curve","graph":{"weights":[1,2],"edges":[[0,1]]},"model":{"kind":"continuous"},"points":9007199254740992,"lo":1.05,"hi":3}"#,
            ErrorKind::Unsupported,
        ),
        (
            r#"{"v":4,"id":202,"type":"corpus","shards":9007199254740992,"jobs":[{"name":"a.inst","graph":{"weights":[1,2],"edges":[[0,1]]},"model":{"kind":"continuous"},"deadline":4}]}"#,
            ErrorKind::BadRequest,
        ),
    ];
    for (i, (frame, kind)) in frames.into_iter().enumerate() {
        let resp = raw_exchange(&mut raw, frame);
        assert_eq!(resp.id, 201 + i as u64, "answered under the frame's own id");
        assert_eq!(expect_error(resp.response).kind, kind, "frame {frame}");
    }

    let g = generators::chain(&[1.0, 2.0]);
    expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.net.inflight, 0, "every admitted request answered");
    drop(raw);
    daemon.shutdown(client);
}

/// A frame that fails to decode is answered under its own `id`, both
/// inline (small frames) and on the worker path (frames past the
/// inline limit), so a pipelined client can match the error.
#[test]
fn decode_errors_echo_the_request_id() {
    let daemon = Spawned::new("echo-id", &["--workers", "2"]);
    let client = daemon.client();
    let mut raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();

    let small = r#"{"v":1,"id":42,"type":"nope"}"#;
    let resp = raw_exchange(&mut raw, small);
    assert_eq!(resp.id, 42);
    assert_eq!(expect_error(resp.response).kind, ErrorKind::BadRequest);

    let large = format!(
        r#"{{"v":1,"id":43,"type":"nope","pad":"{}"}}"#,
        "x".repeat(600)
    );
    assert!(large.len() > 512, "must take the worker path");
    let resp = raw_exchange(&mut raw, &large);
    assert_eq!(resp.id, 43);
    assert_eq!(expect_error(resp.response).kind, ErrorKind::BadRequest);

    drop(raw);
    daemon.shutdown(client);
}

/// The in-process TCP path: bind on an ephemeral port, solve, stop.
#[test]
fn tcp_endpoint_works_in_process() {
    let daemon = Daemon::bind(DaemonConfig {
        tcp: Some("127.0.0.1:0".into()),
        workers: 1,
        ..DaemonConfig::default()
    })
    .unwrap();
    let endpoint = daemon.endpoint();
    assert!(matches!(endpoint, Endpoint::Tcp(_)));
    let handle = std::thread::spawn(move || daemon.run());

    let mut client = Client::connect_with_retry(&endpoint, Duration::from_secs(5)).unwrap();
    let g = generators::chain(&[1.0, 2.0]);
    let r = expect_solve(client.roundtrip(solve_req(&g)).unwrap().response);
    assert!(r.energy > 0.0);
    match client.roundtrip(Request::Shutdown).unwrap().response {
        Response::Shutdown => {}
        other => panic!("unexpected: {other:?}"),
    }
    drop(client);
    handle.join().unwrap().unwrap();
}

/// Exact branch-and-bound through the daemon: a lone request on a
/// 4-worker pool borrows the idle slots and runs the parallel
/// partition sweep (`discrete-bnb-par`), and every worker's
/// branch-and-bound counters are flushed before the response frame —
/// so a `stats` issued right after a solve's answer already accounts
/// for that solve, exactly once.
#[test]
fn parallel_bnb_borrows_spare_workers_and_flushes_counters() {
    let daemon = Spawned::new("parbnb", &["--workers", "4"]);
    let mut client = daemon.client();

    let g = {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        generators::random_sp(12, 0.55, 1.0, 4.0, &mut rng).0
    };
    let modes = models::DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
    let cp = taskgraph::analysis::critical_path_weight(&g);
    let req = Request::Solve {
        graph: g.clone(),
        model: EnergyModel::Discrete(modes),
        deadline: 1.15 * cp / 2.0,
    };

    // Request 1: the solve. One client means the other three workers
    // are idle, so the serving worker boosts to threads = 4 and the
    // provenance tag records the parallel path.
    let r = expect_solve(client.roundtrip(req.clone()).unwrap().response);
    assert_eq!(r.algorithm, "discrete-bnb-par", "spare slots not borrowed");

    // Request 2: stats. The solve's response preceded this request,
    // so its node total must already be in the ledger.
    let s1 = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    let nodes1: u64 = s1.workers.iter().map(|w| w.bnb_nodes).sum();
    assert!(nodes1 > 0, "bnb nodes not flushed before the response");

    // Requests 3 and 4: a second identical solve must add its own
    // node count once — the ledger grows, it never double-drains.
    let _ = expect_solve(client.roundtrip(req).unwrap().response);
    let s2 = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    let nodes2: u64 = s2.workers.iter().map(|w| w.bnb_nodes).sum();
    assert_eq!(nodes2, 2 * nodes1, "deterministic sweep: same count again");
    // Only the two solves reach the pool: `stats` is answered inline
    // by the poll loop and must never consume a worker slot.
    assert_eq!(
        s2.workers.iter().map(|w| w.requests).sum::<u64>(),
        2,
        "each pool request counted exactly once, stats served inline"
    );

    daemon.shutdown(client);
}

/// Satellite: a connection held open and idle across `shutdown` must
/// not stall the exit. The old thread-per-connection daemon parked a
/// blocking reader on the idle socket until the peer closed; the poll
/// loop owns every socket and closes them all at drain.
#[test]
fn shutdown_closes_idle_connections_within_a_bound() {
    let mut daemon = Spawned::new("drain", &["--workers", "2"]);
    // Connects and never sends a byte.
    let idle = daemon.client();
    let mut driver = daemon.client();
    expect_solve(
        driver
            .roundtrip(solve_req(&big_graph(77)))
            .unwrap()
            .response,
    );
    match driver.roundtrip(Request::Shutdown).unwrap().response {
        Response::Shutdown => {}
        other => panic!("unexpected shutdown response: {other:?}"),
    }
    drop(driver);
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    let status = loop {
        if let Some(status) = daemon.child.try_wait().expect("try_wait") {
            break status;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "daemon did not exit while an idle connection was held open"
        );
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(status.success(), "daemon must exit cleanly: {status:?}");
    assert!(!daemon.socket.exists(), "socket removed at drain start");
    drop(idle);
}

/// Satellite: `stats` is answered inline by the poll loop, never
/// consuming a worker slot — so it returns while the lone worker is
/// deep in a long batch, and the net gauges prove the overlap.
#[test]
fn stats_answers_inline_while_the_lone_worker_is_busy() {
    let daemon = Spawned::new("inline-stats", &["--workers", "1"]);
    let mut busy = daemon.client();
    let mut prober = daemon.client();

    // Every graph is unique, so each entry pays preparation + solve:
    // the single worker is busy for a while.
    let jobs: Vec<(TaskGraph, f64)> = (0..200)
        .map(|i| {
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            let mut rng = StdRng::seed_from_u64(1000 + i);
            let g = generators::random_sp(50, 0.55, 1.0, 5.0, &mut rng).0;
            let d = 1.5 * taskgraph::analysis::critical_path_weight(&g);
            (g, d)
        })
        .collect();
    let batch = Request::Batch {
        model: EnergyModel::continuous_unbounded(),
        jobs,
    };

    // Send without collecting the response, then probe from a second
    // connection while the batch occupies the worker.
    let mut pipe = busy.pipeline(2);
    pipe.send(batch).unwrap();
    let stats = expect_stats(prober.roundtrip(Request::Stats).unwrap().response);
    assert!(
        stats.net.inflight >= 1,
        "stats answered after the batch finished — not inline: {:?}",
        stats.net
    );
    assert_eq!(stats.net.connections, 2, "both connections registered");

    let responses = pipe.drain().unwrap();
    assert_eq!(responses.len(), 1);
    match &responses[0].response {
        Response::Batch(items) => assert_eq!(items.len(), 200),
        other => panic!("expected a batch response, got {other:?}"),
    }
    drop(busy);
    daemon.shutdown(prober);
}

/// The v4 `corpus` request end to end: the daemon's cache-backed
/// sharded loop produces byte-identical manifests to the local
/// runner, and a zero `timeout_ms` budget comes back as the
/// structured `timeout` error (counted in the net stats).
#[test]
fn corpus_over_the_wire_matches_local_and_timeouts_are_structured() {
    use models::PowerLaw;
    use reclaim_service::corpus::{run_corpus, CorpusJob};

    let daemon = Spawned::new("corpus-v4", &["--workers", "2"]);
    let mut client = daemon.client();

    let jobs: Vec<CorpusJob> = (0..6)
        .map(|i| CorpusJob {
            name: format!("inst_{i}.inst"),
            graph: generators::chain(&[1.0 + i as f64, 2.0, 0.5]),
            model: EnergyModel::continuous_unbounded(),
            deadline: 8.0,
        })
        .collect();
    let local = run_corpus(jobs.clone(), 3, PowerLaw::CUBIC).unwrap();

    let reply = client
        .roundtrip(Request::Corpus {
            shards: 3,
            jobs: jobs.clone(),
        })
        .unwrap();
    assert_eq!(reply.version, 4, "corpus needs protocol v4");
    let remote = match reply.response {
        Response::Corpus(shards) => shards,
        other => panic!("expected corpus shards, got {other:?}"),
    };
    assert_eq!(remote.len(), 3);
    for (r, l) in remote.iter().zip(local.iter()) {
        assert_eq!(
            r.manifest_json(),
            l.manifest_json(),
            "daemon corpus must reproduce the local manifest byte-for-byte"
        );
    }

    // A queue-wait budget of zero always expires before the worker
    // picks the job up: structured timeout, solve skipped.
    client.set_timeout_ms(Some(0));
    match client.roundtrip(solve_req(&big_graph(5))).unwrap().response {
        Response::Error(e) => assert_eq!(e.kind, ErrorKind::Timeout),
        other => panic!("expected a timeout error, got {other:?}"),
    }
    client.set_timeout_ms(None);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(stats.net.timeouts, 1, "the timeout is counted");
    daemon.shutdown(client);
}

/// A sampled Discrete curve on a daemon with a spare slot runs its
/// points on the engine's scoped fan-out threads. The nodes those
/// threads expand must still reach the serving worker's `stats` row:
/// exactly as many as an in-process one-thread sweep expands.
#[test]
fn sampled_curve_counts_its_fan_out_nodes() {
    use taskgraph::profiling;
    let g = generators::diamond([1.0, 2.0, 3.0, 4.0]);
    let model = EnergyModel::Discrete(models::DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap());
    let before = profiling::counts();
    let local = reclaim_core::Engine::new(models::PowerLaw::CUBIC)
        .threads(1)
        .energy_curve(&taskgraph::PreparedGraph::new(&g), &model, 6, 1.1, 3.0)
        .unwrap();
    let nodes = (profiling::counts() - before).bnb_nodes;
    assert_eq!(nodes, 130);

    // Two workers and one client: the serving worker borrows the idle
    // slot and sweeps the points on two threads.
    let daemon = Spawned::new("curve-nodes", &["--workers", "2"]);
    let mut client = daemon.client();
    let curve = Request::EnergyCurve {
        graph: g,
        model,
        points: 6,
        lo: 1.1,
        hi: 3.0,
        exact: false,
    };
    match client.roundtrip(curve).unwrap().response {
        Response::Curve(points) => assert_eq!(points.len(), local.len()),
        other => panic!("expected a sampled curve, got {other:?}"),
    }
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(
        stats.workers.iter().map(|w| w.bnb_nodes).sum::<u64>(),
        nodes
    );
    daemon.shutdown(client);
}

/// A peer that sends without reading backs up into its own socket
/// buffer, not the daemon's memory: past a fixed cap of unflushed
/// answers the daemon stops reading that connection, keeps serving
/// the others, and answers every frame once the peer drains.
#[test]
fn unread_answers_stop_reading_instead_of_queueing() {
    use reclaim_service::proto::{read_frame, write_frame, ResponseEnvelope};
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;
    use std::time::Instant;
    const FRAMES: usize = 100_000;

    let daemon = Spawned::new("unread", &["--workers", "1"]);
    let mut client = daemon.client();
    let raw = std::os::unix::net::UnixStream::connect(&daemon.socket).unwrap();
    let sent = Arc::new(AtomicUsize::new(0));
    let writer = {
        let mut w = raw.try_clone().unwrap();
        let sent = Arc::clone(&sent);
        std::thread::spawn(move || {
            for id in 0..FRAMES {
                write_frame(&mut w, &format!(r#"{{"v":1,"id":{id},"type":"stats"}}"#)).unwrap();
                sent.store(id + 1, Ordering::Relaxed);
            }
        })
    };
    // The writer must stall (no progress for two seconds) long before
    // it has sent every frame.
    let deadline = Instant::now() + Duration::from_secs(120);
    let (mut last, mut still) = (0, 0);
    while still < 40 {
        std::thread::sleep(Duration::from_millis(50));
        assert!(
            !writer.is_finished(),
            "the daemon read all {FRAMES} frames while none of its answers was read"
        );
        assert!(
            Instant::now() < deadline,
            "the writer neither finished nor stalled"
        );
        let now = sent.load(Ordering::Relaxed);
        still = if now == last { still + 1 } else { 0 };
        last = now;
    }
    assert!(
        last < FRAMES / 2,
        "the writer sent {last} of {FRAMES} frames before it blocked"
    );

    // Meanwhile another connection is served.
    expect_solve(
        client
            .roundtrip(solve_req(&generators::chain(&[1.0, 2.0])))
            .unwrap()
            .response,
    );

    // Draining: exactly one answer per frame, each under its id.
    let mut reader = std::io::BufReader::new(raw);
    for id in 0..FRAMES as u64 {
        let payload = read_frame(&mut reader)
            .unwrap()
            .expect("an answer per frame");
        let resp = ResponseEnvelope::decode(&payload).unwrap();
        assert_eq!(resp.id, id, "answers in frame order");
        expect_stats(resp.response);
    }
    writer.join().unwrap();
    daemon.shutdown(client);
    assert!(
        read_frame(&mut reader).unwrap().is_none(),
        "no answer beyond one per frame"
    );
}

/// `as_of` through an ancestor that exists only in the lineage log: a
/// store holds the root's record and a two-hop lineage. Rewinding the
/// leaf by one hop replays the middle version once; its exact curve is
/// computed, then served from the entry's curve slot, and its solve
/// equals an in-process solve of the rebuilt middle version.
#[test]
fn as_of_replays_a_lineage_only_ancestor_with_its_curve_slot() {
    use models::PowerLaw;
    use reclaim_core::engine::content_key;
    use reclaim_core::Engine;
    use reclaim_service::proto::CurveExactReport;
    use reclaim_service::Store;
    use std::sync::Arc;
    use taskgraph::edit::{apply_edits, GraphEdit};
    use taskgraph::PreparedInstance;

    let dir = std::env::temp_dir().join(format!("reclaim-asof-lineage-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let model = EnergyModel::continuous_unbounded();
    let g0 = generators::diamond([1.0, 2.0, 3.0, 1.5]);
    let e1 = [GraphEdit::SetWeight {
        task: 1,
        weight: 4.0,
    }];
    let e2 = [GraphEdit::SetWeight {
        task: 2,
        weight: 2.5,
    }];
    let (g1, _) = apply_edits(&g0, &e1).unwrap();
    let (g2, _) = apply_edits(&g1, &e2).unwrap();
    let [k0, k1, k2] = [&g0, &g1, &g2].map(|g| content_key(g, &model));
    {
        let store = Store::open(&dir, false).unwrap();
        let root = PreparedInstance::new(Arc::new(g0));
        root.warm();
        store.save(k0, &model, &root, None).unwrap();
        store.record_patch(k0, &e1, k1).unwrap();
        store.record_patch(k1, &e2, k2).unwrap();
    }

    let daemon = Spawned::new("asof-lineage", &["--store", dir.to_str().unwrap()]);
    let mut client = daemon.client();
    client.set_as_of(Some(1));
    let curve_req = Request::EnergyCurve {
        graph: g2.clone(),
        model: model.clone(),
        points: 8,
        lo: 1.05,
        hi: 3.0,
        exact: true,
    };
    let mut exact_curve = || -> CurveExactReport {
        match client.roundtrip(curve_req.clone()).unwrap().response {
            Response::CurveExact(c) => c,
            other => panic!("expected an exact curve, got {other:?}"),
        }
    };
    let first = exact_curve();
    assert!(!first.cached_curve, "the replayed version walks its curve");
    let again = exact_curve();
    assert!(
        again.cached_curve,
        "the repeat is served from the curve slot"
    );
    assert_eq!(again.segments, first.segments);

    let deadline = 1.5 * taskgraph::analysis::critical_path_weight(&g1);
    let solve = Request::Solve {
        graph: g2,
        model: model.clone(),
        deadline,
    };
    let solved = expect_solve(client.roundtrip(solve).unwrap().response);
    let middle = PreparedInstance::new(Arc::new(g1));
    let want = Engine::new(PowerLaw::CUBIC)
        .solve(&middle.view(), &model, deadline)
        .unwrap();
    assert_eq!(solved.energy.to_bits(), want.energy.to_bits());
    assert!(solved.cached, "historical versions report cached");

    client.set_as_of(None);
    let stats = expect_stats(client.roundtrip(Request::Stats).unwrap().response);
    assert_eq!(
        stats.store.replays, 1,
        "the middle version is replayed once"
    );
    daemon.shutdown(client);
    let _ = std::fs::remove_dir_all(&dir);
}
