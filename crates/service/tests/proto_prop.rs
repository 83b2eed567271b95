//! Property tests for the wire protocol: encode→decode identity over
//! randomized envelopes of every request and response variant,
//! clean errors for every single-field mutation of an encoding,
//! truncated-frame rejection at every cut point, and unknown-version
//! rejection for every version outside the supported range.

use models::{DiscreteModes, EnergyModel, IncrementalModes};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::{CurveEnergy, CurveSegment};
use reclaim_service::corpus::{CorpusEntry, CorpusJob, ShardOutcome};
use reclaim_service::json::{self, Json};
use reclaim_service::proto::{
    read_frame, write_frame, CacheStatsReport, CurveExactReport, ErrorBody, ErrorKind, FrameError,
    LineageHop, LineageReport, NetStatsReport, PatchReport, Request, RequestEnvelope, Response,
    ResponseEnvelope, SolveReport, StatsReport, StoreStatsReport, WorkerStatsReport,
    MIN_PROTOCOL_VERSION, PROTOCOL_VERSION,
};
use taskgraph::edit::GraphEdit;
use taskgraph::profiling::CounterTable;
use taskgraph::{generators, TaskGraph};

fn arb_model() -> impl Strategy<Value = EnergyModel> {
    prop_oneof![
        Just(EnergyModel::continuous_unbounded()),
        (0.5f64..4.0).prop_map(EnergyModel::continuous),
        prop::collection::vec(0.25f64..4.0, 1..6)
            .prop_map(|v| EnergyModel::Discrete(DiscreteModes::new(&v).unwrap())),
        prop::collection::vec(0.25f64..4.0, 1..6)
            .prop_map(|v| EnergyModel::VddHopping(DiscreteModes::new(&v).unwrap())),
        (0.25f64..1.0, 1.5f64..4.0, 0.05f64..0.75).prop_map(|(lo, hi, d)| {
            EnergyModel::Incremental(IncrementalModes::new(lo, hi, d).unwrap())
        }),
    ]
}

fn graph_for(seed: u64, n: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    generators::random_dag(n.max(1), 0.3, 0.5, 5.0, &mut rng)
}

fn arb_request() -> impl Strategy<Value = Request> {
    prop_oneof![
        (any::<u64>(), 1usize..12, arb_model(), 0.5f64..50.0).prop_map(|(s, n, model, d)| {
            Request::Solve {
                graph: graph_for(s, n),
                model,
                deadline: d,
            }
        }),
        (
            any::<u64>(),
            1usize..10,
            arb_model(),
            prop::collection::vec(0.5f64..50.0, 1..6)
        )
            .prop_map(|(s, n, model, deadlines)| Request::SolveDeadlines {
                graph: graph_for(s, n),
                model,
                deadlines,
            }),
        (any::<u64>(), 1usize..10, arb_model(), 2usize..9).prop_map(|(s, n, model, points)| {
            Request::EnergyCurve {
                graph: graph_for(s, n),
                model,
                points,
                lo: 1.05,
                hi: 4.0,
                exact: points % 2 == 0,
            }
        }),
        (
            any::<u64>(),
            arb_model(),
            prop::collection::vec(0.5f64..20.0, 1..4)
        )
            .prop_map(|(s, model, ds)| Request::Batch {
                model,
                jobs: ds
                    .into_iter()
                    .enumerate()
                    .map(|(i, d)| (graph_for(s.wrapping_add(i as u64), 3 + i), d))
                    .collect(),
            }),
        (
            any::<u64>(),
            prop::collection::vec(arb_edit(), 0..5),
            0.5f64..50.0
        )
            .prop_map(|(base_lo, edits, deadline)| Request::Patch {
                // Spread bits into both halves so the hex round trip
                // is exercised across the full 128-bit width.
                base: (base_lo as u128) | ((base_lo.rotate_left(17) as u128) << 64),
                edits,
                deadline,
            }),
        (
            1usize..4,
            prop::collection::vec((any::<u64>(), 1usize..6, arb_model(), 0.5f64..50.0), 0..4)
        )
            .prop_map(|(shards, jobs)| Request::Corpus {
                shards,
                jobs: jobs
                    .into_iter()
                    .enumerate()
                    .map(|(i, (s, n, model, deadline))| CorpusJob {
                        name: format!("job_{i}.inst"),
                        graph: graph_for(s, n),
                        model,
                        deadline,
                    })
                    .collect(),
            }),
        any::<u64>().prop_map(|k| Request::Lineage { key: wide_key(k) }),
        Just(Request::Stats),
        Just(Request::Shutdown),
    ]
}

/// A content key with bits in both 64-bit halves, so the hex round
/// trip is exercised across the full 128-bit width.
fn wide_key(k: u64) -> u128 {
    (k as u128) | ((k.rotate_left(29) as u128) << 64)
}

fn arb_opt_u64() -> impl Strategy<Value = Option<u64>> {
    prop_oneof![Just(None), (0u64..5000).prop_map(Some)]
}

/// A request envelope as the bundled client builds it, with a drawn
/// v4 `timeout_ms` and v5 `as_of`.
fn arb_envelope() -> impl Strategy<Value = RequestEnvelope> {
    (any::<u32>(), arb_request(), arb_opt_u64(), arb_opt_u64()).prop_map(
        |(id, request, timeout_ms, as_of)| {
            RequestEnvelope::new(id as u64, request)
                .with_timeout_ms(timeout_ms)
                .with_as_of(as_of)
        },
    )
}

fn arb_edit() -> impl Strategy<Value = GraphEdit> {
    prop_oneof![
        (0usize..20, 0.1f64..50.0).prop_map(|(task, weight)| GraphEdit::SetWeight { task, weight }),
        (0usize..20, 0usize..20).prop_map(|(from, to)| GraphEdit::InsertEdge { from, to }),
        (0usize..20, 0usize..20).prop_map(|(from, to)| GraphEdit::RemoveEdge { from, to }),
        (
            0.1f64..50.0,
            prop::collection::vec(0usize..20, 0..3),
            prop::collection::vec(0usize..20, 0..3)
        )
            .prop_map(|(weight, preds, succs)| GraphEdit::AddTask {
                weight,
                preds,
                succs
            }),
        (0usize..20).prop_map(|task| GraphEdit::RemoveTask { task }),
    ]
}

fn arb_opt_f64() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![Just(None), (0.1f64..100.0).prop_map(Some),]
}

fn arb_error() -> impl Strategy<Value = ErrorBody> {
    (
        prop_oneof![
            Just(ErrorKind::Infeasible),
            Just(ErrorKind::Numerical),
            Just(ErrorKind::Unsupported),
            Just(ErrorKind::BudgetExhausted),
            Just(ErrorKind::BadRequest),
            Just(ErrorKind::UnknownBase),
            Just(ErrorKind::Protocol),
            Just(ErrorKind::Timeout),
        ],
        "[ -~]{0,40}",
        arb_opt_f64(),
        arb_opt_f64(),
    )
        .prop_map(|(kind, message, deadline, min_makespan)| ErrorBody {
            kind,
            message,
            deadline,
            min_makespan,
        })
}

fn arb_report() -> impl Strategy<Value = SolveReport> {
    (
        (0.001f64..1e6, "[a-z-]{1,16}", 0.001f64..1e4),
        (any::<u32>(), any::<u32>(), any::<bool>(), 0u64..32),
    )
        .prop_map(
            |((energy, algorithm, makespan), (solve_ns, prep_ns, cached, worker))| SolveReport {
                energy,
                algorithm,
                makespan,
                solve_ns: solve_ns as u64,
                prep_ns: prep_ns as u64,
                cached,
                worker,
            },
        )
}

fn arb_item() -> impl Strategy<Value = Result<SolveReport, ErrorBody>> {
    prop_oneof![
        arb_report().prop_map(Ok),
        arb_error().prop_map(Err::<SolveReport, _>),
    ]
}

fn arb_response() -> impl Strategy<Value = Response> {
    prop_oneof![
        arb_report().prop_map(Response::Solve),
        prop::collection::vec(arb_item(), 0..5).prop_map(Response::Deadlines),
        prop::collection::vec((0.5f64..50.0, 0.001f64..1e6), 0..6).prop_map(Response::Curve),
        (arb_report(), any::<u64>(), any::<bool>()).prop_map(|(report, key, warm_lp)| {
            Response::Patch(PatchReport {
                report,
                key: wide_key(key),
                warm_lp,
            })
        }),
        (
            prop::collection::vec(arb_segment(), 0..4),
            any::<bool>(),
            any::<bool>()
        )
            .prop_map(|(segments, exact, cached_curve)| {
                Response::CurveExact(CurveExactReport {
                    segments,
                    exact,
                    cached_curve,
                })
            }),
        prop::collection::vec(arb_item(), 0..5).prop_map(Response::Batch),
        (
            1usize..4,
            prop::collection::vec(arb_entry(), 0..4),
            any::<u32>()
        )
            .prop_map(|(shards, entries, elapsed)| Response::Corpus(
                (0..shards)
                    .map(|shard| ShardOutcome {
                        shard,
                        shards,
                        entries: entries.clone(),
                        elapsed_ns: elapsed as u128 * shard as u128,
                    })
                    .collect()
            )),
        (
            any::<u64>(),
            prop::collection::vec(
                (any::<u64>(), prop::collection::vec(arb_edit(), 0..4)),
                0..4
            )
        )
            .prop_map(|(key, hops)| Response::Lineage(LineageReport {
                key: wide_key(key),
                depth: hops.len() as u64,
                hops: hops
                    .into_iter()
                    .map(|(k, edits)| LineageHop {
                        parent: wide_key(k),
                        edits,
                        child: wide_key(k ^ 1),
                    })
                    .collect(),
            })),
        (any::<u64>(), 0usize..4).prop_map(|(seed, workers)| Response::Stats(stats(seed, workers))),
        Just(Response::Shutdown),
        arb_error().prop_map(Response::Error),
    ]
}

fn arb_segment() -> impl Strategy<Value = CurveSegment> {
    (
        0.5f64..10.0,
        0.1f64..10.0,
        0.1f64..100.0,
        -5.0f64..0.0,
        any::<bool>(),
    )
        .prop_map(|(lo, width, x, y, affine)| CurveSegment {
            deadline_lo: lo,
            deadline_hi: lo + width,
            energy: if affine {
                CurveEnergy::Affine { a: x, b: y }
            } else {
                CurveEnergy::Power { c: x, p: -y }
            },
        })
}

fn arb_entry() -> impl Strategy<Value = CorpusEntry> {
    (
        any::<u64>(),
        1usize..50,
        0.5f64..50.0,
        (0.001f64..1e6, "[a-z-]{1,16}"),
        arb_error(),
        any::<bool>(),
    )
        .prop_map(
            |(key, tasks, deadline, (energy, algorithm), error, ok)| CorpusEntry {
                name: format!("{tasks}.inst"),
                key: wide_key(key),
                tasks,
                deadline,
                model: "Continuous".into(),
                result: if ok {
                    Ok((energy, algorithm))
                } else {
                    Err(error)
                },
            },
        )
}

/// A stats report with every counter drawn from `seed`: each table is
/// built by name, so a new counter is round-tripped without an edit
/// here.
fn stats(seed: u64, workers: usize) -> StatsReport {
    let mut x = seed;
    let mut next = |_: &str| {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        x >> 24 // 40 bits: exact on the wire
    };
    StatsReport {
        cache: CacheStatsReport::from_fn(&mut next),
        workers: (0..workers)
            .map(|_| WorkerStatsReport::from_fn(&mut next))
            .collect(),
        net: NetStatsReport::from_fn(&mut next),
        store: StoreStatsReport::from_fn(&mut next),
    }
}

fn arb_response_envelope() -> impl Strategy<Value = ResponseEnvelope> {
    (
        any::<u32>(),
        MIN_PROTOCOL_VERSION..PROTOCOL_VERSION + 1,
        arb_response(),
    )
        .prop_map(|(id, version, response)| ResponseEnvelope {
            version,
            id: id as u64,
            response,
        })
}

/// Every single mutation of `v`: one object key deleted, or one value
/// (object member or array element, at any depth) replaced with
/// `"x"`, `null` or `-1.5`.
fn mutations(v: &Json) -> Vec<Json> {
    let subs = [Json::str("x"), Json::Null, Json::num(-1.5)];
    let mut out = Vec::new();
    match v {
        Json::Obj(pairs) => {
            for i in 0..pairs.len() {
                let mut deleted = pairs.clone();
                deleted.remove(i);
                out.push(Json::Obj(deleted));
                for m in subs.iter().cloned().chain(mutations(&pairs[i].1)) {
                    let mut replaced = pairs.clone();
                    replaced[i].1 = m;
                    out.push(Json::Obj(replaced));
                }
            }
        }
        Json::Arr(items) => {
            for i in 0..items.len() {
                for m in subs.iter().cloned().chain(mutations(&items[i])) {
                    let mut replaced = items.clone();
                    replaced[i] = m;
                    out.push(Json::Arr(replaced));
                }
            }
        }
        _ => {}
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// encode → decode is the identity on request envelopes (at the
    /// version the bundled client would pick for the request).
    #[test]
    fn request_roundtrip(env in arb_envelope()) {
        let back = RequestEnvelope::decode(&env.encode()).expect("own encoding must decode");
        prop_assert_eq!(back, env);
    }

    /// encode → decode is the identity on response envelopes, at every
    /// version the build speaks.
    #[test]
    fn response_roundtrip(env in arb_response_envelope()) {
        let back = ResponseEnvelope::decode(&env.encode()).expect("own encoding must decode");
        prop_assert_eq!(back, env);
    }

    /// A frame cut anywhere strictly inside is rejected as truncated,
    /// and a cut at the boundary reads back the full payload.
    #[test]
    fn truncated_frames_rejected(request in arb_request(), cut_seed in any::<u64>()) {
        let payload = RequestEnvelope::new(1, request).encode();
        let mut buf = Vec::new();
        write_frame(&mut buf, &payload).unwrap();
        let cut = 1 + (cut_seed as usize) % (buf.len() - 1);
        let mut r = &buf[..cut];
        prop_assert!(matches!(read_frame(&mut r), Err(FrameError::Truncated(_))));
        let mut full = &buf[..];
        prop_assert_eq!(read_frame(&mut full).unwrap().as_deref(), Some(payload.as_str()));
    }

    /// Every version outside the supported range is rejected as a
    /// protocol error, and everything inside it is accepted.
    #[test]
    fn unknown_versions_rejected(v in any::<u32>()) {
        let payload = format!("{{\"v\":{v},\"id\":1,\"type\":\"stats\"}}");
        let supported = (MIN_PROTOCOL_VERSION..=PROTOCOL_VERSION).contains(&(v as u64));
        match RequestEnvelope::decode(&payload) {
            Ok(env) => {
                prop_assert!(supported);
                prop_assert_eq!(env.version, v as u64);
            }
            Err(e) => {
                prop_assert!(!supported);
                prop_assert_eq!(e.kind, ErrorKind::Protocol);
            }
        }
    }

    /// Arbitrary non-JSON payloads decode to protocol errors, never
    /// panics.
    #[test]
    fn garbage_payloads_never_panic(junk in "[ -~]{0,120}") {
        if let Err(e) = RequestEnvelope::decode(&junk) {
            prop_assert!(matches!(e.kind, ErrorKind::Protocol | ErrorKind::BadRequest));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every single mutation of an encoded envelope decodes to a value
    /// or to a `protocol`/`bad_request` error: the field-level decode
    /// paths never panic and never report another kind.
    #[test]
    fn mutated_payloads_decode_or_error_cleanly(
        request in arb_envelope(),
        response in arb_response_envelope(),
    ) {
        let clean = |e: ErrorBody| matches!(e.kind, ErrorKind::Protocol | ErrorKind::BadRequest);
        for m in mutations(&json::parse(&request.encode()).unwrap()) {
            if let Err(e) = RequestEnvelope::decode(&m.encode()) {
                prop_assert!(clean(e), "{}", m.encode());
            }
        }
        for m in mutations(&json::parse(&response.encode()).unwrap()) {
            if let Err(e) = ResponseEnvelope::decode(&m.encode()) {
                prop_assert!(clean(e), "{}", m.encode());
            }
        }
    }
}
