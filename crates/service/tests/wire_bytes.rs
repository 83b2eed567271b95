//! Pinned wire bytes. The round-trip suites cannot catch a change that
//! alters encode and decode together, so these tests compare encoder
//! output against fixed text:
//!
//! * every request payload docs/PROTOCOL.md shows after a `→ <len>`
//!   line is rebuilt through the public API and must appear in the doc
//!   byte for byte, length header included;
//! * one golden string per [`Response`] variant, built from fixed
//!   values;
//! * every key the `stats` encoder emits must be documented in the
//!   doc's `stats` block.

use models::{DiscreteModes, EnergyModel};
use reclaim_core::engine::content_key;
use reclaim_core::{CurveEnergy, CurveSegment};
use reclaim_service::corpus::{CorpusEntry, CorpusJob, ShardOutcome};
use reclaim_service::json::{self, Json};
use reclaim_service::proto::{
    CacheStatsReport, CurveExactReport, ErrorBody, ErrorKind, LineageHop, LineageReport,
    NetStatsReport, PatchReport, Request, RequestEnvelope, Response, ResponseEnvelope, SolveReport,
    StatsReport, StoreStatsReport, WorkerStatsReport,
};
use taskgraph::edit::GraphEdit;
use taskgraph::TaskGraph;

const PROTOCOL_MD: &str = include_str!("../../../docs/PROTOCOL.md");

fn graph(weights: &[f64], edges: &[(usize, usize)]) -> TaskGraph {
    TaskGraph::new(weights.to_vec(), edges).unwrap()
}

fn solve(weights: &[f64]) -> Request {
    Request::Solve {
        graph: graph(weights, &[(0, 1)]),
        model: EnergyModel::continuous_unbounded(),
        deadline: 3.0,
    }
}

/// Assert the doc shows `payload` as a request frame: `→ <len>`, then
/// the payload indented by two spaces on its own line.
fn assert_documented(what: &str, payload: &str, len: usize) {
    assert_eq!(payload.len(), len, "{what}: payload length\n{payload}");
    let frame = format!("→ {len}\n  {payload}\n");
    assert!(
        PROTOCOL_MD.contains(&frame),
        "{what}: docs/PROTOCOL.md does not show this frame:\n{frame}"
    );
}

#[test]
fn documented_request_payloads_are_byte_exact() {
    let model = EnergyModel::continuous_unbounded();
    let base = content_key(&graph(&[2.0, 4.0], &[(0, 1)]), &model);
    let patched = content_key(&graph(&[2.0, 5.0], &[(0, 1)]), &model);
    let corpus_job = |name: &str, weights: &[f64]| CorpusJob {
        name: name.into(),
        graph: graph(weights, &[(0, 1)]),
        model: EnergyModel::continuous_unbounded(),
        deadline: 4.0,
    };
    let cases: Vec<(&str, RequestEnvelope, usize)> = vec![
        ("solve", RequestEnvelope::new(1, solve(&[2.0, 4.0])), 114),
        (
            "patch",
            RequestEnvelope::new(
                2,
                Request::Patch {
                    base,
                    edits: vec![GraphEdit::SetWeight {
                        task: 1,
                        weight: 5.0,
                    }],
                    deadline: 3.0,
                },
            ),
            136,
        ),
        (
            "exact curve",
            RequestEnvelope::new(
                3,
                Request::EnergyCurve {
                    graph: graph(&[1.0, 2.0, 3.0, 1.5], &[(0, 1), (0, 2), (1, 3), (2, 3)]),
                    model: EnergyModel::VddHopping(DiscreteModes::new(&[0.8, 1.6, 2.4]).unwrap()),
                    points: 8,
                    lo: 1.05,
                    hi: 3.0,
                    exact: true,
                },
            ),
            189,
        ),
        ("stats", RequestEnvelope::new(2, Request::Stats), 29),
        (
            "timeout",
            RequestEnvelope::new(3, solve(&[2.0, 4.0])).with_timeout_ms(Some(0)),
            129,
        ),
        (
            "corpus",
            RequestEnvelope::new(
                4,
                Request::Corpus {
                    shards: 2,
                    jobs: vec![
                        corpus_job("a.inst", &[1.0, 2.0]),
                        corpus_job("b.inst", &[2.0, 1.0]),
                    ],
                },
            ),
            256,
        ),
        (
            "as_of",
            RequestEnvelope::new(3, solve(&[2.0, 5.0])).with_as_of(Some(1)),
            124,
        ),
        (
            "lineage",
            RequestEnvelope::new(4, Request::Lineage { key: patched }),
            74,
        ),
    ];
    for (what, env, len) in cases {
        let payload = env.encode();
        assert_documented(what, &payload, len);
        assert_eq!(RequestEnvelope::decode(&payload).unwrap(), env, "{what}");
    }
}

fn report() -> SolveReport {
    SolveReport {
        energy: 24.0,
        algorithm: "continuous".into(),
        makespan: 3.0,
        solve_ns: 1500,
        prep_ns: 0,
        cached: true,
        worker: 1,
    }
}

fn infeasible() -> ErrorBody {
    ErrorBody {
        kind: ErrorKind::Infeasible,
        message: "too tight".into(),
        deadline: Some(1.0),
        min_makespan: Some(1.5),
    }
}

fn stats() -> StatsReport {
    StatsReport {
        cache: CacheStatsReport {
            entries: 2,
            bytes: 4096,
            hits: 10,
            misses: 3,
            evictions: 1,
            patch_hits: 6,
            patch_misses: 2,
            rekeys: 5,
        },
        workers: vec![WorkerStatsReport {
            requests: 5,
            solves: 9,
            solve_ns: 777,
            warm_lost: 2,
            bnb_nodes: 123_456,
            bnb_steals: 7,
            sp_splice: 11,
            sp_splice_miss: 1,
            cone_nodes: 42,
            topo_order: 13,
            classify: 3,
            sp_from_graph: 2,
            transitive_reduction: 1,
            sp_splice_nodes: 26,
        }],
        net: NetStatsReport {
            connections: 4,
            queue_depth: 1,
            inflight: 3,
            rejected: 2,
            timeouts: 1,
        },
        store: StoreStatsReport {
            entries: 7,
            bytes: 8192,
            recovered: 6,
            corrupt_skipped: 1,
            replays: 4,
            write_failures: 3,
        },
    }
}

const KEY_A: u128 = 0x36bd_0407_ab77_3179_37d0_2054_d5b4_ec61;
const KEY_B: u128 = 0x36bd_0430_7377_3179_37d0_2054_d5ba_fd85;

#[test]
fn response_variants_encode_to_golden_bytes() {
    let numerical = ErrorBody::new(ErrorKind::Numerical, "barrier stalled");
    let cases: Vec<(u64, Response, &str)> = vec![
        (
            1,
            Response::Solve(report()),
            r#"{"v":1,"id":1,"ok":true,"type":"solve","result":{"energy":24,"algorithm":"continuous","makespan":3,"solve_ns":1500,"prep_ns":0,"cached":true,"worker":1}}"#,
        ),
        (
            1,
            Response::Deadlines(vec![Ok(report()), Err(infeasible())]),
            r#"{"v":1,"id":2,"ok":true,"type":"solve_deadlines","result":[{"ok":true,"result":{"energy":24,"algorithm":"continuous","makespan":3,"solve_ns":1500,"prep_ns":0,"cached":true,"worker":1}},{"ok":false,"error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":1.5}}]}"#,
        ),
        (
            1,
            Response::Curve(vec![(3.0, 24.0), (4.5, 10.666666666666666)]),
            r#"{"v":1,"id":3,"ok":true,"type":"energy_curve","result":[{"deadline":3,"energy":24},{"deadline":4.5,"energy":10.666666666666666}]}"#,
        ),
        (
            3,
            Response::CurveExact(CurveExactReport {
                segments: vec![
                    CurveSegment {
                        deadline_lo: 2.40625,
                        deadline_hi: 2.9166666666666665,
                        energy: CurveEnergy::Affine {
                            a: 79.04,
                            b: -18.432,
                        },
                    },
                    CurveSegment {
                        deadline_lo: 3.0,
                        deadline_hi: 9.0,
                        energy: CurveEnergy::Power { c: 216.0, p: 2.0 },
                    },
                ],
                exact: true,
                cached_curve: false,
            }),
            r#"{"v":3,"id":4,"ok":true,"type":"energy_curve","result":{"exact":true,"cached_curve":false,"segments":[{"lo":2.40625,"hi":2.9166666666666665,"form":"affine","a":79.04,"b":-18.432},{"lo":3,"hi":9,"form":"power","c":216,"p":2}]}}"#,
        ),
        (
            1,
            Response::Batch(vec![Err(numerical.clone()), Ok(report())]),
            r#"{"v":1,"id":5,"ok":true,"type":"batch","result":[{"ok":false,"error":{"kind":"numerical","message":"barrier stalled"}},{"ok":true,"result":{"energy":24,"algorithm":"continuous","makespan":3,"solve_ns":1500,"prep_ns":0,"cached":true,"worker":1}}]}"#,
        ),
        (
            2,
            Response::Patch(PatchReport {
                report: report(),
                key: KEY_B,
                warm_lp: false,
            }),
            r#"{"v":2,"id":6,"ok":true,"type":"patch","result":{"energy":24,"algorithm":"continuous","makespan":3,"solve_ns":1500,"prep_ns":0,"cached":true,"worker":1,"key":"0x36bd04307377317937d02054d5bafd85","warm_lp":false}}"#,
        ),
        (
            4,
            Response::Corpus(vec![
                ShardOutcome {
                    shard: 0,
                    shards: 2,
                    entries: vec![
                        CorpusEntry {
                            name: "a.inst".into(),
                            key: KEY_A,
                            tasks: 2,
                            deadline: 4.0,
                            model: "Continuous".into(),
                            result: Ok((1.6875, "continuous".into())),
                        },
                        CorpusEntry {
                            name: "b.inst".into(),
                            key: KEY_B,
                            tasks: 2,
                            deadline: 0.5,
                            model: "Continuous".into(),
                            result: Err(infeasible()),
                        },
                    ],
                    elapsed_ns: 1_234_567,
                },
                ShardOutcome {
                    shard: 1,
                    shards: 2,
                    entries: vec![],
                    elapsed_ns: 0,
                },
            ]),
            r#"{"v":4,"id":7,"ok":true,"type":"corpus","result":[{"shard":0,"shards":2,"elapsed_ns":1234567,"entries":[{"file":"a.inst","key":"0x36bd0407ab77317937d02054d5b4ec61","tasks":2,"deadline":4,"model":"Continuous","energy":1.6875,"algorithm":"continuous"},{"file":"b.inst","key":"0x36bd04307377317937d02054d5bafd85","tasks":2,"deadline":0.5,"model":"Continuous","error":{"kind":"infeasible","message":"too tight","deadline":1,"min_makespan":1.5}}]},{"shard":1,"shards":2,"elapsed_ns":0,"entries":[]}]}"#,
        ),
        (
            5,
            Response::Lineage(LineageReport {
                key: KEY_B,
                depth: 1,
                hops: vec![LineageHop {
                    parent: KEY_A,
                    edits: vec![
                        GraphEdit::SetWeight {
                            task: 1,
                            weight: 5.0,
                        },
                        GraphEdit::InsertEdge { from: 0, to: 2 },
                        GraphEdit::RemoveEdge { from: 0, to: 1 },
                        GraphEdit::AddTask {
                            weight: 1.5,
                            preds: vec![0],
                            succs: vec![],
                        },
                        GraphEdit::RemoveTask { task: 2 },
                    ],
                    child: KEY_B,
                }],
            }),
            r#"{"v":5,"id":8,"ok":true,"type":"lineage","result":{"key":"0x36bd04307377317937d02054d5bafd85","depth":1,"hops":[{"parent":"0x36bd0407ab77317937d02054d5b4ec61","edits":[{"op":"set_weight","task":1,"weight":5},{"op":"insert_edge","from":0,"to":2},{"op":"remove_edge","from":0,"to":1},{"op":"add_task","weight":1.5,"preds":[0],"succs":[]},{"op":"remove_task","task":2}],"child":"0x36bd04307377317937d02054d5bafd85"}]}}"#,
        ),
        (
            5,
            Response::Stats(stats()),
            r#"{"v":5,"id":9,"ok":true,"type":"stats","result":{"cache":{"entries":2,"bytes":4096,"hits":10,"misses":3,"evictions":1,"patch_hits":6,"patch_misses":2,"rekeys":5},"workers":[{"requests":5,"solves":9,"solve_ns":777,"warm_lost":2,"bnb_nodes":123456,"bnb_steals":7,"sp_splice":11,"sp_splice_miss":1,"cone_nodes":42,"topo_order":13,"classify":3,"sp_from_graph":2,"transitive_reduction":1,"sp_splice_nodes":26}],"net":{"connections":4,"queue_depth":1,"inflight":3,"rejected":2,"timeouts":1},"store":{"entries":7,"bytes":8192,"recovered":6,"corrupt_skipped":1,"replays":4,"write_failures":3}}}"#,
        ),
        (
            1,
            Response::Shutdown,
            r#"{"v":1,"id":10,"ok":true,"type":"shutdown","result":{"stopping":true}}"#,
        ),
        (
            1,
            Response::Error(ErrorBody::new(
                ErrorKind::BadRequest,
                "unknown request type \"warp\"",
            )),
            r#"{"v":1,"id":11,"ok":false,"error":{"kind":"bad_request","message":"unknown request type \"warp\""}}"#,
        ),
    ];
    for (i, (version, response, golden)) in cases.into_iter().enumerate() {
        let env = ResponseEnvelope {
            version,
            id: i as u64 + 1,
            response,
        };
        assert_eq!(env.encode(), golden);
        assert_eq!(ResponseEnvelope::decode(golden).unwrap(), env);
    }
}

/// Every object key under `v`, depth first.
fn keys(v: &Json, out: &mut Vec<String>) {
    match v {
        Json::Obj(pairs) => {
            for (k, child) in pairs {
                out.push(k.clone());
                keys(child, out);
            }
        }
        Json::Arr(items) => items.iter().for_each(|c| keys(c, out)),
        _ => {}
    }
}

#[test]
fn every_stats_key_is_documented() {
    let payload = ResponseEnvelope {
        version: 5,
        id: 1,
        response: Response::Stats(stats()),
    }
    .encode();
    let result = json::parse(&payload)
        .unwrap()
        .get("result")
        .unwrap()
        .clone();
    let mut emitted = Vec::new();
    keys(&result, &mut emitted);
    let section = PROTOCOL_MD
        .split("## `stats` counters")
        .nth(1)
        .expect("PROTOCOL.md has a stats section");
    let block = section
        .split("```text\n")
        .nth(1)
        .and_then(|b| b.split("```").next())
        .expect("the stats section opens with a text block");
    for key in emitted {
        assert!(
            block.contains(&format!("\"{key}\"")),
            "stats key {key:?} is emitted but missing from PROTOCOL.md's stats block"
        );
    }
}
