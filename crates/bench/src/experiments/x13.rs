//! X13 (extension) — structure-local re-analysis: cone-bounded cache
//! repair makes topology-changing patches nearly as cheap as weight
//! edits.
//!
//! **The instance.** One 1,000-task series–parallel graph: a series
//! chain of 250 triple-branch blocks (junction → {a, b, c} →
//! junction). Every structural patch converts one block's `a ∥ b`
//! pair into the chain `a → b` — three edge edits, one SP-preserving
//! topology change whose touched cone is a handful of tasks in a
//! graph a thousand tasks wide (branch `c` dominates the block's
//! span, so completion times outside the block are untouched).
//!
//! **Arms.**
//!
//! * *structural patch*: a chain of such single-edit patches through
//!   [`PreparedInstance::apply`] — the topological order is carried,
//!   the SP tree is spliced around the touched block, completion
//!   times relax inside the cone, and the transitive reduction is
//!   repaired edge-locally;
//! * *cold re-prepare*: the same edit chain, but every step rebuilds
//!   `PreparedInstance::new(...)` + `warm()` from scratch — the cost
//!   `apply` existed to avoid;
//! * *weight patch*: a chain of `SetWeight` patches of the same
//!   length — the cost floor "near weight-edit cost" is measured
//!   against.
//!
//! **Gates.** The structural-patch arm must (a) run ≥ 5× faster than
//! cold re-prepare and within 20× the weight-patch arm (both arms run
//! on the same machine, so the ratio does not depend on the runner),
//! (b) perform **zero** full topological sorts, shape
//! classifications, SP recognitions, and transitive reductions — one
//! successful tree splice per patch, no misses — observable on the
//! profiling counters, and (c) land on the exact instance the cold
//! arm builds: same analyses, bit-identical continuous energy at full
//! scale, bit-identical energies under all four models at a smaller
//! scale (the equality is scale-free). A daemon round finally asserts
//! the splice counters surface per worker in `stats` after a
//! structural patch request.
//!
//! **Scale.** The structural-patch arm also runs on a 4,001-task chain
//! (no cold arm: re-preparing it costs seconds per step); its
//! per-patch time is reported as `apply_us_4k`, not gated.
//!
//! `X13_SMOKE=1` shrinks the instances for quick CI runs; every gate
//! holds at every scale.

use super::{LiveDaemon, Outcome, P};
use reclaim_core::engine::content_key;
use reclaim_core::Engine;
use reclaim_service::daemon::DaemonConfig;
use reclaim_service::proto::{Request, Response};
use report::Table;
use std::sync::Arc;
use taskgraph::edit::{apply_edits, GraphEdit};
use taskgraph::{analysis, profiling, PreparedInstance, TaskGraph};

/// The headline bar: cold re-prepare time ≥ this multiple of patch.
const GATE_RATIO: f64 = 5.0;

/// A structural patch may cost at most this multiple of a weight patch.
const WEIGHT_RATIO_BAR: f64 = 20.0;

/// Full-scale vs `X13_SMOKE=1` dimensions: (blocks, patches, blocks of
/// the scale arm). 250 blocks = 1,001 tasks (`4k + 1`); 1,000 blocks =
/// 4,001 tasks.
fn scale() -> (usize, usize, usize) {
    if std::env::var("X13_SMOKE").is_ok() {
        (25, 8, 100)
    } else {
        (250, 120, 1000)
    }
}

/// A series chain of `k` triple-branch blocks: junction `0`; block
/// `i` (1-based) runs `4(i−1) → {a=4i−3, b=4i−2, c=4i−1} → 4i`.
/// Branch `c` outweighs `a` and `b` combined, so converting `a ∥ b`
/// into the chain `a → b` never moves the block's makespan.
fn block_graph(k: usize) -> TaskGraph {
    let n = 4 * k + 1;
    let mut edges = Vec::with_capacity(6 * k);
    let mut weights = vec![1.0; n];
    for i in 1..=k {
        let (j0, a, b, c, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i);
        edges.extend([(j0, a), (j0, b), (j0, c), (a, j1), (b, j1), (c, j1)]);
        weights[a] = 0.75 + (i % 3) as f64 * 0.125;
        weights[b] = 1.0;
        weights[c] = 2.25; // ≥ w(a) + w(b): the dominant branch
        weights[j1] = 1.0 + (i % 5) as f64 * 0.25;
    }
    TaskGraph::new(weights, &edges).expect("block chain is a DAG")
}

/// The structural patch for block `i`: serialize `a ∥ b` into
/// `a → b` (drop `junction → b` and `a → junction`, insert `a → b`).
/// The block becomes `P(S(a, b), c)` — still series–parallel, with
/// the junctions intact, so the SP tree is repairable by splicing
/// only this block's segment.
fn block_conversion(i: usize) -> Vec<GraphEdit> {
    let (j0, a, b, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i);
    vec![
        GraphEdit::RemoveEdge { from: j0, to: b },
        GraphEdit::RemoveEdge { from: a, to: j1 },
        GraphEdit::InsertEdge { from: a, to: b },
    ]
}

fn four_models() -> Vec<models::EnergyModel> {
    let modes = models::DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
    vec![
        models::EnergyModel::continuous_unbounded(),
        models::EnergyModel::VddHopping(modes.clone()),
        models::EnergyModel::Discrete(modes),
        models::EnergyModel::Incremental(models::IncrementalModes::new(1.0, 2.0, 0.5).unwrap()),
    ]
}

/// Walk the patch chain through `apply` + `warm`, one batch per
/// patch, timing the whole arm and capturing the profiling-counter
/// delta it caused.
fn patch_arm(
    base: &PreparedInstance,
    patches: &[Vec<GraphEdit>],
) -> (PreparedInstance, f64, profiling::Counts) {
    let before = profiling::counts();
    let t0 = std::time::Instant::now();
    let mut cur = base.apply(&patches[0]).expect("valid patch chain");
    cur.warm();
    for batch in &patches[1..] {
        cur = cur.apply(batch).expect("valid patch chain");
        cur.warm();
    }
    let secs = t0.elapsed().as_secs_f64();
    (cur, secs, profiling::counts() - before)
}

/// The same chain, re-prepared from scratch at every step.
fn cold_arm(g0: &TaskGraph, patches: &[Vec<GraphEdit>]) -> (PreparedInstance, f64) {
    let mut g = g0.clone();
    let mut secs = 0.0;
    let mut last = None;
    for batch in patches {
        let (next, _) = apply_edits(&g, batch).expect("valid patch chain");
        g = next;
        let t0 = std::time::Instant::now();
        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        secs += t0.elapsed().as_secs_f64();
        last = Some(inst);
    }
    (last.expect("at least one patch"), secs)
}

/// apply ≡ rebuild on the leaf of a patch chain, under `models`:
/// every energy must agree bit for bit.
fn energies_bit_identical(
    patched: &PreparedInstance,
    fresh: &PreparedInstance,
    models: &[models::EnergyModel],
) -> bool {
    let engine = Engine::new(P);
    let cp = analysis::critical_path_weight(patched.graph());
    models.iter().all(|model| {
        let d = match model.top_speed() {
            Some(s) => 1.5 * cp / s,
            None => cp,
        };
        let a = engine.solve(&patched.view(), model, d).expect("feasible");
        let b = engine.solve(&fresh.view(), model, d).expect("feasible");
        a.energy.to_bits() == b.energy.to_bits() && a.algorithm == b.algorithm
    })
}

/// Drive one solve + one structural patch through an in-process
/// daemon and return the summed per-worker `sp_splice` from `stats`.
fn daemon_splices(k: usize) -> u64 {
    let daemon = LiveDaemon::start(DaemonConfig {
        workers: 2,
        ..DaemonConfig::default()
    });
    let mut client = daemon.client();

    let g = block_graph(k);
    let model = models::EnergyModel::continuous_unbounded();
    let deadline = 1.2 * analysis::critical_path_weight(&g);
    let resp = client
        .roundtrip(Request::Solve {
            graph: g.clone(),
            model: model.clone(),
            deadline,
        })
        .expect("daemon solve");
    assert!(matches!(resp.response, Response::Solve(_)), "{resp:?}");
    let resp = client
        .roundtrip(Request::Patch {
            base: content_key(&g, &model),
            edits: block_conversion(1),
            deadline,
        })
        .expect("daemon patch");
    assert!(matches!(resp.response, Response::Patch(_)), "{resp:?}");

    let splices = daemon.stats().workers.iter().map(|w| w.sp_splice).sum();
    daemon.shutdown();
    splices
}

/// Run the experiment.
pub fn run() -> Outcome {
    let (k, patches, big) = scale();
    let g = block_graph(k);
    let n = g.n();
    // One conversion per distinct block: every patch's cone is that
    // block's handful of tasks, wherever it sits in the chain.
    let edits: Vec<Vec<GraphEdit>> = (1..=patches).map(block_conversion).collect();

    let base = PreparedInstance::new(Arc::new(g.clone()));
    base.warm();

    // Arm 1: structural patches, repaired in place.
    let (patched, patch_secs, delta) = patch_arm(&base, &edits);
    // Arm 2: cold re-prepare at every step.
    let (cold_leaf, cold_secs) = cold_arm(&g, &edits);
    // Arm 3: the weight-edit cost floor, same chain length.
    let weight_edits: Vec<Vec<GraphEdit>> = (0..patches)
        .map(|i| {
            vec![GraphEdit::SetWeight {
                task: (7 * i + 1) % n,
                weight: 1.25 + (i % 5) as f64 * 0.5,
            }]
        })
        .collect();
    let (_, weight_secs, _) = patch_arm(&base, &weight_edits);

    // Scale arm: the same kind of chain on the larger graph, spread
    // over distinct blocks.
    let g_big = block_graph(big);
    let n_big = g_big.n();
    let base_big = PreparedInstance::new(Arc::new(g_big));
    base_big.warm();
    let edits_big: Vec<Vec<GraphEdit>> = (1..=patches)
        .map(|i| block_conversion(i * big / patches))
        .collect();
    let (_, big_secs, _) = patch_arm(&base_big, &edits_big);
    let apply_us_big = big_secs * 1e6 / patches as f64;

    // Zero full recomputes on the splice path, one splice per patch.
    let zero_recomputes = delta.topo_order == 0
        && delta.classify == 0
        && delta.sp_from_graph == 0
        && delta.transitive_reduction == 0
        && delta.sp_splice == patches as u64
        && delta.sp_splice_miss == 0;

    // apply ≡ rebuild: same graph, same analyses, bit-identical
    // continuous energy at full scale…
    let continuous = &four_models()[..1];
    let equivalent = patched.graph() == cold_leaf.graph()
        && patched.view().topo() == cold_leaf.view().topo()
        && patched.view().shape() == cold_leaf.view().shape()
        && patched.view().reduced().edges() == cold_leaf.view().reduced().edges()
        && energies_bit_identical(&patched, &cold_leaf, continuous);

    // …and bit-identical under all four models at a scale every model
    // solves quickly (the equality is scale-free; 15 blocks = 61
    // tasks).
    let (k4, p4) = (15, 4);
    let g4 = block_graph(k4);
    let base4 = PreparedInstance::new(Arc::new(g4.clone()));
    base4.warm();
    let edits4: Vec<Vec<GraphEdit>> = (1..=p4).map(block_conversion).collect();
    let (patched4, _, _) = patch_arm(&base4, &edits4);
    let (cold4, _) = cold_arm(&g4, &edits4);
    let four_model_identical = energies_bit_identical(&patched4, &cold4, &four_models());

    // Daemon round: the splice counters surface per worker in stats.
    let daemon_sp_splice = daemon_splices(k4);

    let speedup = cold_secs / patch_secs.max(1e-12);
    let structural_vs_weight = patch_secs / weight_secs.max(1e-12);
    let pass = speedup >= GATE_RATIO
        && structural_vs_weight <= WEIGHT_RATIO_BAR
        && zero_recomputes
        && equivalent
        && four_model_identical
        && daemon_sp_splice >= 1;

    let mut table = Table::new(&["arm", "patches", "total(ms)", "per patch(µs)"]);
    let mut row = |name: &str, secs: f64| {
        table.row(&[
            name.into(),
            format!("{patches}"),
            format!("{:.2}", secs * 1e3),
            format!("{:.1}", secs * 1e6 / patches as f64),
        ]);
    };
    row("structural patch (apply)", patch_secs);
    row("cold re-prepare", cold_secs);
    row("weight patch (floor)", weight_secs);
    row(&format!("structural patch, {n_big} tasks"), big_secs);

    Outcome {
        id: "X13",
        claim: "cone-bounded cache repair answers single-block structural \
                patches on a 1,000-task SP graph >= 5x faster than cold \
                re-preparation — zero full topological sorts, SP \
                recognitions, or transitive reductions, one local tree \
                splice per patch — while staying bit-identical to a \
                from-scratch rebuild under all four models",
        size: n,
        metrics: vec![
            ("tasks", n as f64),
            ("patches", patches as f64),
            ("patch_ms", patch_secs * 1e3),
            ("cold_ms", cold_secs * 1e3),
            ("weight_ms", weight_secs * 1e3),
            ("speedup_x", speedup),
            ("structural_vs_weight", structural_vs_weight),
            ("apply_us_4k", apply_us_big),
            ("sp_splice", delta.sp_splice as f64),
            ("sp_splice_miss", delta.sp_splice_miss as f64),
            ("topo_order_recomputes", delta.topo_order as f64),
            ("classify_recomputes", delta.classify as f64),
            ("sp_from_graph_recomputes", delta.sp_from_graph as f64),
            (
                "transitive_reduction_recomputes",
                delta.transitive_reduction as f64,
            ),
            (
                "cone_nodes_per_patch",
                delta.cone_nodes as f64 / patches as f64,
            ),
            ("equivalent", f64::from(u8::from(equivalent))),
            (
                "four_model_identical",
                f64::from(u8::from(four_model_identical)),
            ),
            ("daemon_sp_splice", daemon_sp_splice as f64),
        ],
        table,
        verdict: format!(
            "{}: {patches} block-conversion patches on {n} tasks, {:.1} µs/patch vs \
             {:.1} µs cold ({speedup:.1}×, want ≥ {GATE_RATIO}×), {:.1}× the \
             weight-edit floor (want ≤ {WEIGHT_RATIO_BAR}×), {apply_us_big:.1} µs/patch \
             on {n_big} tasks, {} splices / {} misses / {} full recomputes, \
             {} cone nodes per patch, energies {}, daemon reported {} splices",
            if pass { "PASS" } else { "FAIL" },
            patch_secs * 1e6 / patches as f64,
            cold_secs * 1e6 / patches as f64,
            structural_vs_weight,
            delta.sp_splice,
            delta.sp_splice_miss,
            delta.topo_order + delta.classify + delta.sp_from_graph + delta.transitive_reduction,
            delta.cone_nodes / patches as u64,
            if equivalent && four_model_identical {
                "bit-identical"
            } else {
                "DRIFTED"
            },
            daemon_sp_splice,
        ),
    }
}
