//! The per-layer suite of the traced run: each layer's public calls,
//! timed from outside on seeded inputs, every call inside a span.
//!
//! Where a layer's input is the workload's own traffic (the proto
//! codec, content keys, preparation, the store) it takes the
//! workload's frames; the solver layers take the fixed-structure
//! cold-probe and `patch-large` instances, so their numbers line up
//! across workloads.

use crate::gen::{self, Class, ColdGen, POWER};
use crate::stats::{median, slope};
use crate::trace::Tracer;
use convex::linalg::Matrix;
use models::EnergyModel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim_core::continuous::{self, SweepWarm};
use reclaim_core::engine::{content_key, patched_key, profiling as eprof, Engine, PreparedGraph};
use reclaim_core::{discrete, incremental, vdd};
use reclaim_service::proto::{Request, RequestEnvelope, ResponseEnvelope};
use reclaim_service::Store;
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use taskgraph::edit::{apply_edits, GraphEdit};
use taskgraph::{profiling as tprof, PreparedInstance, Shape, TaskGraph};

/// One per-layer metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Calls timed per input where one call is too short to time alone.
const REPS: usize = 3;

struct Suite<'a> {
    tracer: &'a Tracer,
    parent: usize,
    out: Vec<Metric>,
}

impl Suite<'_> {
    /// Time `f` inside a span; returns (result, seconds).
    fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        self.tracer.within(name, Some(self.parent), 0, || {
            let t0 = Instant::now();
            let out = black_box(f());
            (out, t0.elapsed().as_secs_f64())
        })
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.out.push((name.to_string(), value, unit));
    }
}

/// Walk a chain's steps, returning the graph before each step.
fn chain_graphs(chain: &gen::Chain) -> Vec<TaskGraph> {
    let mut g = chain.graph.clone();
    chain
        .steps
        .iter()
        .map(|(_, _, edits, _, _)| {
            let before = g.clone();
            g = apply_edits(&g, edits).expect("valid chain").0;
            before
        })
        .collect()
}

/// Run the suite. `frames` are request frames of the workload,
/// `replies` reply payloads its traced phase received, `scratch` a
/// fresh directory for the store layer.
pub fn run(
    seed: u64,
    frames: &[String],
    replies: &[String],
    scratch: &Path,
    tracer: &Tracer,
) -> std::io::Result<Vec<Metric>> {
    let root = tracer.open("layers", None, 0);
    let mut s = Suite {
        tracer,
        parent: root,
        out: Vec::new(),
    };
    let us = |secs: &[f64]| median(secs) * 1e6;

    // --- proto + json: the workload's own frames ---------------------
    s.parent = tracer.open("layer.proto", Some(root), 0);
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    let mut requests = Vec::new();
    for f in frames {
        for _ in 0..REPS {
            let (env, t) = s.time("RequestEnvelope::decode", || RequestEnvelope::decode(f));
            dec.push(t);
            let env = env.expect("own frame decodes");
            enc.push(s.time("RequestEnvelope::encode", || env.encode()).1);
            requests.push(env.request);
        }
    }
    s.put("proto.req_encode_us", us(&enc), "us");
    s.put("proto.req_decode_us", us(&dec), "us");
    let (mut enc, mut dec) = (Vec::new(), Vec::new());
    for p in replies {
        for _ in 0..REPS {
            let (env, t) = s.time("ResponseEnvelope::decode", || ResponseEnvelope::decode(p));
            dec.push(t);
            let env = env.expect("replies decoded once already");
            enc.push(s.time("ResponseEnvelope::encode", || env.encode()).1);
        }
    }
    s.put("proto.resp_encode_us", us(&enc), "us");
    s.put("proto.resp_decode_us", us(&dec), "us");
    let mean_len =
        |xs: &[String]| xs.iter().map(String::len).sum::<usize>() as f64 / xs.len().max(1) as f64;
    s.put("proto.req_bytes", mean_len(frames), "B");
    s.put("proto.resp_bytes", mean_len(replies), "B");
    tracer.close(s.parent);

    // The workload's distinct instances.
    let mut instances: Vec<(TaskGraph, EnergyModel, u128)> = Vec::new();
    for r in requests {
        if let Request::Solve { graph, model, .. }
        | Request::SolveDeadlines { graph, model, .. }
        | Request::EnergyCurve { graph, model, .. } = r
        {
            let key = content_key(&graph, &model);
            if instances.len() < 32 && instances.iter().all(|i| i.2 != key) {
                instances.push((graph, model, key));
            }
        }
    }

    // --- keys ----------------------------------------------------------
    s.parent = tracer.open("layer.key", Some(root), 0);
    let mut t = Vec::new();
    for (g, m, _) in &instances {
        for _ in 0..REPS {
            t.push(s.time("content_key", || content_key(g, m)).1);
        }
    }
    s.put("key.content_us", us(&t), "us");
    let (c1, c4, _) = gen::patch_chains(seed);
    let g1 = chain_graphs(&c1);
    let mut t = Vec::new();
    for ((_, base, edits, _, _), g) in c1.steps.iter().zip(&g1) {
        for _ in 0..REPS {
            t.push(s.time("patched_key", || patched_key(*base, g, edits)).1);
        }
    }
    s.put("key.patched_us", us(&t), "us");
    tracer.close(s.parent);

    // --- taskgraph: prepare the workload's graphs, patch the blocks ---
    s.parent = tracer.open("layer.taskgraph", Some(root), 0);
    let mut t = Vec::new();
    let mut prepared = Vec::new();
    for (g, m, key) in &instances {
        let (inst, secs) = s.time("PreparedInstance::new+warm", || {
            let inst = PreparedInstance::new(Arc::new(g.clone()));
            inst.warm();
            inst
        });
        t.push(secs);
        prepared.push((inst, m.clone(), *key));
    }
    s.put("taskgraph.prepare_us", us(&t), "us");
    let apply_us = |chain: &gen::Chain, s: &Suite| {
        let base = PreparedInstance::new(Arc::new(chain.graph.clone()));
        base.warm();
        let before = tprof::counts();
        let (mut weight, mut structural) = (Vec::new(), Vec::new());
        let mut cur = base;
        for (class, _, edits, _, _) in &chain.steps {
            let weight_only = matches!(class, Class::Weight1k | Class::Weight4k);
            let (next, secs) = s.time("PreparedInstance::apply", || {
                let next = cur.apply(edits).expect("valid chain");
                if !weight_only {
                    // What the daemon pays after a structural patch.
                    next.warm();
                }
                next
            });
            if weight_only {
                &mut weight
            } else {
                &mut structural
            }
            .push(secs);
            cur = next;
        }
        let passes = tprof::counts() - before;
        (us(&weight), us(&structural), passes)
    };
    let (w1, s1, p1) = apply_us(&c1, &s);
    let (w4, s4, p4) = apply_us(&c4, &s);
    s.put("taskgraph.apply_weight_us.1k", w1, "us");
    s.put("taskgraph.apply_weight_us.4k", w4, "us");
    s.put("taskgraph.apply_struct_us.1k", s1, "us");
    s.put("taskgraph.apply_struct_us.4k", s4, "us");
    s.put("taskgraph.apply_scale", w4 / w1, "ratio");
    let full =
        |p: tprof::Counts| p.topo_order + p.classify + p.sp_from_graph + p.transitive_reduction;
    s.put(
        "taskgraph.full_passes",
        (full(p1) + full(p4)) as f64,
        "count",
    );
    tracer.close(s.parent);

    // --- store: the workload's instances in a scratch store -----------
    s.parent = tracer.open("layer.store", Some(root), 0);
    let store = Store::open(scratch, false)?;
    let (mut save, mut load, mut record) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (inst, m, key)) in prepared.iter().enumerate() {
        let (res, secs) = s.time("Store::save", || store.save(*key, m, inst, None));
        res?;
        save.push(secs);
        let (got, secs) = s.time("Store::load", || store.load(*key));
        got.ok_or_else(|| std::io::Error::other("stored instance did not load"))?;
        load.push(secs);
        let edits = [GraphEdit::SetWeight {
            task: 0,
            weight: 1.0 + i as f64,
        }];
        let child = key ^ (i as u128 + 1);
        let (res, secs) = s.time("Store::record_patch", || {
            store.record_patch(*key, &edits, child)
        });
        res?;
        record.push(secs);
    }
    let st = store.stats();
    s.put("store.load_us", us(&load), "us");
    s.put("store.save_us", us(&save), "us");
    s.put("store.record_patch_us", us(&record), "us");
    s.put(
        "store.bytes_per_op",
        st.bytes as f64 / st.entries.max(1) as f64,
        "B",
    );
    tracer.close(s.parent);

    // --- engine + models: dispatch, validation, per-class solves ------
    s.parent = tracer.open("layer.engine", Some(root), 0);
    let engine = Engine::new(POWER).threads(1);
    let cont = EnergyModel::continuous_unbounded();
    let (mut full_t, mut direct_t, mut validate_t) = (Vec::new(), Vec::new(), Vec::new());
    // Closed-form shapes only: the dispatch overhead would vanish next
    // to a barrier solve on a general DAG.
    for (inst, _, _) in prepared
        .iter()
        .filter(|(i, ..)| i.view().shape() != Shape::General)
    {
        let view = inst.view();
        let d = 1.5 * view.critical_path_weight();
        for _ in 0..REPS {
            let (sol, secs) = s.time("Engine::solve", || engine.solve(&view, &cont, d));
            full_t.push(secs);
            let sol = sol.expect("feasible");
            direct_t.push(
                s.time("continuous::solve_dispatched", || {
                    continuous::solve_dispatched(&view, d, None, POWER, None)
                })
                .1,
            );
            validate_t.push(
                s.time("Schedule::validate", || {
                    sol.schedule.validate(inst.graph(), &cont, d)
                })
                .1,
            );
        }
    }
    s.put("engine.solve_us.continuous", us(&full_t), "us");
    s.put("engine.dispatch_us", us(&full_t) - us(&direct_t), "us");
    s.put("models.validate_us", us(&validate_t), "us");
    let cold = ColdGen::new(seed);
    let pass: Vec<_> = cold
        .instances(0)
        .into_iter()
        .chain(cold.instances(1))
        .collect();
    let prep: Vec<PreparedInstance> = pass
        .iter()
        .map(|(_, g, ..)| {
            let inst = PreparedInstance::new(Arc::new(g.clone()));
            inst.warm();
            inst
        })
        .collect();
    // The first instance of each class (pass 0), by the order ColdGen
    // lists them: Vdd 120, Vdd 200, layered 60, layered 90, Discrete
    // 16 (SP), Discrete 20 (layered), Discrete 120, Incremental 120.
    let at = |j: usize| (&pass[j], &prep[j]);
    let ((_, _, vm, vd, _), vi) = at(0);
    let ((_, _, gm, gd, _), gi) = at(2);
    let ((_, _, dm, dd, _), di) = at(5);
    let ((_, _, im, id, _), ii) = at(7);
    for (name, m, d, inst) in [
        ("engine.solve_us.vdd", vm, *vd, vi),
        ("engine.solve_us.general", gm, *gd, gi),
        ("engine.solve_us.discrete", dm, *dd, di),
        ("engine.solve_us.incremental", im, *id, ii),
    ] {
        let (sol, secs) = s.time("Engine::solve", || engine.solve(&inst.view(), m, d));
        sol.expect("feasible");
        s.put(name, secs * 1e6, "us");
    }
    tracer.close(s.parent);

    // --- lp via core::vdd ----------------------------------------------
    s.parent = tracer.open("layer.lp", Some(root), 0);
    let EnergyModel::VddHopping(modes) = gen::vdd_model() else {
        unreachable!("Vdd model")
    };
    let mut cold_ms = [0.0; 2];
    for (slot, reps, j) in [(0usize, 3usize, 0usize), (1, 2, 1)] {
        let ((_, g, _, d, _), inst) = at(j);
        let mut t = Vec::new();
        for _ in 0..reps {
            let (res, secs) = s.time("vdd::solve_lp_prepared", || {
                vdd::solve_lp_prepared(&inst.view(), *d, &modes, POWER)
            });
            res.expect("feasible");
            t.push(secs);
        }
        cold_ms[slot] = median(&t) * 1e3;
        debug_assert_eq!(g.n(), [120, 200][slot]);
    }
    s.put("lp.vdd_cold_ms.120", cold_ms[0], "ms");
    s.put("lp.vdd_cold_ms.200", cold_ms[1], "ms");
    s.put(
        "lp.vdd_exponent",
        slope(120.0, cold_ms[0], 200.0, cold_ms[1]),
        "exponent",
    );
    let ((_, g200, _, d200, _), i200) = at(1);
    let (_, mut handle) = vdd::solve_lp_warm(&i200.view(), *d200, &modes, POWER).expect("feasible");
    let mut t = Vec::new();
    let mut er = StdRng::seed_from_u64(seed ^ 0x3a);
    for _ in 0..8 {
        let edits = [GraphEdit::SetWeight {
            task: er.gen_range(0..g200.n()),
            weight: er.gen_range(1.0..5.0),
        }];
        let edited = apply_edits(g200, &edits).expect("valid").0;
        let prep = PreparedGraph::new(&edited);
        prep.critical_path_weight();
        let (res, secs) = s.time("VddWarm::resolve", || handle.resolve(&prep, *d200));
        res.expect("warm resolve");
        t.push(secs);
    }
    s.put("lp.vdd_warm_us", us(&t), "us");
    let (curve, _) = s.time("Engine::energy_curve_exact", || {
        engine.energy_curve_exact(&vi.view(), vm, 1.1, 1.6)
    });
    s.put(
        "lp.curve_breakpoints",
        curve.expect("feasible").stats.lp_breakpoints as f64,
        "count",
    );
    tracer.close(s.parent);

    // --- convex via core::continuous ------------------------------------
    s.parent = tracer.open("layer.convex", Some(root), 0);
    let mut barrier = [(0.0, 0u64); 2];
    for (slot, j) in [(0usize, 2usize), (1, 3)] {
        let ((_, _, m, d, _), inst) = at(j);
        let mut warm = SweepWarm::new();
        let (res, secs) = s.time("continuous::solve_general_warm", || {
            continuous::solve_general_warm(
                &inst.view(),
                *d,
                None,
                m.top_speed(),
                POWER,
                None,
                &mut warm,
            )
        });
        res.expect("feasible");
        barrier[slot] = (secs * 1e3, warm.stats.newton_steps);
    }
    let steps = barrier[0].1 + barrier[1].1;
    s.put("convex.barrier_ms.60", barrier[0].0, "ms");
    s.put("convex.barrier_ms.90", barrier[1].0, "ms");
    // The slope of the time per Newton step: step counts vary with the
    // instance, the cost of one step (dense 2n×2n factorization) should
    // not.
    let per_step = |(ms, steps): (f64, u64)| ms / steps.max(1) as f64;
    s.put(
        "convex.barrier_exponent",
        slope(60.0, per_step(barrier[0]), 90.0, per_step(barrier[1])),
        "exponent",
    );
    s.put("convex.newton_steps", steps as f64, "count");
    s.put(
        "convex.ms_per_newton",
        (barrier[0].0 + barrier[1].0) / steps.max(1) as f64,
        "ms",
    );
    // The barrier's Newton system at the 90-task instance: 2n unknowns.
    let n = 180;
    let mut a = Matrix::zeros(n);
    let mut mr = StdRng::seed_from_u64(seed ^ 0x5bd);
    for i in 0..n {
        for j in 0..=i {
            let v = mr.gen_range(-1.0..1.0);
            a.set(i, j, v);
            a.set(j, i, v);
        }
        a.add(i, i, n as f64);
    }
    let b: Vec<f64> = (0..n).map(|i| i as f64).collect();
    let mut t = Vec::new();
    for _ in 0..20 {
        let m = a.clone();
        let (x, secs) = s.time("Matrix::solve_spd", || m.solve_spd(&b));
        x.expect("diagonally dominant, so SPD");
        t.push(secs);
    }
    s.put(
        "convex.spd_gflops",
        (n as f64).powi(3) / 3.0 / median(&t) / 1e9,
        "GFLOP/s",
    );
    tracer.close(s.parent);

    // --- branch-and-bound, round-up, approximation ----------------------
    s.parent = tracer.open("layer.bnb", Some(root), 0);
    let before = eprof::counts();
    let mut bnb_s = 0.0;
    for j in [4usize, 5, 12, 13] {
        let ((_, _, m, d, _), inst) = (&pass[j], &prep[j]);
        let (res, secs) = s.time("Engine::solve", || engine.solve(&inst.view(), m, *d));
        res.expect("feasible");
        bnb_s += secs;
    }
    let nodes = (eprof::counts() - before).bnb_nodes;
    s.put("bnb.nodes", nodes as f64, "count");
    s.put("bnb.ns_per_node", bnb_s * 1e9 / nodes.max(1) as f64, "ns");
    let ((_, _, EnergyModel::Discrete(dmodes), dd, _), di) = at(6) else {
        unreachable!("Discrete class")
    };
    let (res, secs) = s.time("discrete::round_up_prepared", || {
        discrete::round_up_prepared(&di.view(), *dd, dmodes, POWER, Some(10_000))
    });
    res.expect("feasible");
    s.put("discrete.round_up_ms", secs * 1e3, "ms");
    let ((_, _, EnergyModel::Incremental(imodes), id, _), ii) = at(7) else {
        unreachable!("Incremental class")
    };
    let (res, secs) = s.time("incremental::approx_prepared", || {
        incremental::approx_prepared(&ii.view(), *id, imodes, POWER, 10_000)
    });
    res.expect("feasible");
    s.put("incremental.approx_ms", secs * 1e3, "ms");
    tracer.close(s.parent);

    tracer.close(root);
    Ok(s.out)
}
