//! The edit layer's correctness contract, as properties:
//!
//! 1. **apply ≡ rebuild** — `PreparedInstance::apply(edits)` produces
//!    the same graph, the same content key (incrementally derived
//!    where possible), and the same solve result as rebuilding the
//!    edited instance from scratch, across all four energy models.
//! 2. **selective invalidation is real** — a weight-only batch
//!    followed by a solve recomputes *zero* structural analyses
//!    (topological order, classification, SP recognition, transitive
//!    reduction), observable through `taskgraph::profiling`.
//! 3. **structural edits repair, not rebuild** — a chain of random
//!    edge insertions/removals never re-derives the topological order
//!    or re-runs the transitive reduction, and re-recognizes SP
//!    structure at most once per splice miss — while every analysis
//!    and every model's solve stays bit-identical to a from-scratch
//!    rebuild.
//! 4. **weight-only chains stay exact** — every step of a chain of
//!    weight-only batches (which share the base's topology) equals a
//!    rebuild: same graph, same edge sequence, same reduced edges,
//!    and bit-identical energies under all four models.
//! 5. **the cached analyses are a function of the graph** — on graphs
//!    whose ids run against their edges, chains whose insertions break
//!    the carried topological order still end on the rebuild's graph,
//!    SP tree, reduction, critical path and Continuous energy, bit for
//!    bit (the carried order itself may differ).

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim::core::engine::{content_key, patched_key};
use reclaim::core::Engine;
use reclaim::models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw};
use reclaim::taskgraph::edit::{apply_edits, GraphEdit};
use reclaim::taskgraph::{analysis, generators, profiling, PreparedInstance, TaskGraph};
use std::sync::Arc;

const P: PowerLaw = PowerLaw::CUBIC;

fn all_models() -> Vec<EnergyModel> {
    let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0]).unwrap();
    vec![
        EnergyModel::continuous_unbounded(),
        EnergyModel::VddHopping(modes.clone()),
        EnergyModel::Discrete(modes),
        EnergyModel::Incremental(IncrementalModes::new(0.5, 2.0, 0.5).unwrap()),
    ]
}

/// A random batch of `k` edits, each valid for the graph as left by
/// its predecessors (insertions follow the current topological order,
/// so they never introduce cycles; task additions attach forward).
fn random_edits(g: &TaskGraph, k: usize, rng: &mut StdRng) -> Vec<GraphEdit> {
    let mut cur = g.clone();
    let mut edits = Vec::with_capacity(k);
    for _ in 0..k {
        let order = analysis::topo_order_quiet(&cur);
        let n = cur.n();
        let candidate = match rng.gen_range(0..10) {
            // Weight edits dominate the mix — they are the hot case.
            0..=4 => GraphEdit::SetWeight {
                task: rng.gen_range(0..n),
                weight: rng.gen_range(0.25..4.0),
            },
            5 | 6 if n >= 2 => {
                let i = rng.gen_range(0..n - 1);
                let j = rng.gen_range(i + 1..n);
                GraphEdit::InsertEdge {
                    from: order[i].index(),
                    to: order[j].index(),
                }
            }
            7 if cur.m() > 0 => {
                let (u, v) = cur.edges()[rng.gen_range(0..cur.m())];
                GraphEdit::RemoveEdge {
                    from: u.index(),
                    to: v.index(),
                }
            }
            8 => {
                let cut = rng.gen_range(0..n + 1);
                let pick = |rng: &mut StdRng, lo: usize, hi: usize, cap: usize| {
                    let mut out: Vec<usize> = Vec::new();
                    for _ in 0..rng.gen_range(0..cap + 1) {
                        if lo < hi {
                            let p = order[rng.gen_range(lo..hi)].index();
                            if !out.contains(&p) {
                                out.push(p);
                            }
                        }
                    }
                    out
                };
                GraphEdit::AddTask {
                    weight: rng.gen_range(0.25..4.0),
                    preds: pick(rng, 0, cut, 2),
                    succs: pick(rng, cut, n, 2),
                }
            }
            _ if n > 1 => GraphEdit::RemoveTask {
                task: rng.gen_range(0..n),
            },
            _ => continue,
        };
        match apply_edits(&cur, std::slice::from_ref(&candidate)) {
            Ok((next, _)) => {
                cur = next;
                edits.push(candidate);
            }
            Err(e) => panic!("constructed edit must be valid: {candidate:?}: {e}"),
        }
    }
    edits
}

/// A random chain of `k` *structural* (edge-only) edits, each valid
/// for the graph as left by its predecessors — insertions follow the
/// current topological order, so they never introduce cycles.
fn random_structural_edits(g: &TaskGraph, k: usize, rng: &mut StdRng) -> Vec<GraphEdit> {
    let mut cur = g.clone();
    let mut edits = Vec::with_capacity(k);
    for _ in 0..k {
        let order = analysis::topo_order_quiet(&cur);
        let n = cur.n();
        let candidate = if cur.m() > 0 && rng.gen_bool(0.5) {
            let (u, v) = cur.edges()[rng.gen_range(0..cur.m())];
            GraphEdit::RemoveEdge {
                from: u.index(),
                to: v.index(),
            }
        } else {
            let i = rng.gen_range(0..n - 1);
            let j = rng.gen_range(i + 1..n);
            GraphEdit::InsertEdge {
                from: order[i].index(),
                to: order[j].index(),
            }
        };
        match apply_edits(&cur, std::slice::from_ref(&candidate)) {
            Ok((next, _)) => {
                cur = next;
                edits.push(candidate);
            }
            Err(e) => panic!("constructed edit must be valid: {candidate:?}: {e}"),
        }
    }
    edits
}

/// `g` with its task ids shuffled: the same graph up to renaming, but
/// with edges that run from larger to smaller ids, so a fresh
/// topological order (smallest id first) differs from the order a
/// patch chain carries.
fn permuted(g: &TaskGraph, rng: &mut StdRng) -> TaskGraph {
    let n = g.n();
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        perm.swap(i, rng.gen_range(0..i + 1));
    }
    let mut weights = vec![0.0; n];
    for (i, &w) in g.weights().iter().enumerate() {
        weights[perm[i]] = w;
    }
    let edges: Vec<(usize, usize)> = g
        .edges()
        .iter()
        .map(|&(u, v)| (perm[u.index()], perm[v.index()]))
        .collect();
    TaskGraph::new(weights, &edges).unwrap()
}

/// A random chain of `k` edge edits whose insertions join any two
/// tasks that do not close a cycle — many of them point backwards in
/// the topological order the chain carries.
fn random_rewiring(g: &TaskGraph, k: usize, rng: &mut StdRng) -> Vec<GraphEdit> {
    let mut cur = g.clone();
    let mut edits = Vec::with_capacity(k);
    for _ in 0..100 * k {
        if edits.len() == k {
            break;
        }
        let candidate = if cur.m() > 0 && rng.gen_bool(0.4) {
            let (u, v) = cur.edges()[rng.gen_range(0..cur.m())];
            GraphEdit::RemoveEdge {
                from: u.index(),
                to: v.index(),
            }
        } else {
            let (from, to) = (rng.gen_range(0..cur.n()), rng.gen_range(0..cur.n()));
            if from == to {
                continue;
            }
            GraphEdit::InsertEdge { from, to }
        };
        if let Ok((next, _)) = apply_edits(&cur, std::slice::from_ref(&candidate)) {
            cur = next;
            edits.push(candidate);
        }
    }
    edits
}

fn base_graph(seed: u64) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    if seed.is_multiple_of(2) {
        generators::random_sp(10, 0.5, 0.5, 3.0, &mut rng).0
    } else {
        generators::random_dag(9, 0.35, 0.5, 3.0, &mut rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// apply(edits) ≡ rebuild-from-scratch: same graph, same content
    /// key (with the incremental delta agreeing whenever it applies),
    /// same solve result under every model.
    #[test]
    fn apply_equals_rebuild_across_models(seed in any::<u64>(), k in 1usize..6) {
        let g = base_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let edits = random_edits(&g, k, &mut rng);

        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let patched = inst.apply(&edits).expect("edits were validated");
        let (rebuilt, _) = apply_edits(&g, &edits).unwrap();
        prop_assert_eq!(patched.graph(), &rebuilt);

        let engine = Engine::new(P).threads(1);
        for model in all_models() {
            // Same content identity…
            let full = content_key(&rebuilt, &model);
            prop_assert_eq!(content_key(patched.graph(), &model), full);
            // …and the incremental delta agrees whenever it applies
            // (task-set edits legitimately fall back to a full hash).
            if let Some(delta) = patched_key(content_key(&g, &model), &g, &edits) {
                prop_assert_eq!(delta, full);
            }
            // Same solve result as a from-scratch instance.
            let d = match model.top_speed() {
                Some(s) => 1.5 * analysis::critical_path_weight(&rebuilt) / s,
                None => analysis::critical_path_weight(&rebuilt),
            };
            let via_apply = engine.solve(&patched.view(), &model, d).unwrap();
            let fresh = PreparedInstance::new(Arc::new(rebuilt.clone()));
            let via_rebuild = engine.solve(&fresh.view(), &model, d).unwrap();
            prop_assert_eq!(via_apply.algorithm, via_rebuild.algorithm);
            prop_assert!(
                (via_apply.energy - via_rebuild.energy).abs()
                    <= 1e-6 * (1.0 + via_rebuild.energy),
                "model {}: {} vs {}", model.name(), via_apply.energy, via_rebuild.energy
            );
        }
    }

    /// Weight-only batches recompute zero structural analyses:
    ///
    /// * `apply` itself (plus reading the re-evaluated critical path)
    ///   runs no analysis pass at all;
    /// * a full solve of the patched instance runs exactly the passes
    ///   a *repeat* solve of the already-warm base runs — the edit
    ///   adds nothing. (Discrete/Incremental solvers derive some
    ///   per-solve orders internally; that cost is per solve, not per
    ///   edit, and the comparison cancels it out.)
    #[test]
    fn weight_only_edits_recompute_no_structure(seed in any::<u64>(), k in 1usize..5) {
        let g = base_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0x77);
        let edits: Vec<GraphEdit> = (0..k)
            .map(|_| GraphEdit::SetWeight {
                task: rng.gen_range(0..g.n()),
                weight: rng.gen_range(0.25..4.0),
            })
            .collect();
        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let engine = Engine::new(P).threads(1);
        let solve_all = |inst: &PreparedInstance| {
            let cp = inst.view().critical_path_weight();
            for model in all_models() {
                let d = match model.top_speed() {
                    Some(s) => 1.5 * cp / s,
                    None => cp,
                };
                engine.solve(&inst.view(), &model, d).unwrap();
            }
        };

        // Baseline: what a repeat solve of the warm base costs.
        let before = profiling::counts();
        solve_all(&inst);
        let baseline = profiling::counts() - before;

        // The apply itself — and the re-evaluated critical path — run
        // zero analysis passes.
        let before = profiling::counts();
        let patched = inst.apply(&edits).unwrap();
        let _ = patched.view().critical_path_weight();
        let apply_delta = profiling::counts() - before;
        prop_assert_eq!(apply_delta.topo_order, 0, "apply must not re-derive the order");
        prop_assert_eq!(apply_delta.classify, 0, "apply must not re-classify");
        prop_assert_eq!(apply_delta.sp_from_graph, 0, "apply must not re-recognize SP");
        prop_assert_eq!(apply_delta.transitive_reduction, 0, "apply must not re-reduce");

        // Solving the patched instance costs exactly the baseline:
        // the weight edit invalidated nothing a solve would rebuild.
        // The ledger also counts search work, which follows the new
        // weights: only the branch-and-bound nodes and steals are set
        // aside.
        let before = profiling::counts();
        solve_all(&patched);
        let patched_delta = profiling::counts() - before;
        let passes = |c: profiling::Counts| profiling::Counts {
            bnb_nodes: 0,
            bnb_steals: 0,
            ..c
        };
        prop_assert_eq!(passes(patched_delta), passes(baseline), "edit must add zero analysis passes");
    }

    /// Structural (edge-only) chains are *repaired*, not rebuilt:
    /// walking the chain one apply at a time (re-warming each step)
    /// never re-derives the topological order, never re-runs the
    /// transitive reduction, attempts at most one SP splice per step,
    /// and re-runs full SP recognition only for steps whose class was
    /// dropped — yet every carried analysis and every model's energy
    /// is bit-identical to a from-scratch rebuild.
    #[test]
    fn structural_chains_repair_locally(seed in any::<u64>(), k in 1usize..6) {
        let g = base_graph(seed);
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0de);
        let edits = random_structural_edits(&g, k, &mut rng);

        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();

        // Walk the chain, forcing every lazy recompute inside the
        // measured window so each step is charged its full cost.
        let before = profiling::counts();
        let mut cur = inst;
        for e in &edits {
            cur = cur.apply(std::slice::from_ref(e)).unwrap();
            cur.warm();
        }
        let delta = profiling::counts() - before;

        // Counter upper bounds — the heart of the repair contract.
        prop_assert_eq!(delta.topo_order, 0, "order is carried or window-shifted, never re-derived");
        prop_assert_eq!(delta.transitive_reduction, 0, "the reduction is repaired edge-locally");
        prop_assert!(
            delta.sp_splice + delta.sp_splice_miss <= k as u64,
            "at most one splice attempt per step: {} + {} > {}",
            delta.sp_splice, delta.sp_splice_miss, k
        );
        prop_assert!(
            delta.classify + delta.sp_splice <= k as u64,
            "a spliced step must not also re-classify: {} + {} > {}",
            delta.classify, delta.sp_splice, k
        );
        prop_assert!(
            delta.sp_from_graph <= delta.classify,
            "full SP recognition only inside a lazy re-classification: {} > {}",
            delta.sp_from_graph, delta.classify
        );

        // apply ≡ rebuild, bit for bit. (All comparisons run after the
        // delta above — building the fresh twin bumps the same
        // thread-local counters.)
        let (rebuilt, _) = apply_edits(&g, &edits).unwrap();
        prop_assert_eq!(cur.graph(), &rebuilt);
        let fresh = PreparedInstance::new(Arc::new(rebuilt.clone()));
        let (pv, fv) = (cur.view(), fresh.view());
        prop_assert_eq!(pv.topo(), fv.topo());
        prop_assert_eq!(pv.shape(), fv.shape());
        prop_assert_eq!(pv.sp_tree(), fv.sp_tree());
        prop_assert_eq!(
            pv.critical_path_weight().to_bits(),
            fv.critical_path_weight().to_bits(),
            "repaired critical path must be bitwise-stable"
        );
        prop_assert_eq!(pv.reduced().edges(), fv.reduced().edges());

        let engine = Engine::new(P).threads(1);
        for model in all_models() {
            let d = match model.top_speed() {
                Some(s) => 1.5 * analysis::critical_path_weight(&rebuilt) / s,
                None => analysis::critical_path_weight(&rebuilt),
            };
            let via_apply = engine.solve(&cur.view(), &model, d).unwrap();
            let via_rebuild = engine.solve(&fresh.view(), &model, d).unwrap();
            prop_assert_eq!(via_apply.algorithm, via_rebuild.algorithm);
            prop_assert_eq!(
                via_apply.energy.to_bits(),
                via_rebuild.energy.to_bits(),
                "model {}: {} vs {}", model.name(), via_apply.energy, via_rebuild.energy
            );
        }
    }

    /// Chains of weight-only batches equal a rebuild at every step.
    #[test]
    fn weight_only_chains_equal_rebuild(seed in any::<u64>(), steps in 1usize..5) {
        let g = base_graph(seed);
        let edges: Vec<(usize, usize)> =
            g.edges().iter().map(|&(u, v)| (u.index(), v.index())).collect();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x3e1);
        let mut weights = g.weights().to_vec();
        let mut cur = PreparedInstance::new(Arc::new(g.clone()));
        cur.warm();
        let engine = Engine::new(P).threads(1);
        for _ in 0..steps {
            let edits: Vec<GraphEdit> = (0..rng.gen_range(1..4))
                .map(|_| GraphEdit::SetWeight {
                    task: rng.gen_range(0..g.n()),
                    weight: rng.gen_range(0.25..4.0),
                })
                .collect();
            for e in &edits {
                if let GraphEdit::SetWeight { task, weight } = e {
                    weights[*task] = *weight;
                }
            }
            cur = cur.apply(&edits).unwrap();

            let rebuilt = TaskGraph::new(weights.clone(), &edges).unwrap();
            prop_assert_eq!(cur.graph(), &rebuilt);
            prop_assert_eq!(cur.graph().edges(), rebuilt.edges());
            let fresh = PreparedInstance::new(Arc::new(rebuilt.clone()));
            let (pv, fv) = (cur.view(), fresh.view());
            prop_assert_eq!(pv.reduced().edges(), fv.reduced().edges());
            prop_assert_eq!(pv.reduced().weights(), rebuilt.weights());
            prop_assert_eq!(
                pv.critical_path_weight().to_bits(),
                fv.critical_path_weight().to_bits()
            );
            for model in all_models() {
                let d = match model.top_speed() {
                    Some(s) => 1.5 * fv.critical_path_weight() / s,
                    None => fv.critical_path_weight(),
                };
                let via_apply = engine.solve(&pv, &model, d).unwrap();
                let via_rebuild = engine.solve(&fv, &model, d).unwrap();
                prop_assert_eq!(via_apply.algorithm, via_rebuild.algorithm);
                prop_assert_eq!(
                    via_apply.energy.to_bits(),
                    via_rebuild.energy.to_bits(),
                    "model {}: {} vs {}", model.name(), via_apply.energy, via_rebuild.energy
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Id-permuted graphs under order-breaking structural chains: the
    /// patched instance, walked one apply at a time, ends on the
    /// rebuild's graph, shape, canonical SP tree, reduced edges,
    /// critical-path bits and unbounded-Continuous energy bits.
    #[test]
    fn permuted_chains_equal_rebuild(seed in any::<u64>(), k in 1usize..6) {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37);
        let g = permuted(&base_graph(seed), &mut rng);
        let edits = random_rewiring(&g, k, &mut rng);

        let inst = PreparedInstance::new(Arc::new(g.clone()));
        inst.warm();
        let mut cur = inst;
        for e in &edits {
            cur = cur.apply(std::slice::from_ref(e)).unwrap();
            cur.warm();
        }

        let (rebuilt, _) = apply_edits(&g, &edits).unwrap();
        prop_assert_eq!(cur.graph(), &rebuilt);
        let fresh = PreparedInstance::new(Arc::new(rebuilt));
        let (pv, fv) = (cur.view(), fresh.view());
        prop_assert_eq!(pv.shape(), fv.shape());
        prop_assert_eq!(pv.sp_tree(), fv.sp_tree());
        prop_assert_eq!(pv.reduced().edges(), fv.reduced().edges());
        prop_assert_eq!(
            pv.critical_path_weight().to_bits(),
            fv.critical_path_weight().to_bits()
        );
        let model = EnergyModel::continuous_unbounded();
        let d = 1.37 * fv.critical_path_weight();
        let engine = Engine::new(P).threads(1);
        let via_apply = engine.solve(&pv, &model, d).unwrap();
        let via_rebuild = engine.solve(&fv, &model, d).unwrap();
        prop_assert_eq!(via_apply.algorithm, via_rebuild.algorithm);
        prop_assert_eq!(
            via_apply.energy.to_bits(),
            via_rebuild.energy.to_bits(),
            "{} vs {}", via_apply.energy, via_rebuild.energy
        );
    }
}

/// The fresh recognition of `0→{3,4,5}, 5→2, {2,3,4}→1` meets the
/// branch `5→2` last in its topological order, but a patch reaches the
/// same graph from `0→{2,3,4,5}→1`. Both hold the canonical tree
/// `S(0, P(S(5,2), 3, 4), 1)`, so one content key gets one energy.
#[test]
fn patched_and_rebuilt_instances_share_one_canonical_tree() {
    let g = TaskGraph::new(
        vec![1.0, 1.3, 0.7, 1.9, 2.3, 0.9],
        &[
            (0, 2),
            (0, 3),
            (0, 4),
            (0, 5),
            (2, 1),
            (3, 1),
            (4, 1),
            (5, 1),
        ],
    )
    .unwrap();
    let edits = [
        GraphEdit::RemoveEdge { from: 0, to: 2 },
        GraphEdit::RemoveEdge { from: 5, to: 1 },
        GraphEdit::InsertEdge { from: 5, to: 2 },
    ];
    let inst = PreparedInstance::new(Arc::new(g.clone()));
    inst.warm();
    let patched = inst.apply(&edits).unwrap();
    let (rebuilt, _) = apply_edits(&g, &edits).unwrap();
    let fresh = PreparedInstance::new(Arc::new(rebuilt));
    assert_eq!(patched.view().sp_tree(), fresh.view().sp_tree());

    let model = EnergyModel::continuous_unbounded();
    let d = 1.37 * fresh.view().critical_path_weight();
    let engine = Engine::new(P).threads(1);
    let via_apply = engine.solve(&patched.view(), &model, d).unwrap();
    let via_rebuild = engine.solve(&fresh.view(), &model, d).unwrap();
    assert_eq!(
        via_apply.energy.to_bits(),
        via_rebuild.energy.to_bits(),
        "{} vs {}",
        via_apply.energy,
        via_rebuild.energy
    );
}
