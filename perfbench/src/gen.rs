//! Seeded workload generation: request streams, the answers they must
//! get, and the stream digest.
//!
//! Inputs depend only on `--seed`. Graph sizes follow fixed ladders,
//! and structures and request order come from a fixed structural seed,
//! so a seed changes content (weights, deadlines) but not how much work
//! a request costs — that keeps the run-to-run spread across seeds
//! small.
//!
//! Every deadline is a positive multiple of a feasible minimum: the
//! generator never emits the negative deadlines that, under unbounded
//! Continuous, kill a worker (non-finite `min_makespan` in the error
//! encode).

use crate::stats::Fnv;
use models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim_core::engine::{content_key, patched_key, Engine, PreparedGraph, VddWarm};
use reclaim_core::ExactCurve;
use reclaim_service::proto::{Request, RequestEnvelope};
use std::sync::Arc;
use taskgraph::edit::{apply_edits, GraphEdit};
use taskgraph::{analysis, generators, PreparedInstance, TaskGraph};

/// The power law `reclaimd` solves under by default.
pub const POWER: PowerLaw = PowerLaw::CUBIC;
/// Exact-curve deadline factors.
const CURVE_LO: f64 = 1.1;
const CURVE_HI: f64 = 1.6;
/// Largest pool graph that also serves exact Vdd curves.
const CURVE_MAX_TASKS: usize = 80;
/// Blocks of the patch-large graphs: `4k + 1` tasks.
const BLOCKS_1K: usize = 250;
const BLOCKS_4K: usize = 1000;
/// Tasks of the Vdd patch-chain graph.
const VDD_PATCH_TASKS: usize = 220;
/// Structural seed of the fixed-structure graphs (weights still come
/// from `--seed`).
const STRUCTURE_SEED: u64 = 0x05ee_d0f5_ca1e;

/// The end-to-end class a request is measured under.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Hash, PartialOrd, Ord)]
pub enum Class {
    Solve,
    Deadlines,
    Curve,
    Patch,
    Weight1k,
    Struct1k,
    Weight4k,
    Struct4k,
    VddPatch,
    ColdVdd,
    ColdContinuous,
    ColdDiscrete,
    ColdIncremental,
}

impl Class {
    /// Whether the reply carries `prep_ns`/`solve_ns` of one solve
    /// (the basis of `daemon.overhead_us`).
    pub fn single_solve(self) -> bool {
        !matches!(self, Class::Deadlines | Class::Curve)
    }
}

/// The answer a request must get. Energies are compared to 1e-9
/// relative; `alg` is a prefix of the expected `algorithm` tag.
pub enum Expect {
    Solve {
        energy: f64,
        alg: &'static str,
    },
    Deadlines {
        energies: Vec<f64>,
        alg: &'static str,
    },
    Curve(Arc<ExactCurve>),
    Patch {
        energy: f64,
        key: u128,
        alg: &'static str,
    },
    /// Fresh content: checked after the timed phase by an in-process
    /// solve of the decoded request.
    Later {
        alg: &'static str,
    },
}

/// One request: its pre-encoded frame and the answer it must get.
pub struct Item {
    pub class: Class,
    pub id: u64,
    pub frame: String,
    pub expect: Expect,
}

impl Item {
    fn new(class: Class, id: u64, request: Request, expect: Expect) -> Item {
        Item {
            class,
            id,
            frame: RequestEnvelope::new(id, request).encode(),
            expect,
        }
    }
}

/// Everything one workload sends.
pub struct Plan {
    /// `reclaimd` flags beyond `--socket` and `--workers`.
    pub daemon_args: Vec<String>,
    /// Requests sent serially during set-up (pool pre-warm); timed as
    /// part of `setup_s`.
    pub prewarm: Vec<Item>,
    /// One cyclic request stream per connection.
    pub conns: Vec<Vec<Item>>,
}

fn engine() -> Engine {
    Engine::new(POWER).threads(1)
}

fn rng(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ salt)
}

pub fn vdd_model() -> EnergyModel {
    EnergyModel::VddHopping(DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).expect("valid ladder"))
}

/// A graph of the hot pools: series–parallel, fork, or out-tree by
/// `shape`, with `n` tasks, its structure drawn from `s` and its
/// weights from `r`.
fn pool_graph(n: usize, shape: usize, s: &mut StdRng, r: &mut StdRng) -> TaskGraph {
    let g = match shape % 3 {
        0 => generators::random_sp(n, 0.55, 1.0, 5.0, s).0,
        1 => generators::fork(1.0, &vec![1.0; n - 1]),
        _ => generators::random_out_tree(n, 1.0, 5.0, s),
    };
    let edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
    TaskGraph::new(generators::random_weights(n, 1.0, 5.0, r), &edges).expect("same DAG")
}

/// `serve-hot`: a pre-warmed pool of 32 graphs, two cyclic streams of
/// cached solves, deadline batches, cached exact curves and identity
/// patches. The pool's structures and the streams' order of requests
/// come from the structural seed, weights and deadlines from `seed`:
/// a request's cost, mostly its frame's size, does not depend on the
/// seed.
pub fn hot(seed: u64) -> Plan {
    let pool_size = 32;
    let conn_len = 1024;
    let mut r = rng(seed, 0x407);
    let mut s = rng(STRUCTURE_SEED, 0x407);
    let cont = EnergyModel::continuous_unbounded();
    let vdd = vdd_model();
    let eng = engine();
    struct Entry {
        g: TaskGraph,
        d: f64,
        key: u128,
        energies: [f64; 3],
    }
    // Sizes on a fixed 20..300 ladder; shapes rotate.
    let pool: Vec<Entry> = (0..pool_size)
        .map(|i| {
            let n = 20 + (280 * i) / (pool_size - 1);
            let g = pool_graph(n, i, &mut s, &mut r);
            let d = r.gen_range(1.2..2.0) * analysis::critical_path_weight(&g);
            let prep = PreparedGraph::new(&g);
            let energies = [1.0, 1.1, 1.5].map(|f| {
                eng.solve(&prep, &cont, f * d)
                    .expect("unbounded Continuous is feasible at any positive deadline")
                    .energy
            });
            Entry {
                key: content_key(&g, &cont),
                g,
                d,
                energies,
            }
        })
        .collect();
    let curves: Vec<(usize, Arc<ExactCurve>)> = pool
        .iter()
        .enumerate()
        .filter(|(_, e)| e.g.n() <= CURVE_MAX_TASKS)
        .map(|(i, e)| {
            let c = eng
                .energy_curve_exact(&PreparedGraph::new(&e.g), &vdd, CURVE_LO, CURVE_HI)
                .expect("Vdd curve over a feasible range");
            (i, Arc::new(c))
        })
        .collect();
    let curve_request = |g: &TaskGraph| Request::EnergyCurve {
        graph: g.clone(),
        model: vdd.clone(),
        points: 2,
        lo: CURVE_LO,
        hi: CURVE_HI,
        exact: true,
    };

    let mut prewarm = Vec::new();
    for e in &pool {
        let req = Request::Solve {
            graph: e.g.clone(),
            model: cont.clone(),
            deadline: e.d,
        };
        let expect = Expect::Solve {
            energy: e.energies[0],
            alg: "continuous",
        };
        prewarm.push(Item::new(
            Class::Solve,
            prewarm.len() as u64 + 1,
            req,
            expect,
        ));
    }
    for (i, c) in &curves {
        let req = curve_request(&pool[*i].g);
        prewarm.push(Item::new(
            Class::Curve,
            prewarm.len() as u64 + 1,
            req,
            Expect::Curve(Arc::clone(c)),
        ));
    }

    let conns = (0..2)
        .map(|_| {
            (0..conn_len)
                .map(|k| {
                    let id = k as u64 + 1;
                    let e = &pool[s.gen_range(0..pool.len())];
                    match s.gen_range(0..100u32) {
                        0..=59 => Item::new(
                            Class::Solve,
                            id,
                            Request::Solve {
                                graph: e.g.clone(),
                                model: cont.clone(),
                                deadline: e.d,
                            },
                            Expect::Solve {
                                energy: e.energies[0],
                                alg: "continuous",
                            },
                        ),
                        60..=69 => Item::new(
                            Class::Deadlines,
                            id,
                            Request::SolveDeadlines {
                                graph: e.g.clone(),
                                model: cont.clone(),
                                deadlines: vec![e.d, 1.1 * e.d, 1.5 * e.d],
                            },
                            Expect::Deadlines {
                                energies: e.energies.to_vec(),
                                alg: "continuous",
                            },
                        ),
                        70..=79 => {
                            let (i, c) = &curves[s.gen_range(0..curves.len())];
                            Item::new(
                                Class::Curve,
                                id,
                                curve_request(&pool[*i].g),
                                Expect::Curve(Arc::clone(c)),
                            )
                        }
                        _ => {
                            let task = s.gen_range(0..e.g.n());
                            let w0 = e.g.weights()[task];
                            // An identity pair whose key terms XOR-cancel:
                            // repeatable, never consumes its base.
                            let edits = vec![
                                GraphEdit::SetWeight {
                                    task,
                                    weight: w0 + 1.0,
                                },
                                GraphEdit::SetWeight { task, weight: w0 },
                            ];
                            let key = patched_key(e.key, &e.g, &edits).expect("no task removal");
                            Item::new(
                                Class::Patch,
                                id,
                                Request::Patch {
                                    base: e.key,
                                    edits,
                                    deadline: e.d,
                                },
                                Expect::Patch {
                                    energy: e.energies[0],
                                    key,
                                    alg: "continuous",
                                },
                            )
                        }
                    }
                })
                .collect()
        })
        .collect();
    Plan {
        daemon_args: vec!["--cache-entries".into(), "4096".into()],
        prewarm,
        conns,
    }
}

/// A series chain of `k` triple-branch blocks (junction `0`; block `i`
/// runs `4(i−1) → {a, b, c} → 4i`) with seeded weights. Branch `c`
/// outweighs `a + b`, so converting `a ∥ b` into `a → b` stays
/// series–parallel and local.
fn block_graph(k: usize, r: &mut StdRng) -> TaskGraph {
    let n = 4 * k + 1;
    let mut edges = Vec::with_capacity(6 * k);
    let mut weights = vec![1.0; n];
    for i in 1..=k {
        let (j0, a, b, c, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i - 1, 4 * i);
        edges.extend([(j0, a), (j0, b), (j0, c), (a, j1), (b, j1), (c, j1)]);
        weights[a] = r.gen_range(0.5..1.0);
        weights[b] = r.gen_range(0.5..1.0);
        weights[c] = r.gen_range(2.0..2.5);
        weights[j1] = r.gen_range(1.0..2.0);
    }
    TaskGraph::new(weights, &edges).expect("block chain is a DAG")
}

fn block_conversion(i: usize) -> Vec<GraphEdit> {
    let (j0, a, b, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i);
    vec![
        GraphEdit::RemoveEdge { from: j0, to: b },
        GraphEdit::RemoveEdge { from: a, to: j1 },
        GraphEdit::InsertEdge { from: a, to: b },
    ]
}

fn block_reversal(i: usize) -> Vec<GraphEdit> {
    let (j0, a, b, j1) = (4 * (i - 1), 4 * i - 3, 4 * i - 2, 4 * i);
    vec![
        GraphEdit::RemoveEdge { from: a, to: b },
        GraphEdit::InsertEdge { from: j0, to: b },
        GraphEdit::InsertEdge { from: a, to: j1 },
    ]
}

/// A Continuous patch chain on a block graph: `quads` rounds of
/// (weight batch, block conversion, weight restore, block reversal),
/// each round returning to the base graph, so the chain repeats
/// forever. Returns the base graph, its deadline, and the chain's
/// `(class, base key, edits, expected energy, expected key)` steps.
pub struct Chain {
    pub graph: TaskGraph,
    pub model: EnergyModel,
    pub deadline: f64,
    pub base_energy: f64,
    pub steps: Vec<(Class, u128, Vec<GraphEdit>, f64, u128)>,
}

fn block_chain(blocks: usize, quads: usize, r: &mut StdRng, structural: &mut StdRng) -> Chain {
    let (weight_class, struct_class) = if blocks == BLOCKS_4K {
        (Class::Weight4k, Class::Struct4k)
    } else {
        (Class::Weight1k, Class::Struct1k)
    };
    let g = block_graph(blocks, r);
    let model = EnergyModel::continuous_unbounded();
    let deadline = 1.2 * analysis::critical_path_weight(&g);
    let eng = engine();
    let base = PreparedInstance::new(Arc::new(g.clone()));
    base.warm();
    let base_energy = eng
        .solve(&base.view(), &model, deadline)
        .expect("feasible")
        .energy;
    let mut steps = Vec::with_capacity(4 * quads);
    let mut cur = base;
    let mut key = content_key(&g, &model);
    for _ in 0..quads {
        // Positions come from the structural seed, values from `r`: a
        // weight edit's repair cone depends on where it lands.
        let block = structural.gen_range(1..=blocks);
        let tasks: Vec<usize> = (0..4).map(|_| structural.gen_range(0..g.n())).collect();
        let set: Vec<GraphEdit> = tasks
            .iter()
            .map(|&task| GraphEdit::SetWeight {
                task,
                weight: r.gen_range(0.5..2.0),
            })
            .collect();
        // Restore in reverse order, so a task drawn twice ends at its
        // base weight.
        let restore: Vec<GraphEdit> = tasks
            .iter()
            .rev()
            .map(|&task| GraphEdit::SetWeight {
                task,
                weight: g.weights()[task],
            })
            .collect();
        for (class, edits) in [
            (weight_class, set),
            (struct_class, block_conversion(block)),
            (weight_class, restore),
            (struct_class, block_reversal(block)),
        ] {
            let next = cur.apply(&edits).expect("valid chain edit");
            let next_key = patched_key(key, cur.graph(), &edits).expect("no task removal");
            let energy = eng
                .solve(&next.view(), &model, deadline)
                .expect("feasible")
                .energy;
            steps.push((class, key, edits, energy, next_key));
            cur = next;
            key = next_key;
        }
    }
    debug_assert_eq!(
        key,
        content_key(&g, &model),
        "each round returns to the base"
    );
    Chain {
        graph: g,
        model,
        deadline,
        base_energy,
        steps,
    }
}

/// A Vdd weight-patch chain on a ~220-task SP graph: `pairs` single
/// weight edits, then their restores, back to the base graph. Expected
/// energies come from an in-process warm chain (`Engine::solve_warm`,
/// the same Engine path the daemon's patch handler takes).
fn vdd_chain(pairs: usize, r: &mut StdRng) -> Chain {
    let mut structural = rng(STRUCTURE_SEED, 0x7dd);
    let (base, _) = generators::random_sp(VDD_PATCH_TASKS, 0.55, 1.0, 5.0, &mut structural);
    let g = perturb(&base, 0, r);
    let model = vdd_model();
    let deadline = 1.4 * analysis::critical_path_weight(&g) / 2.4;
    let eng = engine();
    let mut warm: Option<VddWarm> = None;
    let base_energy = eng
        .solve_warm(&PreparedGraph::new(&g), &model, deadline, &mut warm)
        .expect("feasible")
        .energy;
    let tasks: Vec<usize> = (0..pairs).map(|_| structural.gen_range(0..g.n())).collect();
    // Re-estimates, not rewrites: each edit moves a weight by at most
    // 25%, so the warm dual simplex needs a handful of pivots. The
    // factors come from the structural seed too, like the cold probe's
    // instances: the pivots an edit costs move with its values, and the
    // seed's 1e-12 perturbation of the base already makes the content
    // fresh.
    let mut edits: Vec<GraphEdit> = tasks
        .iter()
        .map(|&task| GraphEdit::SetWeight {
            task,
            weight: g.weights()[task] * structural.gen_range(0.8..1.25),
        })
        .collect();
    edits.extend(tasks.iter().rev().map(|&task| GraphEdit::SetWeight {
        task,
        weight: g.weights()[task],
    }));
    let mut steps = Vec::with_capacity(edits.len());
    let mut cur = g.clone();
    let mut key = content_key(&g, &model);
    for edit in edits {
        let batch = vec![edit];
        let (next, _) = apply_edits(&cur, &batch).expect("valid edit");
        let next_key = patched_key(key, &cur, &batch).expect("no task removal");
        let energy = eng
            .solve_warm(&PreparedGraph::new(&next), &model, deadline, &mut warm)
            .expect("feasible")
            .energy;
        steps.push((Class::VddPatch, key, batch, energy, next_key));
        cur = next;
        key = next_key;
    }
    Chain {
        graph: g,
        model,
        deadline,
        base_energy,
        steps,
    }
}

fn chain_prewarm(c: &Chain, id: u64) -> Item {
    let alg = if matches!(c.model, EnergyModel::VddHopping(_)) {
        "vdd-lp"
    } else {
        "continuous"
    };
    Item::new(
        Class::Solve,
        id,
        Request::Solve {
            graph: c.graph.clone(),
            model: c.model.clone(),
            deadline: c.deadline,
        },
        Expect::Solve {
            energy: c.base_energy,
            alg,
        },
    )
}

fn chain_items(c: &Chain) -> Vec<Item> {
    let alg = if matches!(c.model, EnergyModel::VddHopping(_)) {
        "vdd-lp-warm"
    } else {
        "continuous"
    };
    c.steps
        .iter()
        .enumerate()
        .map(|(k, (class, base, edits, energy, key))| {
            Item::new(
                *class,
                k as u64 + 1,
                Request::Patch {
                    base: *base,
                    edits: edits.clone(),
                    deadline: c.deadline,
                },
                Expect::Patch {
                    energy: *energy,
                    key: *key,
                    alg,
                },
            )
        })
        .collect()
}

/// Merge cyclic chain streams by a repeating `pattern` of stream
/// indices, renumbering ids. Stream `i` must have as many items as
/// `pattern` has `i`s times the number of rounds, so every chain
/// completes whole cycles together.
fn interleave(streams: Vec<Vec<Item>>, pattern: &[usize]) -> Vec<Item> {
    let per_round: Vec<usize> = (0..streams.len())
        .map(|i| pattern.iter().filter(|&&p| p == i).count())
        .collect();
    let rounds = streams[0].len() / per_round[0];
    assert!(streams
        .iter()
        .zip(&per_round)
        .all(|(s, &k)| s.len() == k * rounds));
    let mut iters: Vec<_> = streams.into_iter().map(Vec::into_iter).collect();
    let mut out = Vec::new();
    for _ in 0..rounds {
        for &i in pattern {
            let mut item = iters[i].next().expect("lengths checked");
            let env = RequestEnvelope::decode(&item.frame).expect("own frame");
            item.id = out.len() as u64 + 1;
            item.frame = RequestEnvelope::new(item.id, env.request).encode();
            out.push(item);
        }
    }
    out
}

/// The chains `patch-large` replays: the 1k and 4k Continuous block
/// chains and the Vdd weight chain. The layer suite times the same
/// edits in-process.
pub fn patch_chains(seed: u64) -> (Chain, Chain, Chain) {
    let mut r = rng(seed, 0x9a7c);
    let mut structural = rng(STRUCTURE_SEED, 0xb10c);
    let c1 = block_chain(BLOCKS_1K, 8, &mut r, &mut structural);
    let c4 = block_chain(BLOCKS_4K, 4, &mut r, &mut structural);
    let cv = vdd_chain(16, &mut r);
    (c1, c4, cv)
}

/// `patch-large`: one connection replaying [`patch_chains`], one step
/// of each per round.
pub fn patch_large(seed: u64) -> Plan {
    let (c1, c4, cv) = patch_chains(seed);
    let prewarm = vec![
        chain_prewarm(&c1, 1),
        chain_prewarm(&c4, 2),
        chain_prewarm(&cv, 3),
    ];
    // Per round two 1k steps, one 4k step, two Vdd steps. The costs
    // rank Vdd < 1k weight < 1k structural < 4k, so the median request
    // sits inside the 1k weight-patch mode rather than on the edge
    // between two modes, where it would jump from run to run.
    let stream = interleave(
        vec![chain_items(&c1), chain_items(&c4), chain_items(&cv)],
        &[2, 0, 2, 1, 0],
    );
    Plan {
        daemon_args: Vec::new(),
        prewarm,
        conns: vec![stream],
    }
}

/// The short patch exchange that gives `weight_patch_us`,
/// `struct_patch_us` and `vdd_patch_us` on workloads whose own traffic
/// has no such patches: 4k block chain plus the Vdd chain, interleaved.
pub fn patch_probe(seed: u64) -> (Vec<Item>, Vec<Item>) {
    let mut r = rng(seed, 0x970be);
    let mut structural = rng(STRUCTURE_SEED, 0xb10c);
    let c4 = block_chain(BLOCKS_4K, 6, &mut r, &mut structural);
    let cv = vdd_chain(24, &mut r);
    let prewarm = vec![chain_prewarm(&c4, 1), chain_prewarm(&cv, 2)];
    (
        prewarm,
        interleave(vec![chain_items(&c4), chain_items(&cv)], &[0, 1, 1]),
    )
}

/// The same instance as `base` with one seeded task's weight moved by
/// `(unique + 1)·1e-12` relative: new content (a cache miss that
/// prepares and solves from scratch) at the base instance's solver
/// cost. Solver work is not smooth in the weights — a 1% reweighting
/// can double the barrier's Newton steps or the B&B nodes — so fully
/// fresh weights would make the per-model times a lottery over the
/// seed instead of a property of the code.
fn perturb(base: &TaskGraph, unique: u64, r: &mut StdRng) -> TaskGraph {
    let mut w = base.weights().to_vec();
    let t = r.gen_range(0..w.len());
    w[t] *= 1.0 + (unique + 1) as f64 * 1e-12;
    let edges: Vec<(usize, usize)> = base.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
    TaskGraph::new(w, &edges).expect("same DAG")
}

/// The cold probe: fixed instances per request class, perturbed per
/// request, so every request is new content (a cache miss that
/// prepares and solves) at a stable cost.
///
/// The barrier under the Continuous, round-up and approximation classes
/// centres to a Newton decrement near machine precision, so a 1e-12
/// perturbation can add a whole extra round of Newton steps. The
/// deadline factors are the ones at which that happened least over
/// twelve perturbations of each instance: never for round-up (1.2) and
/// approximation (3.0); the Continuous classes jump at every factor
/// tried, least at 1.8.
pub struct ColdGen {
    seed: u64,
    /// `(class, structure, model, deadline factor over the minimum
    /// makespan, expected algorithm tag prefix)`.
    classes: Vec<(Class, TaskGraph, EnergyModel, f64, &'static str)>,
}

impl ColdGen {
    pub fn new(seed: u64) -> ColdGen {
        let mut s = rng(STRUCTURE_SEED, 0xc01d);
        let sp = |n: usize, s: &mut StdRng| generators::random_sp(n, 0.55, 1.0, 5.0, s).0;
        let discrete = EnergyModel::Discrete(DiscreteModes::new(&[0.5, 1.0, 2.0]).expect("modes"));
        let incremental =
            EnergyModel::Incremental(IncrementalModes::new(0.5, 2.0, 0.25).expect("modes"));
        let classes = vec![
            (Class::ColdVdd, sp(120, &mut s), vdd_model(), 1.4, "vdd-lp"),
            (Class::ColdVdd, sp(200, &mut s), vdd_model(), 1.4, "vdd-lp"),
            (
                Class::ColdContinuous,
                generators::layered_dag(6, 10, 0.3, 1.0, 5.0, &mut s),
                EnergyModel::continuous(2.0),
                1.8,
                "continuous",
            ),
            (
                Class::ColdContinuous,
                generators::layered_dag(9, 10, 0.3, 1.0, 5.0, &mut s),
                EnergyModel::continuous(2.0),
                1.8,
                "continuous",
            ),
            (
                Class::ColdDiscrete,
                sp(16, &mut s),
                discrete.clone(),
                2.0,
                "discrete-bnb",
            ),
            (
                Class::ColdDiscrete,
                generators::layered_dag(2, 10, 0.3, 1.0, 5.0, &mut s),
                discrete.clone(),
                2.0,
                "discrete-bnb",
            ),
            (
                Class::ColdDiscrete,
                sp(120, &mut s),
                discrete,
                1.2,
                "discrete-round-up",
            ),
            (
                Class::ColdIncremental,
                sp(120, &mut s),
                incremental,
                3.0,
                "incremental-approx",
            ),
        ];
        ColdGen { seed, classes }
    }

    /// Requests per pass.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// The instances of pass `k`: `(class, graph, model, deadline,
    /// expected tag prefix)`, one per class.
    pub fn instances(&self, k: u64) -> Vec<(Class, TaskGraph, EnergyModel, f64, &'static str)> {
        let mut r = rng(self.seed ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d), 0xc0);
        self.classes
            .iter()
            .map(|(class, shape, model, factor, alg)| {
                let g = perturb(shape, k, &mut r);
                let s = model.top_speed().unwrap_or(1.0);
                let deadline = factor * analysis::critical_path_weight(&g) / s;
                (*class, g, model.clone(), deadline, *alg)
            })
            .collect()
    }

    /// Pass `k`: one request per class, ids `k·len + 1 ..`.
    pub fn pass(&self, k: u64) -> Vec<Item> {
        self.instances(k)
            .into_iter()
            .enumerate()
            .map(|(j, (class, graph, model, deadline, alg))| {
                let id = k * self.len() as u64 + j as u64 + 1;
                let req = Request::Solve {
                    graph,
                    model,
                    deadline,
                };
                Item::new(class, id, req, Expect::Later { alg })
            })
            .collect()
    }
}

/// Passes of the cold probe folded into the digest.
const DIGEST_PASSES: u64 = 8;

/// Digest of everything a workload sends: pre-warm, the per-connection
/// streams, the patch probe and the first cold-probe passes.
pub fn digest(plan: &Plan, probes: &[&[Item]], cold_probe: &ColdGen) -> u64 {
    let mut h = Fnv::new();
    let mut feed = |items: &[Item]| items.iter().for_each(|i| h.feed(i.frame.as_bytes()));
    feed(&plan.prewarm);
    plan.conns.iter().for_each(|c| feed(c));
    (0..DIGEST_PASSES).for_each(|k| feed(&cold_probe.pass(k)));
    probes.iter().for_each(|p| feed(p));
    h.0
}
