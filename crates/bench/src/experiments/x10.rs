//! X10 (extension) — deterministic parallel branch-and-bound on a
//! 512-task instance whose hardness is concentrated in a
//! combinatorial core.
//!
//! **The instance.** A 512-task chain: 24 *core* tasks with irregular
//! weights followed by 488 heavy uniform *tail* tasks, two speed
//! modes `{1, 2}`. The deadline grants the core a slack window
//! smaller than one tail slowdown costs, so every tail task is forced
//! to top speed along every search path and the search is a
//! subset-selection problem over the core — exponential in the core,
//! linear in the tail, exactly the regime where the fixed-depth
//! partition split pays off (the frontier forms inside the core).
//!
//! Every timed arm runs **cold** (no round-up seeding): at this size
//! the boxed continuous relaxation behind Proposition 1(b) costs
//! orders of magnitude more than the whole search, and the claim
//! under test is search throughput, not seeding. The anytime arm
//! instead demonstrates the budget-trip contract with an incumbent
//! found *by the search itself*.
//!
//! **Arms.**
//!
//! Both search arms are the one [`discrete::exact`] entry point on the
//! same prepared instance, warmed before either clock starts, under
//! two [`BnbConfig`]s:
//!
//! * *sequential*: `BnbConfig::default()` (cold) — one worker, one
//!   partition: the baseline single-threaded branch-and-bound;
//! * *parallel-deterministic*: `BnbConfig::with_workers(4)` (cold) —
//!   `4 × 4` partitions over 4 workers, run **twice** — both runs must
//!   agree on energy bits, speeds, and
//!   the full per-partition manifest (keys, node counts, prune
//!   counters), and the wall-clock must beat sequential by ≥ 2×
//!   (enforced only when the host grants ≥ 4 cores; below that the
//!   measurement is reported, not gated — CI runs on ≥ 4);
//! * *anytime*: the sequential search re-run under a deliberately
//!   tripping node budget — it must return the feasible incumbent
//!   with a non-negative optimality gap, and a budget too small to
//!   reach any leaf must be the structured
//!   [`SolveError::BudgetExhausted`], never a string-matched
//!   numerical error.
//!
//! With `X10_MANIFEST=PATH` in the environment, the deterministic
//! arm's partition manifest is written to `PATH` (stable field order,
//! energies as bit patterns, no timings) so CI can `cmp` the files
//! from two independent process runs.

use super::Outcome;
use reclaim_core::discrete::{self, BnbConfig, PartitionReport};
use reclaim_core::SolveError;
use report::Table;
use std::sync::Arc;
use taskgraph::{PreparedInstance, TaskGraph};

/// Combinatorial-core size (2^24 assignments before pruning).
const N_CORE: usize = 24;
/// Forced tail length; total task count is 512 (past the 500 bar).
const N_TAIL: usize = 488;
/// Parallel arm width.
const WORKERS: usize = 4;
/// Per-tail-task work. Slowing one tail task costs
/// `TAIL_W/1 − TAIL_W/2 = 15` time units.
const TAIL_W: f64 = 30.0;
/// Deadline slack granted to the core, in time units. Well below one
/// tail slowdown (15), so the tail is forced to top speed; roughly
/// half the core's total slowdown cost (~24), so the core is a dense
/// subset-selection search.
const CORE_SLACK: f64 = 12.0;

/// Irregular core weights in `[1, 3)` from a fixed xorshift stream —
/// deterministic across runs and platforms.
fn core_weights() -> Vec<f64> {
    let mut roll = super::xorshift(0x2545_f491_4f6c_dd1d);
    (0..N_CORE)
        .map(|_| 1.0 + roll(1000) as f64 / 500.0)
        .collect()
}

/// The 512-task chain and its deadline.
fn instance() -> (TaskGraph, f64) {
    let mut weights = core_weights();
    weights.extend(std::iter::repeat_n(TAIL_W, N_TAIL));
    let edges: Vec<(usize, usize)> = (0..weights.len() - 1).map(|i| (i, i + 1)).collect();
    let total: f64 = weights.iter().sum();
    let g = TaskGraph::new(weights, &edges).unwrap();
    // Everything at top speed takes total/2; the core may spend
    // CORE_SLACK beyond that.
    (g, total / 2.0 + CORE_SLACK)
}

/// Render the deterministic arm's partition manifest: stable field
/// order, energies as f64 bit patterns, no wall-clock anywhere — two
/// runs of the same binary must produce byte-identical files.
fn manifest(partitions: &[PartitionReport]) -> String {
    let mut s = String::from("{\n  \"partitions\": [\n");
    for (i, p) in partitions.iter().enumerate() {
        let key: Vec<String> = p.key.iter().map(|k| k.to_string()).collect();
        let energy = match p.energy {
            Some(e) => format!("\"{:016x}\"", e.to_bits()),
            None => "null".into(),
        };
        s.push_str(&format!(
            "    {{\"key\": [{}], \"nodes\": {}, \
             \"pruned_infeasible\": {}, \"pruned_bound\": {}, \
             \"complete\": {}, \"energy_bits\": {}}}{}\n",
            key.join(", "),
            p.stats.nodes,
            p.stats.pruned_infeasible,
            p.stats.pruned_bound,
            p.complete,
            energy,
            if i + 1 < partitions.len() { "," } else { "" },
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

/// Run the experiment.
pub fn run() -> Outcome {
    let (g, deadline) = instance();
    let modes = models::DiscreteModes::new(&[1.0, 2.0]).unwrap();
    let n = g.n();
    // Prepared and warmed outside both timed arms, so the clocks see
    // the searches alone.
    let inst = PreparedInstance::new(Arc::new(g));
    inst.warm();
    let prep = inst.view();
    let solve = |cfg: &BnbConfig| discrete::exact(&prep, deadline, &modes, super::P, cfg);
    let cold = BnbConfig {
        warm_start: false,
        ..Default::default()
    };
    let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);

    // Sequential baseline.
    let t0 = std::time::Instant::now();
    let seq = solve(&cold).expect("sequential exact solve");
    let seq_ns = t0.elapsed().as_nanos() as u64;
    assert!(seq.complete, "baseline must prove optimality");

    // Parallel deterministic arm, twice.
    let par = BnbConfig {
        warm_start: false,
        ..BnbConfig::with_workers(WORKERS)
    };
    let t0 = std::time::Instant::now();
    let par1 = solve(&par).expect("parallel solve");
    let par_ns = t0.elapsed().as_nanos() as u64;
    let par2 = solve(&par).expect("parallel re-run");
    let deterministic = par1.energy.to_bits() == par2.energy.to_bits()
        && par1.speeds == par2.speeds
        && par1.partitions == par2.partitions;
    let exact_match = par1.complete && par1.energy.to_bits() == seq.energy.to_bits();
    let speedup = seq_ns as f64 / par_ns.max(1) as f64;
    // Node-count overhead of searching partitions against local
    // incumbents instead of one global one — the determinism tax.
    // Near 1.0 means wall-clock speedup tracks the worker count.
    let node_ratio = par1.stats.nodes as f64 / seq.stats.nodes.max(1) as f64;
    let fast_enough = speedup >= 2.0 || cores < WORKERS;
    if let Ok(path) = std::env::var("X10_MANIFEST") {
        super::write_manifest(&path, &manifest(&par1.partitions));
    }

    // Anytime arm: a budget far below the full search must surface
    // the incumbent the search has found by then, not an error…
    let trip_budget = (seq.stats.nodes / 8).max(1);
    let anytime = solve(&BnbConfig {
        node_budget: trip_budget,
        ..cold
    })
    .expect("budget trip must return the anytime incumbent");
    // …while a budget too small to reach any leaf is the structured
    // budget error, matched on shape rather than message text.
    let starved = solve(&BnbConfig {
        node_budget: 5,
        ..cold
    });
    let anytime_ok = !anytime.complete
        && anytime.gap() >= 0.0
        && anytime.energy >= seq.energy * (1.0 - 1e-12)
        && matches!(starved, Err(SolveError::BudgetExhausted { budget: 5, .. }));

    let mut table = Table::new(&["arm", "nodes", "wall(ms)", "result"]);
    table.row(&[
        "sequential bnb (cold)".into(),
        format!("{}", seq.stats.nodes),
        format!("{:.2}", seq_ns as f64 / 1e6),
        format!("E = {:.4}", seq.energy),
    ]);
    table.row(&[
        format!("parallel det ({WORKERS} workers, {cores} cores)"),
        format!("{}", par1.stats.nodes),
        format!("{:.2}", par_ns as f64 / 1e6),
        format!(
            "{} partitions @ depth {}, {} steals",
            par1.partitions.len(),
            par1.depth,
            par1.steals
        ),
    ]);
    table.row(&[
        format!("anytime (budget {trip_budget})"),
        format!("{}", anytime.stats.nodes),
        "—".into(),
        format!("E = {:.4}, gap ≤ {:.2e}", anytime.energy, anytime.gap()),
    ]);

    let pass = deterministic && exact_match && fast_enough && anytime_ok;
    Outcome {
        id: "X10",
        claim: "deterministic fixed-depth partitioning makes parallel exact \
                branch-and-bound reproducible (byte-identical manifests at 4 \
                workers) and ≥ 2× faster than sequential on a 512-task \
                instance; budget trips return the anytime incumbent",
        size: n,
        metrics: vec![
            ("seq_ns", seq_ns as f64),
            ("par_ns", par_ns as f64),
            ("speedup", speedup),
            ("cores", cores as f64),
            ("seq_nodes", seq.stats.nodes as f64),
            ("par_nodes", par1.stats.nodes as f64),
            ("node_ratio", node_ratio),
            ("partitions", par1.partitions.len() as f64),
            ("deterministic", f64::from(u8::from(deterministic))),
            ("exact_match", f64::from(u8::from(exact_match))),
            ("anytime_ok", f64::from(u8::from(anytime_ok))),
            ("anytime_gap", anytime.gap()),
        ],
        table,
        verdict: format!(
            "{}: speedup {speedup:.2}× on {cores} cores (want ≥ 2× at ≥ {WORKERS}), \
             node ratio {node_ratio:.3}, {} partitions deterministic {}, \
             parallel ≡ sequential {}, anytime incumbent {}",
            if pass { "PASS" } else { "FAIL" },
            par1.partitions.len(),
            if deterministic { "✓" } else { "✗" },
            if exact_match { "✓" } else { "✗" },
            if anytime_ok { "✓" } else { "✗" },
        ),
    }
}
