//! Cross-crate coverage for the deterministic parallel
//! branch-and-bound: engine dispatch at several worker counts,
//! run-to-run reproducibility of the partition sweep, and the anytime
//! budget-trip contract.
//!
//! `RECLAIM_TEST_WORKERS=N` pins every parameterized test to one
//! worker count (CI runs the suite at 1 and at 4); without it each
//! test sweeps the interesting counts itself.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim::core::discrete::{self, BnbConfig};
use reclaim::core::{continuous, Engine, SolveError, SolveOptions};
use reclaim::models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw};
use reclaim::taskgraph::{analysis, generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

/// Worker counts under test: the `RECLAIM_TEST_WORKERS` pin when set,
/// otherwise the sequential/parallel pair.
fn workers_under_test() -> Vec<usize> {
    match std::env::var("RECLAIM_TEST_WORKERS") {
        Ok(s) => vec![s.parse().expect("RECLAIM_TEST_WORKERS must be a count")],
        Err(_) => vec![1, 4],
    }
}

/// A 16-task series–parallel instance within the engine's tractable
/// limit, with a deadline tight enough that the search branches.
fn sp_instance() -> (TaskGraph, f64, DiscreteModes) {
    let mut rng = StdRng::seed_from_u64(21);
    let (g, _) = generators::random_sp(16, 0.55, 1.0, 4.0, &mut rng);
    let modes = DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap();
    let d = 1.3 * analysis::critical_path_weight(&g) / modes.s_max();
    (g, d, modes)
}

/// A chain whose hardness is a subset-selection over irregular
/// weights — enough branching that small node budgets genuinely trip.
fn hard_chain() -> (TaskGraph, f64, DiscreteModes) {
    let weights = vec![
        5.3, 8.1, 6.7, 7.4, 5.9, 9.2, 6.1, 8.8, 7.3, 5.6, 6.4, 9.7, 5.1, 7.8,
    ];
    let total: f64 = weights.iter().sum();
    let edges: Vec<(usize, usize)> = (0..weights.len() - 1).map(|i| (i, i + 1)).collect();
    let g = TaskGraph::new(weights, &edges).unwrap();
    let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
    // Top speed takes total/2; grant ~a third of the full slowdown
    // budget so roughly half the tasks can afford the slow mode.
    (g, total / 2.0 + total / 6.0, modes)
}

#[test]
fn engine_dispatch_matches_across_worker_counts() {
    let (g, d, modes) = sp_instance();
    let baseline = Engine::new(P)
        .solve_graph(&g, &EnergyModel::Discrete(modes.clone()), d)
        .expect("sequential solve");
    assert_eq!(baseline.algorithm, "discrete-bnb");
    for w in workers_under_test() {
        let sol = Engine::new(P)
            .threads(w)
            .solve_graph(&g, &EnergyModel::Discrete(modes.clone()), d)
            .unwrap_or_else(|e| panic!("{w} workers: {e}"));
        let expect = if w >= 2 {
            "discrete-bnb-par"
        } else {
            "discrete-bnb"
        };
        assert_eq!(sol.algorithm, expect, "{w} workers");
        assert_eq!(
            sol.energy.to_bits(),
            baseline.energy.to_bits(),
            "{w} workers must reproduce the sequential optimum exactly"
        );
    }
}

#[test]
fn incremental_exact_takes_the_same_parallel_path() {
    let (g, d, _) = sp_instance();
    let modes = IncrementalModes::new(0.6, 2.4, 0.6).unwrap();
    let opts = SolveOptions {
        exact_incremental: true,
        ..Default::default()
    };
    let baseline = Engine::with_options(P, opts)
        .solve_graph(&g, &EnergyModel::Incremental(modes.clone()), d)
        .expect("sequential solve");
    assert_eq!(baseline.algorithm, "incremental-bnb");
    for w in workers_under_test() {
        let sol = Engine::with_options(P, opts)
            .threads(w)
            .solve_graph(&g, &EnergyModel::Incremental(modes.clone()), d)
            .unwrap_or_else(|e| panic!("{w} workers: {e}"));
        let expect = if w >= 2 {
            "incremental-bnb-par"
        } else {
            "incremental-bnb"
        };
        assert_eq!(sol.algorithm, expect, "{w} workers");
        assert_eq!(sol.energy.to_bits(), baseline.energy.to_bits());
    }
}

#[test]
fn partition_sweep_is_reproducible_at_every_width() {
    let (g, d, modes) = hard_chain();
    for partitions in [1usize, 2, 4, 8] {
        let cfg = BnbConfig {
            partitions,
            ..BnbConfig::with_workers(workers_under_test().into_iter().max().unwrap())
        };
        let prep = PreparedGraph::new(&g);
        let a = discrete::exact(&prep, d, &modes, P, &cfg).expect("first run");
        let b = discrete::exact(&prep, d, &modes, P, &cfg).expect("second run");
        assert_eq!(
            a.energy.to_bits(),
            b.energy.to_bits(),
            "{partitions} partitions"
        );
        assert_eq!(a.speeds, b.speeds, "{partitions} partitions");
        assert_eq!(
            a.partitions, b.partitions,
            "{partitions} partitions: per-partition node counts must be identical"
        );
    }
}

#[test]
fn budget_trip_returns_anytime_incumbent_below_round_up() {
    let (g, d, modes) = hard_chain();
    let prep = PreparedGraph::new(&g);
    let full = discrete::exact(&prep, d, &modes, P, &BnbConfig::default()).expect("full solve");
    assert!(full.complete);
    assert!(
        full.stats.nodes > 40,
        "fixture too easy for a budget trip ({} nodes)",
        full.stats.nodes
    );

    // Warm-seeded search under a tripping budget: the incumbent (the
    // round-up, or better) comes back as an anytime result.
    let anytime = discrete::exact(
        &prep,
        d,
        &modes,
        P,
        &BnbConfig {
            node_budget: 40,
            ..Default::default()
        },
    )
    .expect("warm budget trip must carry the incumbent");
    assert!(!anytime.complete);
    assert!(anytime.gap() >= 0.0);
    let round_up = discrete::round_up_prepared(&prep, d, &modes, P, None).expect("round-up");
    let e_round_up = continuous::energy_of_speeds(&g, &round_up, P);
    assert!(
        anytime.energy <= e_round_up * (1.0 + 1e-12),
        "anytime incumbent {} must not exceed its round-up seed {e_round_up}",
        anytime.energy
    );
    assert!(anytime.energy >= full.energy * (1.0 - 1e-12));

    // Cold and starved below the first leaf: the structured error.
    let starved = discrete::exact(
        &prep,
        d,
        &modes,
        P,
        &BnbConfig {
            node_budget: 3,
            warm_start: false,
            ..Default::default()
        },
    );
    assert!(
        matches!(starved, Err(SolveError::BudgetExhausted { budget: 3, .. })),
        "got {starved:?}"
    );
}
