//! Dispatch coverage for `reclaim_core::solve`: one case per
//! `EnergyModel` variant × graph shape (fork, tree, series–parallel,
//! general DAG), verifying the solver routing documented in
//! `crates/core/src/lib.rs`:
//!
//! * Continuous → Theorem 1/2 closed forms on recognized shapes, the
//!   §2.1 geometric program on general DAGs (checked by comparing the
//!   dispatched energy against the shape solver invoked directly);
//! * Vdd-Hopping → the Theorem 3 LP on every shape;
//! * Discrete → exact branch-and-bound within the tractable limit,
//!   Proposition 1(b) rounding beyond it;
//! * Incremental → the Theorem 5 approximation by default, exact
//!   branch-and-bound on request.

use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim::core::{continuous, solve, solve_with, SolveOptions};
use reclaim::models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw};
use reclaim::taskgraph::{analysis, generators, structure, PreparedGraph, SpTree, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

/// The four shapes the dispatch table distinguishes, with a deadline
/// loose enough to be feasible for every model below (top speed 2.0).
fn shapes() -> Vec<(&'static str, TaskGraph, f64)> {
    let fork = generators::fork(1.0, &[2.0, 1.0, 3.0]);
    let mut rng = StdRng::seed_from_u64(7);
    let tree = generators::random_out_tree(6, 0.5, 2.0, &mut rng);
    // fork-join = proper series–parallel (not a fork, not a tree).
    let sp = generators::fork_join(1.0, &[2.0, 3.0, 1.0], 1.5);
    // Interleaved precedence: the canonical non-SP pattern.
    let general = TaskGraph::new(
        vec![1.0, 2.0, 1.5, 1.0],
        &[(0, 1), (1, 2), (2, 3), (0, 2), (1, 3)],
    )
    .unwrap();
    [
        ("fork", fork),
        ("tree", tree),
        ("series-parallel", sp),
        ("general", general),
    ]
    .into_iter()
    .map(|(name, g)| {
        // Twice the minimum makespan at the top speed (2.0) of every
        // mode set used below.
        let d = 2.0 * analysis::critical_path_weight(&g) / 2.0;
        (name, g, d)
    })
    .collect()
}

#[test]
fn shape_fixtures_classify_as_intended() {
    let classes: Vec<structure::Shape> = shapes()
        .iter()
        .map(|(_, g, _)| structure::classify(g))
        .collect();
    assert_eq!(classes[0], structure::Shape::Fork);
    assert_eq!(classes[1], structure::Shape::OutTree);
    assert_eq!(classes[2], structure::Shape::SeriesParallel);
    assert_eq!(classes[3], structure::Shape::General);
}

/// Continuous: the unified dispatcher must agree with the
/// shape-specific closed form (or the geometric program) invoked
/// directly — evidence it routed to the documented solver.
#[test]
fn continuous_routes_to_shape_solvers() {
    for (name, g, d) in shapes() {
        let sol = solve(&g, d, &EnergyModel::continuous_unbounded(), P)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sol.algorithm, "continuous", "{name}");

        let direct = match name {
            "fork" => continuous::solve_fork(&g, d, None, P).unwrap(),
            "tree" => continuous::solve_tree(&g, d, P).unwrap(),
            "series-parallel" => {
                let tree = SpTree::from_graph(&g).expect("SP fixture");
                continuous::solve_sp(&g, &tree, d, P).unwrap()
            }
            _ => continuous::solve_general_warm(
                &PreparedGraph::new(&g),
                d,
                None,
                None,
                P,
                None,
                &mut continuous::SweepWarm::new(),
            )
            .unwrap(),
        };
        let e_direct = continuous::energy_of_speeds(&g, &direct, P);
        let tol = if name == "general" { 1e-4 } else { 1e-9 };
        assert!(
            (sol.energy - e_direct).abs() <= tol * e_direct.max(1.0),
            "{name}: dispatched {} vs direct {e_direct}",
            sol.energy
        );
    }
}

#[test]
fn vdd_routes_to_lp_on_every_shape() {
    let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
    for (name, g, d) in shapes() {
        let sol = solve(&g, d, &EnergyModel::VddHopping(modes.clone()), P)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sol.algorithm, "vdd-lp", "{name}");
        assert!(sol.schedule.makespan(&g) <= d * (1.0 + 1e-6), "{name}");
    }
}

#[test]
fn discrete_routes_to_bnb_then_rounding() {
    let modes = DiscreteModes::new(&[0.5, 1.0, 2.0]).unwrap();
    for (name, g, d) in shapes() {
        // Small fixtures are within the default exact limit.
        let sol = solve(&g, d, &EnergyModel::Discrete(modes.clone()), P)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sol.algorithm, "discrete-bnb", "{name}");

        // Forcing the limit below n routes to Proposition 1(b).
        let opts = SolveOptions {
            exact_discrete_limit: 0,
            ..Default::default()
        };
        let rounded = solve_with(&g, d, &EnergyModel::Discrete(modes.clone()), P, opts)
            .unwrap_or_else(|e| panic!("{name} (rounding): {e}"));
        assert_eq!(rounded.algorithm, "discrete-round-up", "{name}");
        // The approximation can never beat the exact optimum.
        assert!(
            rounded.energy >= sol.energy * (1.0 - 1e-9),
            "{name}: rounded {} < exact {}",
            rounded.energy,
            sol.energy
        );
    }
}

#[test]
fn incremental_routes_to_approx_then_exact() {
    let modes = IncrementalModes::new(0.5, 2.0, 0.25).unwrap();
    for (name, g, d) in shapes() {
        let sol = solve(&g, d, &EnergyModel::Incremental(modes.clone()), P)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert_eq!(sol.algorithm, "incremental-approx", "{name}");

        let opts = SolveOptions {
            exact_incremental: true,
            ..Default::default()
        };
        let exact = solve_with(&g, d, &EnergyModel::Incremental(modes.clone()), P, opts)
            .unwrap_or_else(|e| panic!("{name} (exact): {e}"));
        assert_eq!(exact.algorithm, "incremental-bnb", "{name}");
        assert!(
            exact.energy <= sol.energy * (1.0 + 1e-9),
            "{name}: exact {} > approx {}",
            exact.energy,
            sol.energy
        );
    }
}
