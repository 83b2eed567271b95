//! Edge cases across all solvers: degenerate sizes, boundary
//! deadlines, single-mode sets, and exact-boundary saturation.

use models::{DiscreteModes, EnergyModel, IncrementalModes, PowerLaw};
use reclaim_core::discrete::BnbConfig;
use reclaim_core::{continuous, discrete, incremental, solve, vdd};
use taskgraph::{generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

#[test]
fn single_task_all_models() {
    let g = TaskGraph::single(4.0);
    let modes = DiscreteModes::new(&[1.0, 2.0, 4.0]).unwrap();
    let inc = IncrementalModes::new(1.0, 4.0, 1.0).unwrap();
    let d = 2.5;
    // Continuous: run exactly for the deadline.
    let s = continuous::solve_dispatched(&PreparedGraph::new(&g), d, None, P, None).unwrap();
    assert!((s[0] - 4.0 / 2.5).abs() < 1e-12);
    // Discrete: slowest mode ≥ 1.6 → 2.0.
    assert_eq!(
        discrete::exact(&PreparedGraph::new(&g), d, &modes, P, &BnbConfig::default())
            .unwrap()
            .speeds,
        vec![2.0]
    );
    // Vdd: mix modes 1 and 2 to average 1.6.
    let sched = vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P).unwrap();
    let e = sched.energy(&g, P);
    // x + 2y = 4, x + y = 2.5 → y = 1.5, x = 1: E = 1 + 8·1.5 = 13.
    assert!((e - 13.0).abs() < 1e-6, "{e}");
    // Incremental approximation at K = 1 is still feasible.
    let si = incremental::approx_prepared(&PreparedGraph::new(&g), d, &inc, P, 1).unwrap();
    assert!(si[0] >= 1.6 - 1e-9);
}

#[test]
fn deadline_exactly_at_dmin() {
    // D = cp/s_max exactly: everything must run at top speed.
    let g = generators::diamond([1.0, 2.0, 3.0, 1.0]);
    let sm = 2.0;
    let d = taskgraph::analysis::critical_path_weight(&g) / sm;
    let modes = DiscreteModes::new(&[1.0, sm]).unwrap();
    let sol =
        discrete::exact(&PreparedGraph::new(&g), d, &modes, P, &BnbConfig::default()).unwrap();
    // Critical tasks (0, 2, 3) at s_max; the slack task may be slower.
    assert_eq!(sol.speeds[0], sm);
    assert_eq!(sol.speeds[2], sm);
    assert_eq!(sol.speeds[3], sm);
    // Continuous at the exact boundary with s_max.
    let sc = continuous::solve_dispatched(&PreparedGraph::new(&g), d, Some(sm), P, None);
    assert!(sc.is_ok(), "boundary deadline must be feasible: {sc:?}");
    // Just below is infeasible.
    assert!(
        continuous::solve_dispatched(&PreparedGraph::new(&g), d * 0.999, Some(sm), P, None)
            .is_err()
    );
}

#[test]
fn equal_weight_fork_symmetry() {
    // n identical children must all get the same speed, and the
    // source speed follows Theorem 1 with (n·w³)^{1/3}.
    let n = 5;
    let g = generators::fork(2.0, &vec![3.0; n]);
    let d = 4.0;
    let s = continuous::solve_fork(&g, d, None, P).unwrap();
    for i in 2..=n {
        assert!((s[i] - s[1]).abs() < 1e-12);
    }
    let comb = (n as f64).cbrt() * 3.0;
    assert!((s[0] - (comb + 2.0) / d).abs() < 1e-12);
}

#[test]
fn vdd_single_mode_set() {
    // m = 1: no mixing possible; the LP degenerates to fixed speeds.
    let g = generators::chain(&[2.0, 2.0]);
    let modes = DiscreteModes::new(&[2.0]).unwrap();
    let sched = vdd::solve_lp_prepared(&PreparedGraph::new(&g), 2.0, &modes, P).unwrap();
    let e = sched.energy(&g, P);
    assert!((e - 16.0).abs() < 1e-6); // 4·4 work at s=2
    assert!(vdd::solve_lp_prepared(&PreparedGraph::new(&g), 1.9, &modes, P).is_err());
}

#[test]
fn incremental_degenerate_grid() {
    // δ larger than the range → a single mode.
    let inc = IncrementalModes::new(1.0, 1.5, 2.0).unwrap();
    assert_eq!(inc.m(), 1);
    let g = generators::chain(&[2.0]);
    let speeds = incremental::approx_prepared(&PreparedGraph::new(&g), 3.0, &inc, P, 10).unwrap();
    assert_eq!(speeds, vec![1.0]);
    assert!(incremental::approx_prepared(&PreparedGraph::new(&g), 1.0, &inc, P, 10).is_err());
}

#[test]
fn fork_smax_exactly_at_unconstrained_optimum() {
    // s_max equal to the unconstrained s0: the unsaturated branch
    // applies and the speeds respect the cap exactly.
    let g = generators::fork(1.0, &[1.0, 2.0]);
    let d = 2.0;
    let s0 = (9.0f64.cbrt() + 1.0) / d;
    let s = continuous::solve_fork(&g, d, Some(s0), P).unwrap();
    assert!((s[0] - s0).abs() < 1e-9);
}

#[test]
fn chain_dp_boundary_resolution() {
    // Resolution 1: a single time slot — only all-at-one-mode-or-
    // faster fits.
    let g = generators::chain(&[2.0]);
    let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
    let (speeds, _) = discrete::chain_dp(&g, 2.0, &modes, P, 1).unwrap();
    assert_eq!(speeds, vec![1.0]);
    // With two tasks and one slot, nothing fits (each task needs ≥ 1
    // slot).
    let g2 = generators::chain(&[2.0, 2.0]);
    assert!(discrete::chain_dp(&g2, 2.0, &modes, P, 1).is_err());
}

#[test]
fn solver_reports_algorithm_names() {
    let g = generators::chain(&[1.0, 1.0]);
    let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
    let cases: Vec<(EnergyModel, &str)> = vec![
        (EnergyModel::continuous_unbounded(), "continuous"),
        (EnergyModel::VddHopping(modes.clone()), "vdd-lp"),
        (EnergyModel::Discrete(modes), "discrete-bnb"),
        (
            EnergyModel::Incremental(IncrementalModes::new(1.0, 2.0, 0.5).unwrap()),
            "incremental-approx",
        ),
    ];
    for (model, expect) in cases {
        let sol = solve(&g, 3.0, &model, P).unwrap();
        assert_eq!(sol.algorithm, expect);
    }
}

#[test]
fn zero_and_negative_deadlines_rejected_everywhere() {
    let g = generators::chain(&[1.0]);
    let modes = DiscreteModes::new(&[1.0]).unwrap();
    for d in [0.0, -1.0] {
        assert!(continuous::solve_dispatched(&PreparedGraph::new(&g), d, None, P, None).is_err());
        assert!(vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P).is_err());
        assert!(
            discrete::exact(&PreparedGraph::new(&g), d, &modes, P, &BnbConfig::default()).is_err()
        );
    }
}

#[test]
fn very_loose_deadline_numerics_hold() {
    // D = 10⁶ × dmin: speeds get tiny; the barrier must stay stable.
    let g = generators::diamond([1.0, 2.0, 3.0, 1.0]);
    let d = 1e6;
    let s = continuous::solve_general_warm(
        &PreparedGraph::new(&g),
        d,
        None,
        None,
        P,
        None,
        &mut continuous::SweepWarm::new(),
    )
    .unwrap();
    let e = continuous::energy_of_speeds(&g, &s, P);
    // Scaling law from a reference deadline.
    let e_ref = continuous::energy_of_speeds(
        &g,
        &continuous::solve_general_warm(
            &PreparedGraph::new(&g),
            10.0,
            None,
            None,
            P,
            None,
            &mut continuous::SweepWarm::new(),
        )
        .unwrap(),
        P,
    );
    let expect = e_ref * (10.0 / d) * (10.0 / d);
    assert!(
        (e - expect).abs() <= 1e-3 * expect,
        "scaling law violated at extreme deadlines: {e} vs {expect}"
    );
}

#[test]
fn two_parallel_components_solve_independently() {
    // Disconnected execution graph (two independent chains): the
    // optimum treats them separately; energy adds up.
    let g = TaskGraph::new(vec![2.0, 3.0], &[]).unwrap();
    let d = 2.0;
    let s = continuous::solve_dispatched(&PreparedGraph::new(&g), d, None, P, None).unwrap();
    let e = continuous::energy_of_speeds(&g, &s, P);
    let expect = P.energy_for_work(2.0, d) + P.energy_for_work(3.0, d);
    assert!((e - expect).abs() < 1e-9 * expect);
}
