//! Property-based tests (proptest) on the paper's invariants.

use proptest::prelude::*;
use reclaim::core::discrete::BnbConfig;
use reclaim::core::{continuous, discrete, vdd};
use reclaim::models::{DiscreteModes, PowerLaw};
use reclaim::taskgraph::{analysis, generators, PreparedGraph, SpTree, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

/// Strategy: a vector of 1–8 positive weights in [0.1, 10].
fn weights() -> impl Strategy<Value = Vec<f64>> {
    prop::collection::vec(0.1f64..10.0, 1..8)
}

/// Strategy: a random DAG given an ordered edge mask.
fn random_dag() -> impl Strategy<Value = TaskGraph> {
    (2usize..8, any::<u64>()).prop_map(|(n, seed)| {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        generators::random_dag(n, 0.4, 0.5, 5.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Theorem 1's formula: every fork instance satisfies the closed
    /// form's stationarity — children all complete exactly at D.
    #[test]
    fn fork_children_complete_at_deadline(ws in weights(), w0 in 0.1f64..5.0) {
        prop_assume!(ws.len() >= 2);
        let g = generators::fork(w0, &ws);
        let d = 3.0;
        let speeds = continuous::solve_fork(&g, d, None, P).unwrap();
        let d0 = w0 / speeds[0];
        for (i, &w) in ws.iter().enumerate() {
            let completion = d0 + w / speeds[i + 1];
            prop_assert!((completion - d).abs() < 1e-6 * d);
        }
    }

    /// Chains: the optimal speed is constant and equals Σw/D.
    #[test]
    fn chain_constant_speed_property(ws in weights(), d in 0.5f64..20.0) {
        let g = generators::chain(&ws);
        let speeds = continuous::solve_chain(&g, d, None).unwrap();
        let expect = ws.iter().sum::<f64>() / d;
        for s in speeds {
            prop_assert!((s - expect).abs() < 1e-9 * expect.max(1.0));
        }
    }

    /// SP composition: optimal energy equals W_eq³/D² and the ASAP
    /// schedule meets the deadline exactly on some path.
    #[test]
    fn sp_energy_matches_equivalent_weight(seed in any::<u64>(), n in 2usize..12) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, tree) = generators::random_sp(n, 0.5, 0.5, 4.0, &mut rng);
        let d = 5.0;
        let speeds = continuous::solve_sp(&g, &tree, d, P).unwrap();
        let e = continuous::energy_of_speeds(&g, &speeds, P);
        let w_eq = continuous::equivalent_weight(&tree, &g, P);
        prop_assert!((e - w_eq.powi(3) / (d * d)).abs() < 1e-6 * e);
        // Feasibility.
        let durations: Vec<f64> = g.weights().iter().zip(&speeds).map(|(&w, &s)| w / s).collect();
        prop_assert!(analysis::makespan(&g, &durations) <= d * (1.0 + 1e-9));
    }

    /// The continuous optimum on any DAG is lower-bounded by the
    /// independent-tasks relaxation and upper-bounded by the
    /// uniform critical-path heuristic.
    #[test]
    fn general_solver_is_bracketed(g in random_dag()) {
        let cp = analysis::critical_path_weight(&g);
        let d = cp * 1.5;
        let prep = PreparedGraph::new(&g);
        let mut cold = continuous::SweepWarm::new();
        let speeds =
            continuous::solve_general_warm(&prep, d, None, None, P, None, &mut cold).unwrap();
        let e = continuous::energy_of_speeds(&g, &speeds, P);
        // Lower bound: each task alone in the whole window.
        let lb: f64 = g.weights().iter().map(|&w| P.energy_for_work(w, d)).sum();
        // Upper bound: every task at the uniform speed cp/D (feasible:
        // makespan = cp/(cp/D) = D).
        let s_uniform = cp / d;
        let ub: f64 = g.weights().iter().map(|&w| P.energy_at_speed(w, s_uniform)).sum();
        prop_assert!(e >= lb * (1.0 - 1e-6), "{e} < lb {lb}");
        prop_assert!(e <= ub * (1.0 + 1e-4), "{e} > ub {ub}");
        // Feasibility.
        let durations: Vec<f64> = g.weights().iter().zip(&speeds).map(|(&w, &s)| w / s).collect();
        prop_assert!(analysis::makespan(&g, &durations) <= d * (1.0 + 1e-6));
    }

    /// Vdd-Hopping never beats Continuous and never loses to the
    /// best single-mode-per-task (Discrete) assignment.
    #[test]
    fn vdd_sandwich(g in random_dag(), seed in any::<u64>()) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(2usize..5);
        let speeds: Vec<f64> = (0..m).map(|i| 0.5 + i as f64 * rng.gen_range(0.3..1.0)).collect();
        let modes = DiscreteModes::new(&speeds).unwrap();
        let d = 1.4 * analysis::critical_path_weight(&g) / modes.s_max();
        let prep = PreparedGraph::new(&g);
        let sched = vdd::solve_lp_prepared(&prep, d, &modes, P).unwrap();
        let e_vdd = sched.energy(&g, P);
        let cont = continuous::solve_dispatched(&prep, d, Some(modes.s_max()), P, None).unwrap();
        let e_cont = continuous::energy_of_speeds(&g, &cont, P);
        prop_assert!(e_vdd >= e_cont * (1.0 - 1e-5), "vdd {e_vdd} < cont {e_cont}");
        if g.n() <= 6 {
            let e_disc = discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
                .unwrap()
                .energy;
            prop_assert!(e_vdd <= e_disc * (1.0 + 1e-6), "vdd {e_vdd} > disc {e_disc}");
        }
    }

    /// Proposition 1(b) bound holds on random instances.
    #[test]
    fn rounding_respects_prop1b(g in random_dag(), seed in any::<u64>()) {
        prop_assume!(g.n() <= 6);
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        use rand::Rng;
        let mut speeds = vec![0.6, 3.0];
        for _ in 0..2 {
            speeds.push(rng.gen_range(0.6f64..3.0));
        }
        let modes = DiscreteModes::new(&speeds).unwrap();
        let d = 1.5 * analysis::critical_path_weight(&g) / modes.s_max();
        let k = 10u32;
        let prep = PreparedGraph::new(&g);
        let alg = discrete::round_up_prepared(&prep, d, &modes, P, Some(k)).unwrap();
        let e_alg = continuous::energy_of_speeds(&g, &alg, P);
        let opt = discrete::exact(&prep, d, &modes, P, &BnbConfig::default())
            .unwrap()
            .energy;
        let bound = (1.0 + modes.max_gap() / modes.s_min()).powi(2)
            * (1.0 + 1.0 / k as f64).powi(2);
        prop_assert!(e_alg <= opt * bound * (1.0 + 1e-6),
            "ratio {} > bound {bound}", e_alg / opt);
    }

    /// SP recognition round-trip: generated SP graphs are recognized,
    /// and the recognized decomposition yields the same optimal energy.
    #[test]
    fn sp_recognition_roundtrip(seed in any::<u64>(), n in 1usize..15) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, tree) = generators::random_sp(n, 0.5, 0.5, 4.0, &mut rng);
        let rec = SpTree::from_graph(&g);
        prop_assert!(rec.is_some(), "generated SP graph not recognized");
        let d = 4.0;
        let e1 = continuous::energy_of_speeds(
            &g, &continuous::solve_sp(&g, &tree, d, P).unwrap(), P);
        let e2 = continuous::energy_of_speeds(
            &g, &continuous::solve_sp(&g, &rec.unwrap(), d, P).unwrap(), P);
        prop_assert!((e1 - e2).abs() <= 1e-9 * e1.max(1.0),
            "different decompositions disagree: {e1} vs {e2}");
    }

    /// Reversal invariance: MinEnergy is symmetric under time reversal.
    #[test]
    fn reversal_invariance(g in random_dag()) {
        let d = 1.5 * analysis::critical_path_weight(&g);
        let gp = |g: &TaskGraph| {
            let prep = PreparedGraph::new(g);
            let mut cold = continuous::SweepWarm::new();
            continuous::solve_general_warm(&prep, d, None, None, P, None, &mut cold).unwrap()
        };
        let e_fwd = continuous::energy_of_speeds(&g, &gp(&g), P);
        let rev = g.reversed();
        let e_rev = continuous::energy_of_speeds(&rev, &gp(&rev), P);
        prop_assert!((e_fwd - e_rev).abs() <= 1e-4 * e_fwd.max(1.0),
            "{e_fwd} vs {e_rev}");
    }
}
