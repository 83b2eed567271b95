//! Property tests for the Vdd-Hopping min-cost flow: its schedules are
//! feasible and no worse than any feasible schedule we can construct,
//! and its optimum scales with the instance.

use models::{DiscreteModes, EnergyModel, PowerLaw};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::vdd;
use taskgraph::{generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

/// A sorted ladder of distinct modes from raw draws.
fn ladder(raw: &[f64]) -> DiscreteModes {
    let mut v: Vec<f64> = raw.iter().map(|s| (s * 100.0).round() / 100.0).collect();
    v.sort_by(f64::total_cmp);
    v.dedup();
    DiscreteModes::new(&v).unwrap()
}

fn energy(g: &TaskGraph, d: f64, modes: &DiscreteModes) -> f64 {
    vdd::solve_lp_prepared(&PreparedGraph::new(g), d, modes, P)
        .unwrap()
        .energy(g, P)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The flow's schedule is feasible, its energy is the exact curve's
    /// value at its deadline (priced from the augmentation record, not
    /// from the schedule), and no feasible schedule we can build — the
    /// adjacent-mode mix of the continuous optimum — beats it.
    #[test]
    fn flow_beats_witness_and_is_feasible(
        seed in any::<u64>(),
        n in 1usize..40,
        raw in prop::collection::vec(0.3f64..3.0, 1..6),
        slack in 1.0f64..2.5,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (g, _) = generators::random_sp(n, 0.55, 1.0, 5.0, &mut rng);
        let modes = ladder(&raw);
        let prep = PreparedGraph::new(&g);
        let d_min = prep.critical_path_weight() / modes.s_max();
        let d = slack * d_min;
        let (sched, mut warm) = vdd::solve_lp_warm(&prep, d, &modes, P).unwrap();
        prop_assert!(sched.validate(&g, &EnergyModel::VddHopping(modes.clone()), d).is_ok());
        let e = sched.energy(&g, P);
        let curve = warm.deadline_ray(&prep, d_min, d).unwrap();
        let priced = curve.last().unwrap().energy_at(d);
        prop_assert!((e - priced).abs() <= 1e-9 * e, "schedule {e} vs curve {priced}");
        let witness = vdd::adjacent_mix(&g, d, &modes, P).unwrap().energy(&g, P);
        prop_assert!(e <= witness * (1.0 + 1e-9), "flow {e} worse than witness {witness}");
    }

    /// Scaling every weight and the deadline by `c` scales every
    /// duration by `c` at unchanged speeds, so the optimum scales by
    /// `c`: sanity for the flow's length and capacity bookkeeping.
    #[test]
    fn objective_scaling(
        seed in any::<u64>(),
        layers in 1usize..8,
        raw in prop::collection::vec(0.3f64..3.0, 1..6),
        slack in 1.0f64..2.5,
        c in 0.25f64..4.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::layered_dag(layers, 4, 0.4, 1.0, 5.0, &mut rng);
        let modes = ladder(&raw);
        let d = slack * PreparedGraph::new(&g).critical_path_weight() / modes.s_max();
        let edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        let scaled = TaskGraph::new(g.weights().iter().map(|w| c * w).collect(), &edges).unwrap();
        let (e, e_scaled) = (energy(&g, d, &modes), energy(&scaled, c * d, &modes));
        prop_assert!(
            (e_scaled - c * e).abs() <= 1e-9 * c * e,
            "scaled by {c}: {e_scaled} vs {}", c * e
        );
    }
}
