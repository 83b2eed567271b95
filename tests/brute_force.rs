//! Cross-validation against brute force on tiny instances: the
//! branch-and-bound must agree *exactly* with full enumeration, and
//! the Vdd LP must lower-bound it.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim::core::discrete::BnbConfig;
use reclaim::core::{continuous, discrete, vdd};
use reclaim::models::{DiscreteModes, PowerLaw};
use reclaim::taskgraph::{analysis, generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;

/// Enumerate every mode assignment; return the minimum feasible
/// energy (None if no assignment meets the deadline).
fn brute_force(g: &TaskGraph, d: f64, modes: &DiscreteModes) -> Option<f64> {
    let n = g.n();
    let m = modes.m();
    let total = m.pow(n as u32);
    let mut best: Option<f64> = None;
    for code in 0..total {
        let mut c = code;
        let mut speeds = Vec::with_capacity(n);
        for _ in 0..n {
            speeds.push(modes.speeds()[c % m]);
            c /= m;
        }
        let durations: Vec<f64> = g
            .weights()
            .iter()
            .zip(&speeds)
            .map(|(&w, &s)| w / s)
            .collect();
        if analysis::makespan(g, &durations) <= d * (1.0 + 1e-12) {
            let e = continuous::energy_of_speeds(g, &speeds, P);
            best = Some(best.map_or(e, |b: f64| b.min(e)));
        }
    }
    best
}

fn tiny_instance() -> impl Strategy<Value = (TaskGraph, DiscreteModes, f64)> {
    (2usize..6, any::<u64>(), 2usize..4, 1.05f64..2.5).prop_map(|(n, seed, m, tight)| {
        let mut rng = StdRng::seed_from_u64(seed);
        let g = generators::random_dag(n, 0.4, 0.5, 4.0, &mut rng);
        use rand::Rng;
        let mut speeds = vec![0.5, 2.5];
        for _ in 0..m.saturating_sub(2) {
            speeds.push(rng.gen_range(0.5f64..2.5));
        }
        let modes = DiscreteModes::new(&speeds).unwrap();
        let d = tight * analysis::critical_path_weight(&g) / modes.s_max();
        (g, modes, d)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bnb_matches_brute_force((g, modes, d) in tiny_instance()) {
        let brute = brute_force(&g, d, &modes);
        let bnb = discrete::exact(&PreparedGraph::new(&g), d, &modes, P, &BnbConfig::default());
        match (brute, bnb) {
            (Some(b), Ok(sol)) => {
                prop_assert!((sol.energy - b).abs() <= 1e-9 * b.max(1.0),
                    "bnb {} vs brute {}", sol.energy, b);
            }
            (None, Err(_)) => {}
            (b, r) => prop_assert!(false, "disagree: brute {b:?}, bnb {:?}",
                r.map(|s| s.energy)),
        }
    }

    #[test]
    fn vdd_lp_lower_bounds_brute_force((g, modes, d) in tiny_instance()) {
        if let Some(brute) = brute_force(&g, d, &modes) {
            let sched = vdd::solve_lp_prepared(&PreparedGraph::new(&g), d, &modes, P).unwrap();
            let e_vdd = sched.energy(&g, P);
            prop_assert!(e_vdd <= brute * (1.0 + 1e-6),
                "vdd {e_vdd} must not exceed the discrete optimum {brute}");
        }
    }

    #[test]
    fn greedy_and_roundup_feasible_and_above_brute((g, modes, d) in tiny_instance()) {
        if let Some(brute) = brute_force(&g, d, &modes) {
            if let Ok(sp) = discrete::greedy_slowdown(&g, d, &modes, P) {
                let e = continuous::energy_of_speeds(&g, &sp, P);
                prop_assert!(e >= brute * (1.0 - 1e-9));
            }
            let prep = PreparedGraph::new(&g);
            if let Ok(sp) = discrete::round_up_prepared(&prep, d, &modes, P, None) {
                let e = continuous::energy_of_speeds(&g, &sp, P);
                prop_assert!(e >= brute * (1.0 - 1e-9));
            }
        }
    }
}
