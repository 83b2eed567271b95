//! Exact-curve bench: `Engine::energy_curve_exact` (the min-cost
//! flow's augmentation record) against the sampled
//! `Engine::energy_curve`, on a 200-task series–parallel Vdd-Hopping
//! instance.
//!
//! The sampled sweep pays one cold solve plus a warm re-solve of the
//! flow (and schedule extraction + validation) per point; the exact
//! curve pays one cold solve down to the range's low end and reads
//! every breakpoint off its augmentation record.
//! Bench X9 (`experiments x9`) enforces the ≥ 8× acceptance bar; this
//! harness tracks the same comparison under criterion for regressions,
//! and the Discrete arm exercises the adaptively-sampled fallback with
//! its barrier warm-start chain.

use criterion::{criterion_group, criterion_main, Criterion};
use models::{DiscreteModes, EnergyModel, PowerLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::Engine;
use taskgraph::{generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;
const POINTS: usize = 64;
const LO: f64 = 1.05;
const HI: f64 = 1.6;

fn sp_graph(n: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(4242);
    generators::random_sp(n, 0.55, 1.0, 5.0, &mut rng).0
}

fn bench_curve(c: &mut Criterion) {
    let g = sp_graph(200);
    let engine = Engine::new(P).threads(1);
    let modes = DiscreteModes::new(&[0.6, 1.2, 1.8, 2.4]).unwrap();
    let vdd = EnergyModel::VddHopping(modes.clone());

    let mut group = c.benchmark_group("curve_200_sp");
    group.sample_size(10);
    group.bench_function("sampled_64pts/vdd", |b| {
        let prep = PreparedGraph::new(&g);
        b.iter(|| engine.energy_curve(&prep, &vdd, POINTS, LO, HI).unwrap())
    });
    group.bench_function("exact_walk/vdd", |b| {
        let prep = PreparedGraph::new(&g);
        // Steady state: warm basis retained from a previous solve.
        let mut warm = None;
        let d0 = LO * prep.critical_path_weight() / modes.s_max();
        engine.solve_warm(&prep, &vdd, d0, &mut warm).unwrap();
        b.iter(|| {
            engine
                .energy_curve_exact_warm(&prep, &vdd, LO, HI, &mut warm)
                .unwrap()
        })
    });
    // The adaptive fallback (Discrete round-up + barrier warm chain)
    // on a smaller instance — barrier solves dominate, so keep n low.
    let gd = sp_graph(48);
    let discrete = EnergyModel::Discrete(modes);
    group.bench_function("exact_adaptive/discrete_48", |b| {
        let prep = PreparedGraph::new(&gd);
        b.iter(|| engine.energy_curve_exact(&prep, &discrete, LO, HI).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_curve);
criterion_main!(benches);
