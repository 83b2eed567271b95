//! Sweep amortization bench (the engine-refactor acceptance
//! criterion): `Engine::energy_curve` on a 200-task series–parallel
//! graph — 32 points, Continuous (unbounded) and Vdd-Hopping —
//! against 32 independent `solve()` calls.
//!
//! The engine must win by ≥ 2× in aggregate: the Continuous sweep
//! collapses to one solve via `E*(D) = E*(D₀)·(D₀/D)^{α−1}`, and the
//! Vdd sweep re-optimizes the previous point's min-cost flow instead
//! of augmenting from zero flow at every deadline.

use bench::deadline_grid;
use criterion::{criterion_group, criterion_main, Criterion};
use models::{DiscreteModes, EnergyModel, PowerLaw};
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::{solve, Engine};
use taskgraph::{generators, PreparedGraph, TaskGraph};

const P: PowerLaw = PowerLaw::CUBIC;
const POINTS: usize = 32;
const LO: f64 = 1.05;
const HI: f64 = 4.0;

fn sp_graph(n: usize) -> TaskGraph {
    let mut rng = StdRng::seed_from_u64(4242);
    generators::random_sp(n, 0.55, 1.0, 5.0, &mut rng).0
}

fn models() -> [(&'static str, EnergyModel); 2] {
    let modes = DiscreteModes::new(&[0.5, 1.125, 1.75, 2.375, 3.0]).unwrap();
    [
        ("continuous", EnergyModel::continuous_unbounded()),
        ("vdd", EnergyModel::VddHopping(modes)),
    ]
}

fn bench_sweep(c: &mut Criterion) {
    let g = sp_graph(200);
    let engine = Engine::new(P);
    let mut group = c.benchmark_group("sweep_200_sp_32pts");
    group.sample_size(10);
    for (name, model) in models() {
        let deadlines = deadline_grid(&g, &model, POINTS, LO, HI);
        group.bench_function(format!("naive_32_solves/{name}"), |b| {
            b.iter(|| {
                deadlines
                    .iter()
                    .map(|&d| solve(&g, d, &model, P).unwrap().energy)
                    .collect::<Vec<f64>>()
            })
        });
        group.bench_function(format!("engine_energy_curve/{name}"), |b| {
            b.iter(|| {
                let prep = PreparedGraph::new(&g);
                engine.energy_curve(&prep, &model, POINTS, LO, HI).unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_sweep);
criterion_main!(benches);
