//! Criterion benches for the Vdd-Hopping solver (Theorem 3: polynomial
//! time — measured here as min-cost-flow wall-clock vs instance size
//! and mode count) and the adjacent-mix heuristic.

use bench::instances::{dmin, random_execution_graph, spread_modes};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use models::PowerLaw;
use reclaim_core::vdd;
use taskgraph::PreparedGraph;

const P: PowerLaw = PowerLaw::CUBIC;

fn bench_lp_scaling(c: &mut Criterion) {
    let mut g = c.benchmark_group("vdd-lp");
    g.sample_size(10);
    for (layers, width) in [(3usize, 3usize), (4, 4), (6, 5)] {
        let eg = random_execution_graph(layers, width, 2, 7);
        for m in [2usize, 5, 8] {
            let modes = spread_modes(m, 0.5, 3.0);
            let d = 1.5 * dmin(&eg, modes.s_max());
            g.bench_with_input(BenchmarkId::new(format!("n{}", eg.n()), m), &m, |b, _| {
                b.iter(|| vdd::solve_lp_prepared(&PreparedGraph::new(&eg), d, &modes, P).unwrap())
            });
        }
    }
    g.finish();
}

fn bench_adjacent_mix(c: &mut Criterion) {
    let mut g = c.benchmark_group("vdd-adjacent-mix");
    g.sample_size(10);
    let eg = random_execution_graph(4, 4, 2, 7);
    let modes = spread_modes(5, 0.5, 3.0);
    let d = 1.5 * dmin(&eg, modes.s_max());
    g.bench_function("heuristic-n16", |b| {
        b.iter(|| vdd::adjacent_mix(&eg, d, &modes, P).unwrap())
    });
    g.finish();
}

criterion_group!(benches, bench_lp_scaling, bench_adjacent_mix);
criterion_main!(benches);
