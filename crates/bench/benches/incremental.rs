//! Criterion benches for the Theorem 5 approximation: polynomial in
//! the instance and in `K` (runtime grows only logarithmically with
//! the requested precision, thanks to the barrier path-following).

use bench::instances::{dmin, random_execution_graph};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use models::{IncrementalModes, PowerLaw};
use reclaim_core::discrete::{self, BnbConfig};
use reclaim_core::incremental;
use taskgraph::PreparedGraph;

const P: PowerLaw = PowerLaw::CUBIC;

fn bench_approx_vs_k(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental-approx-K");
    g.sample_size(10);
    let eg = random_execution_graph(4, 3, 2, 21);
    let modes = IncrementalModes::new(0.5, 3.0, 0.1).unwrap();
    let d = 1.5 * dmin(&eg, modes.top_mode());
    for k in [1u32, 10, 100, 10_000] {
        g.bench_with_input(BenchmarkId::new("K", k), &k, |b, _| {
            b.iter(|| {
                incremental::approx_prepared(&PreparedGraph::new(&eg), d, &modes, P, k).unwrap()
            })
        });
    }
    g.finish();
}

fn bench_approx_vs_delta(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental-approx-delta");
    g.sample_size(10);
    let eg = random_execution_graph(4, 3, 2, 22);
    for delta in [0.5, 0.1, 0.02] {
        let modes = IncrementalModes::new(0.5, 3.0, delta).unwrap();
        let d = 1.5 * dmin(&eg, modes.top_mode());
        g.bench_with_input(
            BenchmarkId::new("delta", format!("{delta}")),
            &delta,
            |b, _| {
                b.iter(|| {
                    incremental::approx_prepared(&PreparedGraph::new(&eg), d, &modes, P, 100)
                        .unwrap()
                })
            },
        );
    }
    g.finish();
}

fn bench_exact_grid(c: &mut Criterion) {
    let mut g = c.benchmark_group("incremental-exact");
    g.sample_size(10);
    let eg = random_execution_graph(4, 3, 2, 23);
    let modes = IncrementalModes::new(0.5, 3.0, 0.5).unwrap();
    let d = 1.5 * dmin(&eg, modes.top_mode());
    let grid = modes.to_discrete();
    g.bench_function("bnb-grid-n12", |b| {
        b.iter(|| {
            let prep = PreparedGraph::new(&eg);
            discrete::exact(&prep, d, &grid, P, &BnbConfig::default()).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_approx_vs_k,
    bench_approx_vs_delta,
    bench_exact_grid
);
criterion_main!(benches);
