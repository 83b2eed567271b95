//! Criterion benches for the Continuous-model solvers (T1/T2 runtime
//! side: closed forms are near-free, the geometric program scales
//! polynomially).

use bench::instances::random_execution_graph;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use models::PowerLaw;
use rand::rngs::StdRng;
use rand::SeedableRng;
use reclaim_core::continuous;
use taskgraph::generators;

const P: PowerLaw = PowerLaw::CUBIC;

fn bench_closed_forms(c: &mut Criterion) {
    let mut g = c.benchmark_group("continuous-closed-form");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(1);
    for n in [16usize, 128, 1024] {
        let ws = generators::random_weights(n, 1.0, 5.0, &mut rng);
        let chain = generators::chain(&ws);
        g.bench_with_input(BenchmarkId::new("chain", n), &n, |b, _| {
            b.iter(|| continuous::solve_chain(&chain, ws.iter().sum::<f64>() / 2.0, None))
        });
        let fork = generators::fork(2.0, &ws);
        g.bench_with_input(BenchmarkId::new("fork-thm1", n), &n, |b, _| {
            b.iter(|| continuous::solve_fork(&fork, 6.0, None, P))
        });
        let tree = generators::random_out_tree(n, 1.0, 5.0, &mut rng);
        let d = taskgraph::analysis::critical_path_weight(&tree) * 0.8;
        g.bench_with_input(BenchmarkId::new("tree-thm2", n), &n, |b, _| {
            b.iter(|| continuous::solve_tree(&tree, d, P))
        });
    }
    g.finish();
}

fn bench_geometric_program(c: &mut Criterion) {
    let mut g = c.benchmark_group("continuous-geometric-program");
    g.sample_size(10);
    for (layers, width) in [(3usize, 3usize), (4, 4), (6, 6), (8, 8)] {
        let eg = random_execution_graph(layers, width, 3, 42);
        let d = taskgraph::analysis::critical_path_weight(&eg) * 0.8;
        g.bench_with_input(BenchmarkId::new("barrier", eg.n()), &eg.n(), |b, _| {
            b.iter(|| bench::experiments::gp_speeds(&eg, d, None, None, P))
        });
    }
    g.finish();
}

criterion_group!(benches, bench_closed_forms, bench_geometric_program);
criterion_main!(benches);
