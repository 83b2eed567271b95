//! Criterion benches for the substrate crates: SP recognition and
//! graph analysis.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::SeedableRng;
use taskgraph::{analysis, generators, SpTree};

fn bench_sp_recognition(c: &mut Criterion) {
    let mut g = c.benchmark_group("taskgraph-sp-recognition");
    g.sample_size(10);
    let mut rng = StdRng::seed_from_u64(3);
    for n in [20usize, 60, 150] {
        let (sp, _) = generators::random_sp(n, 0.55, 1.0, 4.0, &mut rng);
        g.bench_with_input(BenchmarkId::new("recognize", n), &n, |b, _| {
            b.iter(|| SpTree::from_graph(&sp).unwrap())
        });
    }
    g.finish();
}

fn bench_graph_analysis(c: &mut Criterion) {
    let mut g = c.benchmark_group("taskgraph-analysis");
    g.sample_size(20);
    let mut rng = StdRng::seed_from_u64(4);
    let big = generators::layered_dag(40, 50, 0.1, 1.0, 5.0, &mut rng);
    g.bench_function("topo-n2000", |b| b.iter(|| analysis::topo_order(&big)));
    g.bench_function("critical-path-n2000", |b| {
        b.iter(|| analysis::critical_path_weight(&big))
    });
    g.bench_function("reachability-n2000", |b| {
        b.iter(|| analysis::reachability(&big))
    });
    g.finish();
}

criterion_group!(benches, bench_sp_recognition, bench_graph_analysis);
criterion_main!(benches);
