//! Criterion benches for the Discrete exact solver (Theorem 4:
//! exponential growth on PARTITION chains) and the warm-start
//! ablation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use models::{DiscreteModes, PowerLaw};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use reclaim_core::discrete::{self, BnbConfig};
use taskgraph::{generators, PreparedGraph};

const P: PowerLaw = PowerLaw::CUBIC;

fn partition_instance(n: usize, seed: u64) -> (taskgraph::TaskGraph, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> = (0..n)
        .map(|_| (rng.gen_range(20..40) as f64) + 0.5)
        .collect();
    generators::partition_chain(&values)
}

fn bench_bnb_growth(c: &mut Criterion) {
    let mut g = c.benchmark_group("discrete-bnb-partition");
    g.sample_size(10);
    let modes = DiscreteModes::new(&[1.0, 2.0]).unwrap();
    for n in [8usize, 12, 16] {
        let (graph, d) = partition_instance(n, 5);
        for (label, warm_start) in [("cold", false), ("warm", true)] {
            let cfg = BnbConfig {
                node_budget: u64::MAX,
                warm_start,
                ..Default::default()
            };
            g.bench_with_input(BenchmarkId::new(label, n), &n, |b, _| {
                b.iter(|| discrete::exact(&PreparedGraph::new(&graph), d, &modes, P, &cfg).unwrap())
            });
        }
    }
    g.finish();
}

/// The search on a mapped execution graph where several processor
/// chains are serialized, the workload the chain-cover bound targets.
fn bench_mapped_execution_graph(c: &mut Criterion) {
    let mut g = c.benchmark_group("discrete-bnb-chain-bound");
    g.sample_size(10);
    let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
    let eg = bench::instances::random_execution_graph(4, 3, 2, 904);
    let d = 1.5 * bench::instances::dmin(&eg, modes.s_max());
    let cfg = BnbConfig::default();
    g.bench_function("chain-bound", |b| {
        b.iter(|| discrete::exact(&PreparedGraph::new(&eg), d, &modes, P, &cfg).unwrap())
    });
    g.finish();
}

fn bench_chain_dp(c: &mut Criterion) {
    let mut g = c.benchmark_group("discrete-chain-dp");
    g.sample_size(10);
    let modes = DiscreteModes::new(&[1.0, 1.5, 2.0]).unwrap();
    let mut rng = StdRng::seed_from_u64(9);
    let ws = generators::random_weights(24, 1.0, 4.0, &mut rng);
    let chain = generators::chain(&ws);
    let d = ws.iter().sum::<f64>() * 0.7;
    for res in [200usize, 1000, 5000] {
        g.bench_with_input(BenchmarkId::new("resolution", res), &res, |b, _| {
            b.iter(|| discrete::chain_dp(&chain, d, &modes, P, res).unwrap())
        });
    }
    g.finish();
}

fn bench_round_up(c: &mut Criterion) {
    let mut g = c.benchmark_group("discrete-round-up");
    g.sample_size(10);
    let modes = DiscreteModes::new(&[0.5, 1.0, 1.5, 2.0, 2.5, 3.0]).unwrap();
    let eg = bench::instances::random_execution_graph(5, 4, 2, 11);
    let d = 1.5 * bench::instances::dmin(&eg, modes.s_max());
    g.bench_function("prop1b-n20", |b| {
        b.iter(|| {
            discrete::round_up_prepared(&PreparedGraph::new(&eg), d, &modes, P, Some(100)).unwrap()
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_bnb_growth,
    bench_mapped_execution_graph,
    bench_chain_dp,
    bench_round_up
);
criterion_main!(benches);
