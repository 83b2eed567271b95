//! Workload generators for every graph family in the experiment suite.
//!
//! All random generators take an explicit `rng` so experiments are
//! reproducible from a seed; weights are drawn uniformly from a caller
//! supplied range.

use crate::graph::TaskGraph;
use crate::sp::{SpShape, SpTree};
use rand::Rng;

/// A chain `T_0 → … → T_{n−1}` with the given weights.
pub fn chain(weights: &[f64]) -> TaskGraph {
    let edges: Vec<(usize, usize)> = (1..weights.len()).map(|i| (i - 1, i)).collect();
    TaskGraph::new(weights.to_vec(), &edges).expect("chain is a DAG")
}

/// A fork: source `T_0` (cost `w0`) followed by `children.len()`
/// independent leaves — the graph of Theorem 1.
pub fn fork(w0: f64, children: &[f64]) -> TaskGraph {
    let mut w = vec![w0];
    w.extend_from_slice(children);
    let edges: Vec<(usize, usize)> = (1..w.len()).map(|i| (0, i)).collect();
    TaskGraph::new(w, &edges).expect("fork is a DAG")
}

/// A join: `parents.len()` independent tasks feeding a sink of cost
/// `w_sink` (the mirror of a fork).
pub fn join(parents: &[f64], w_sink: f64) -> TaskGraph {
    fork(w_sink, parents).reversed()
}

/// A fork-join: source, `mid.len()` parallel middle tasks, sink.
pub fn fork_join(w0: f64, mid: &[f64], w_sink: f64) -> TaskGraph {
    let mut w = vec![w0];
    w.extend_from_slice(mid);
    w.push(w_sink);
    let sink = w.len() - 1;
    let mut edges = Vec::new();
    for i in 1..sink {
        edges.push((0, i));
        edges.push((i, sink));
    }
    TaskGraph::new(w, &edges).expect("fork-join is a DAG")
}

/// The 4-task diamond `0 → {1, 2} → 3`.
pub fn diamond(w: [f64; 4]) -> TaskGraph {
    TaskGraph::new(w.to_vec(), &[(0, 1), (0, 2), (1, 3), (2, 3)]).expect("diamond is a DAG")
}

/// Uniform random weights in `[lo, hi)`.
pub fn random_weights<R: Rng>(n: usize, lo: f64, hi: f64, rng: &mut R) -> Vec<f64> {
    assert!(lo > 0.0 && hi > lo, "weights must be positive");
    (0..n).map(|_| rng.gen_range(lo..hi)).collect()
}

/// A uniformly random out-tree on `n` nodes: node `i ≥ 1` attaches to a
/// uniform parent among `0..i` (random recursive tree), with weights in
/// `[lo, hi)`.
pub fn random_out_tree<R: Rng>(n: usize, lo: f64, hi: f64, rng: &mut R) -> TaskGraph {
    assert!(n >= 1);
    let w = random_weights(n, lo, hi, rng);
    let edges: Vec<(usize, usize)> = (1..n).map(|i| (rng.gen_range(0..i), i)).collect();
    TaskGraph::new(w, &edges).expect("recursive tree is a DAG")
}

/// A random layered DAG: `layers` layers of `width` tasks; each task in
/// layer `ℓ+1` receives an edge from each task of layer `ℓ` with
/// probability `p_edge`, plus one guaranteed incoming edge (so that the
/// depth really is `layers`). Weights in `[lo, hi)`.
///
/// This is the workhorse random family for the comparative experiments
/// (F1–F3): it produces graphs that are neither trees nor SP with high
/// probability, exercising the general (numerical) solver.
pub fn layered_dag<R: Rng>(
    layers: usize,
    width: usize,
    p_edge: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> TaskGraph {
    assert!(layers >= 1 && width >= 1);
    let n = layers * width;
    let w = random_weights(n, lo, hi, rng);
    let mut edges = Vec::new();
    for l in 1..layers {
        for j in 0..width {
            let v = l * width + j;
            let mut has_pred = false;
            for i in 0..width {
                let u = (l - 1) * width + i;
                if rng.gen_bool(p_edge) {
                    edges.push((u, v));
                    has_pred = true;
                }
            }
            if !has_pred {
                let u = (l - 1) * width + rng.gen_range(0..width);
                edges.push((u, v));
            }
        }
    }
    TaskGraph::new(w, &edges).expect("layered construction is a DAG")
}

/// A random Erdős–Rényi-style DAG: edge `(i, j)` for `i < j` present
/// with probability `p`. Sparse and unstructured; mostly non-SP.
pub fn random_dag<R: Rng>(n: usize, p: f64, lo: f64, hi: f64, rng: &mut R) -> TaskGraph {
    let w = random_weights(n, lo, hi, rng);
    let mut edges = Vec::new();
    for i in 0..n {
        for j in (i + 1)..n {
            if rng.gen_bool(p) {
                edges.push((i, j));
            }
        }
    }
    TaskGraph::new(w, &edges).expect("ordered random edges form a DAG")
}

/// A random series–parallel graph with `n` tasks. Recursively splits
/// the task budget and picks series with probability `series_bias`.
/// Returns both the graph and its decomposition tree.
pub fn random_sp<R: Rng>(
    n: usize,
    series_bias: f64,
    lo: f64,
    hi: f64,
    rng: &mut R,
) -> (TaskGraph, SpTree) {
    let shape = random_sp_shape(n, series_bias, lo, hi, rng);
    shape.build()
}

fn random_sp_shape<R: Rng>(n: usize, series_bias: f64, lo: f64, hi: f64, rng: &mut R) -> SpShape {
    assert!(n >= 1);
    if n == 1 {
        return SpShape::Leaf(rng.gen_range(lo..hi));
    }
    let k = rng.gen_range(1..n); // left part size
    let left = random_sp_shape(k, series_bias, lo, hi, rng);
    let right = random_sp_shape(n - k, series_bias, lo, hi, rng);
    if rng.gen_bool(series_bias) {
        SpShape::Series(vec![left, right])
    } else {
        SpShape::Parallel(vec![left, right])
    }
}

/// The PARTITION-style hard instance for the Discrete model
/// (Theorem 4 evidence).
///
/// A chain of `values.len()` tasks with weights `values`, two modes
/// `{1, 2}`, and deadline `D = (3/4)·Σ values`. Meeting `D` requires a
/// subset `F` run at speed 2 with `Σ_{i∈F} w_i ≥ Σw/2`, and the energy
/// is minimized exactly when `Σ_{i∈F} w_i = Σw/2` — i.e. when `values`
/// admits a perfect partition. Branch-and-bound must implicitly search
/// the subset space, which blows up on balanced random instances.
pub fn partition_chain(values: &[f64]) -> (TaskGraph, f64) {
    let g = chain(values);
    let d = 0.75 * values.iter().sum::<f64>();
    (g, d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{critical_path_weight, topo_order};
    use crate::structure::{classify, Shape};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn chain_shape() {
        let g = chain(&[1.0, 2.0, 3.0]);
        assert_eq!(classify(&g), Shape::Chain);
        assert_eq!(critical_path_weight(&g), 6.0);
    }

    #[test]
    fn fork_and_join_shapes() {
        let f = fork(1.0, &[2.0, 3.0, 4.0]);
        assert_eq!(classify(&f), Shape::Fork);
        assert_eq!(critical_path_weight(&f), 5.0);
        let j = join(&[2.0, 3.0, 4.0], 1.0);
        assert_eq!(classify(&j), Shape::Join);
        assert_eq!(critical_path_weight(&j), 5.0);
    }

    #[test]
    fn fork_join_shape() {
        let g = fork_join(1.0, &[2.0, 5.0], 1.0);
        assert_eq!(g.n(), 4);
        assert_eq!(critical_path_weight(&g), 7.0);
        assert_eq!(classify(&g), Shape::SeriesParallel);
    }

    #[test]
    fn random_tree_is_out_tree() {
        let mut rng = StdRng::seed_from_u64(42);
        for n in [1usize, 2, 5, 40] {
            let g = random_out_tree(n, 1.0, 10.0, &mut rng);
            assert_eq!(g.n(), n);
            assert_eq!(g.m(), n - 1);
            assert!(crate::structure::is_out_tree(&g));
        }
    }

    #[test]
    fn layered_dag_has_expected_depth() {
        let mut rng = StdRng::seed_from_u64(7);
        let g = layered_dag(5, 4, 0.3, 1.0, 2.0, &mut rng);
        assert_eq!(g.n(), 20);
        // Every layer adds at least one edge per node, so the longest
        // chain has exactly 5 nodes.
        let depth = {
            let mut d = vec![0usize; g.n()];
            for &t in &topo_order(&g) {
                d[t.0] = 1 + g.preds(t).iter().map(|p| d[p.0]).max().unwrap_or(0);
            }
            d.into_iter().max().unwrap()
        };
        assert_eq!(depth, 5);
    }

    #[test]
    fn random_dag_is_acyclic_and_seeded() {
        let mut a = StdRng::seed_from_u64(3);
        let mut b = StdRng::seed_from_u64(3);
        let g1 = random_dag(30, 0.15, 1.0, 5.0, &mut a);
        let g2 = random_dag(30, 0.15, 1.0, 5.0, &mut b);
        assert_eq!(g1, g2, "same seed must reproduce the same graph");
    }

    #[test]
    fn random_sp_is_recognized() {
        let mut rng = StdRng::seed_from_u64(11);
        for n in [1usize, 2, 7, 25] {
            let (g, tree) = random_sp(n, 0.5, 1.0, 4.0, &mut rng);
            assert_eq!(g.n(), n);
            assert_eq!(tree.len(), n);
            assert!(
                crate::sp::SpTree::from_graph(&g).is_some(),
                "generated SP graph must be recognized (n={n})"
            );
        }
    }

    #[test]
    fn partition_chain_deadline() {
        let (g, d) = partition_chain(&[2.0, 2.0, 4.0, 4.0]);
        assert_eq!(g.n(), 4);
        assert!((d - 9.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic]
    fn random_weights_reject_nonpositive_lo() {
        let mut rng = StdRng::seed_from_u64(0);
        let _ = random_weights(3, 0.0, 1.0, &mut rng);
    }
}
