//! Structural metrics of execution graphs, for experiment reporting.

use crate::analysis::topo_order;
use crate::graph::TaskGraph;

/// Summary metrics of a DAG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GraphMetrics {
    /// Number of tasks.
    pub n: usize,
    /// Number of edges.
    pub m: usize,
    /// Longest path length in *hops* (number of tasks).
    pub depth: usize,
    /// Maximum number of tasks at the same hop-level (a lower bound on
    /// the graph's width / achievable parallelism).
    pub max_level_width: usize,
    /// Edge density `m / (n·(n−1)/2)`.
    pub density: f64,
    /// Total work `Σ w`.
    pub total_work: f64,
    /// Critical-path weight.
    pub cp_weight: f64,
    /// Parallelism `total_work / cp_weight` (average width of the
    /// weighted schedule; 1 for a chain).
    pub parallelism: f64,
}

/// Hop-level of each task (longest path from a source, in tasks).
pub fn levels(g: &TaskGraph) -> Vec<usize> {
    let mut lvl = vec![0usize; g.n()];
    for &t in &topo_order(g) {
        lvl[t.0] = g.preds(t).iter().map(|&p| lvl[p.0] + 1).max().unwrap_or(0);
    }
    lvl
}

/// Compute all metrics.
pub fn metrics(g: &TaskGraph) -> GraphMetrics {
    let lvl = levels(g);
    let depth = lvl.iter().max().map_or(0, |&d| d + 1);
    let mut width_at = vec![0usize; depth.max(1)];
    for &l in &lvl {
        width_at[l] += 1;
    }
    let n = g.n();
    let cp = crate::analysis::critical_path_weight(g);
    GraphMetrics {
        n,
        m: g.m(),
        depth,
        max_level_width: width_at.iter().copied().max().unwrap_or(0),
        density: if n > 1 {
            g.m() as f64 / (n as f64 * (n as f64 - 1.0) / 2.0)
        } else {
            0.0
        },
        total_work: g.total_work(),
        cp_weight: cp,
        parallelism: g.total_work() / cp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn chain_metrics() {
        let g = generators::chain(&[1.0, 2.0, 3.0]);
        let m = metrics(&g);
        assert_eq!(m.depth, 3);
        assert_eq!(m.max_level_width, 1);
        assert!((m.parallelism - 1.0).abs() < 1e-12);
        assert_eq!(levels(&g), vec![0, 1, 2]);
    }

    #[test]
    fn fork_metrics() {
        let g = generators::fork(1.0, &[1.0, 1.0, 1.0]);
        let m = metrics(&g);
        assert_eq!(m.depth, 2);
        assert_eq!(m.max_level_width, 3);
        assert!((m.parallelism - 2.0).abs() < 1e-12); // 4 work / 2 cp
    }

    #[test]
    fn workflow_metrics_sane() {
        let g = crate::workflows::fft(3);
        let m = metrics(&g);
        assert_eq!(m.depth, 4);
        assert_eq!(m.max_level_width, 8);
        assert!(m.density > 0.0 && m.density < 1.0);
    }
}
