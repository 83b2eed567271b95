//! Structure detection: which specialized solver applies to a graph.
//!
//! The paper gives closed forms / polynomial algorithms for specific
//! graph shapes (Theorem 1: forks; Theorem 2: trees and series–parallel
//! graphs). [`classify`] detects the most specific shape so the core
//! crate can dispatch to the cheapest exact solver.

use crate::graph::{TaskGraph, TaskId};
use crate::sp::SpTree;

/// Most specific recognized shape of an execution graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Shape {
    /// A single task.
    Single,
    /// A simple path `T_0 → T_1 → … → T_{n−1}`.
    Chain,
    /// One source with `n` independent children (Theorem 1).
    Fork,
    /// `n` independent parents feeding one sink (mirror of a fork).
    Join,
    /// Out-tree: a rooted tree with edges pointing away from the root.
    OutTree,
    /// In-tree: a rooted tree with edges pointing towards the root.
    InTree,
    /// Series–parallel composition (recognized by [`SpTree::from_graph`]).
    SeriesParallel,
    /// None of the above: requires the general numerical solver.
    General,
}

/// Whether the graph is a simple chain.
pub fn is_chain(g: &TaskGraph) -> bool {
    if g.n() == 1 {
        return true;
    }
    if g.m() != g.n() - 1 {
        return false;
    }
    let one_source = g.sources().len() == 1;
    let one_sink = g.sinks().len() == 1;
    one_source
        && one_sink
        && g.tasks()
            .all(|t| g.succs(t).len() <= 1 && g.preds(t).len() <= 1)
}

/// Whether the graph is a fork: one source, all other tasks are its
/// children and have no successors. Requires at least 2 leaves (a
/// 1-leaf fork is just a chain).
pub fn is_fork(g: &TaskGraph) -> bool {
    let sources = g.sources();
    if sources.len() != 1 || g.n() < 3 {
        return false;
    }
    let root = sources[0];
    g.succs(root).len() == g.n() - 1
        && g.tasks()
            .filter(|&t| t != root)
            .all(|t| g.succs(t).is_empty() && g.preds(t) == [root])
}

/// Whether the graph is a join (reverse of a fork): one sink, every
/// other task is its parent and has no predecessor.
fn is_join(g: &TaskGraph) -> bool {
    let Some(root) = only_sink(g) else {
        return false;
    };
    g.n() >= 3
        && g.preds(root).len() == g.n() - 1
        && g.tasks()
            .filter(|&t| t != root)
            .all(|t| g.preds(t).is_empty() && g.succs(t) == [root])
}

/// Whether the graph is an out-tree: a single source and every other
/// task has exactly one predecessor (connectivity follows because the
/// graph then has `n − 1` edges reaching every non-root).
pub fn is_out_tree(g: &TaskGraph) -> bool {
    let sources = g.sources();
    sources.len() == 1
        && g.tasks()
            .filter(|&t| t != sources[0])
            .all(|t| g.preds(t).len() == 1)
}

/// Whether the graph is an in-tree (every non-sink task has exactly one
/// successor, single sink).
pub fn is_in_tree(g: &TaskGraph) -> bool {
    let Some(root) = only_sink(g) else {
        return false;
    };
    g.tasks()
        .filter(|&t| t != root)
        .all(|t| g.succs(t).len() == 1)
}

/// The graph's only sink, or `None` when it has several; no
/// allocation, unlike [`TaskGraph::sinks`].
fn only_sink(g: &TaskGraph) -> Option<TaskId> {
    let mut sinks = g.tasks().filter(|&t| g.succs(t).is_empty());
    let sink = sinks.next()?;
    sinks.next().is_none().then_some(sink)
}

/// Classify the graph into the most specific [`Shape`].
///
/// The order matters: every chain is an out-tree and an in-tree and an
/// SP graph; every fork is an out-tree; trees are checked before the
/// (more expensive) SP recognition.
pub fn classify(g: &TaskGraph) -> Shape {
    classify_with_tree(g, None).0
}

/// [`classify`], also returning the series–parallel decomposition when
/// the graph classified as [`Shape::SeriesParallel`] — so
/// [`crate::PreparedGraph`] caches the tree the recognition already
/// built — and reusing a caller-supplied topological order when given
/// one.
pub(crate) fn classify_with_tree(
    g: &TaskGraph,
    order: Option<&[TaskId]>,
) -> (Shape, Option<SpTree>) {
    crate::profiling::record(|c| c.classify += 1);
    if let Some(s) = specific_shape(g) {
        return (s, None);
    }
    let tree = match order {
        Some(o) => SpTree::from_graph_ordered(g, o),
        None => SpTree::from_graph(g),
    };
    if let Some(tree) = tree {
        return (Shape::SeriesParallel, Some(tree));
    }
    (Shape::General, None)
}

/// The cheap (pre-SP) portion of [`classify`]: the most specific
/// shape among single/chain/fork/join/tree, or `None` when only the
/// expensive series–parallel recognition could decide further.
/// `O(1)` unless the graph has `n − 1` edges (every shape it names is
/// a tree), then `O(n + m)`; counter-free — the edit layer's local
/// repair uses it to keep a carried classification bit-identical to a
/// fresh one.
pub fn specific_shape(g: &TaskGraph) -> Option<Shape> {
    if g.n() == 1 {
        return Some(Shape::Single);
    }
    if g.m() + 1 != g.n() {
        return None;
    }
    if is_chain(g) {
        return Some(Shape::Chain);
    }
    if is_fork(g) {
        return Some(Shape::Fork);
    }
    if is_join(g) {
        return Some(Shape::Join);
    }
    if is_out_tree(g) {
        return Some(Shape::OutTree);
    }
    if is_in_tree(g) {
        return Some(Shape::InTree);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::graph::TaskGraph;

    #[test]
    fn classifies_single_and_chain() {
        assert_eq!(classify(&TaskGraph::single(1.0)), Shape::Single);
        let g = generators::chain(&[1.0, 2.0, 3.0]);
        assert_eq!(classify(&g), Shape::Chain);
        assert!(is_out_tree(&g) && is_in_tree(&g));
    }

    #[test]
    fn classifies_fork_and_join() {
        let f = generators::fork(2.0, &[1.0, 3.0, 4.0]);
        assert_eq!(classify(&f), Shape::Fork);
        assert_eq!(classify(&f.reversed()), Shape::Join);
        assert!(is_out_tree(&f));
        assert!(!is_in_tree(&f));
    }

    #[test]
    fn classifies_trees() {
        // 0 -> 1 -> {2,3}, 0 -> 4  : out-tree, not a fork.
        let g = TaskGraph::new(vec![1.0; 5], &[(0, 1), (1, 2), (1, 3), (0, 4)]).unwrap();
        assert_eq!(classify(&g), Shape::OutTree);
        assert_eq!(classify(&g.reversed()), Shape::InTree);
    }

    #[test]
    fn classifies_sp_and_general() {
        // Diamond = series(0, parallel(1, 2), 3): SP but not a tree.
        let d = TaskGraph::new(vec![1.0; 4], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(classify(&d), Shape::SeriesParallel);
        // The "N" graph is the canonical non-SP DAG:
        // 0 -> 2, 0 -> 3, 1 -> 3 (and nothing else).
        let n = TaskGraph::new(vec![1.0; 4], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        assert_eq!(classify(&n), Shape::General);
    }

    #[test]
    fn two_task_chain_is_chain_not_fork() {
        let g = generators::chain(&[1.0, 2.0]);
        assert_eq!(classify(&g), Shape::Chain);
        assert!(!is_fork(&g));
    }

    #[test]
    fn disconnected_tasks_are_sp_parallel() {
        let g = TaskGraph::new(vec![1.0, 2.0], &[]).unwrap();
        assert_eq!(classify(&g), Shape::SeriesParallel);
    }
}
