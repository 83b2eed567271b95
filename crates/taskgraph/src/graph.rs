//! Core DAG data structure.

use std::fmt;
use std::sync::Arc;

/// Index of a task in a [`TaskGraph`].
///
/// Task ids are dense (`0..n`) and stable: generators and the `mapping`
/// crate never renumber tasks, so a `TaskId` can be used to key
/// per-task vectors (speeds, durations, completion times) everywhere in
/// the workspace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId(pub usize);

impl TaskId {
    /// The underlying dense index.
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Errors produced when building or mutating a [`TaskGraph`].
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// An edge references a task id `>= n`.
    BadTask(usize),
    /// A self-loop `(i, i)` was added.
    SelfLoop(usize),
    /// The edge set contains a directed cycle (first detected node).
    Cycle(usize),
    /// A task cost is not strictly positive and finite.
    BadWeight { task: usize, weight: f64 },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::BadTask(i) => write!(f, "edge references unknown task T{i}"),
            GraphError::SelfLoop(i) => write!(f, "self-loop on task T{i}"),
            GraphError::Cycle(i) => write!(f, "directed cycle through task T{i}"),
            GraphError::BadWeight { task, weight } => {
                write!(f, "task T{task} has invalid cost {weight}")
            }
        }
    }
}

impl std::error::Error for GraphError {}

/// A directed acyclic **execution graph** with per-task costs.
///
/// Tasks are numbered `0..n`. Each task `i` carries a cost `w_i > 0`
/// (the amount of work: executing at speed `s` takes `w_i / s` time
/// units). Edges are precedence constraints: `(i, j)` means `T_j`
/// cannot start before `T_i` completes.
///
/// The structure is immutable once built (all solvers treat the
/// mapping, and hence the execution graph, as frozen — that is the
/// paper's core assumption). Only the costs vary between instances, so
/// a graph keeps them apart from its topology (adjacency and edge
/// list), which sits behind an [`Arc`]: graphs that differ only in
/// weights — built by [`TaskGraph::with_weights`] — share one topology,
/// and `Clone` copies only the weights.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    weights: Vec<f64>,
    topology: Arc<Topology>,
}

/// The weight-independent part of a [`TaskGraph`]: the edge list in
/// insertion order plus both adjacency directions in compressed sparse
/// row form. The successors of task `i` are
/// `succ[succ_at[i]..succ_at[i + 1]]`, in edge-list order, and the
/// same holds for `pred`/`pred_at`.
#[derive(Debug, PartialEq, Eq)]
struct Topology {
    succ_at: Vec<usize>,
    succ: Vec<TaskId>,
    pred_at: Vec<usize>,
    pred: Vec<TaskId>,
    edges: Vec<(TaskId, TaskId)>,
}

/// One adjacency direction of `edges` in CSR form, filled by counting:
/// `(offsets, targets)` keyed by the source, or by the target when
/// `reverse` is set. Each slice keeps edge-list order.
fn csr(n: usize, edges: &[(TaskId, TaskId)], reverse: bool) -> (Vec<usize>, Vec<TaskId>) {
    let key = |&(u, v): &(TaskId, TaskId)| if reverse { (v, u) } else { (u, v) };
    let mut at = vec![0usize; n + 1];
    for e in edges {
        at[key(e).0 .0 + 1] += 1;
    }
    for i in 0..n {
        at[i + 1] += at[i];
    }
    let mut fill = at[..n].to_vec();
    let mut adj = vec![TaskId(0); edges.len()];
    for e in edges {
        let (a, b) = key(e);
        adj[fill[a.0]] = b;
        fill[a.0] += 1;
    }
    (at, adj)
}

/// One adjacency direction of [`TaskGraph::rewired`]: every slice
/// minus the neighbours `gone(node, neighbour)` names (asked only for
/// nodes flagged in `hit`), followed by the `extra` `(node, neighbour)`
/// pairs, which arrive grouped by node in their batch order. Runs of
/// nodes that change in neither way are copied wholesale.
fn rewire_csr(
    at: &[usize],
    adj: &[TaskId],
    hit: &[bool],
    gone: impl Fn(usize, usize) -> bool,
    extra: &[(usize, usize)],
) -> (Vec<usize>, Vec<TaskId>) {
    let n = hit.len();
    let mut new_at = Vec::with_capacity(n + 1);
    let mut new_adj = Vec::with_capacity(adj.len() + extra.len());
    new_at.push(0);
    let (mut x, mut k) = (0, 0);
    while x < n {
        let next_extra = extra.get(k).map_or(n, |e| e.0);
        let y = (x..next_extra).find(|&i| hit[i]).unwrap_or(next_extra);
        let shift = new_adj.len();
        new_adj.extend_from_slice(&adj[at[x]..at[y]]);
        new_at.extend(at[x + 1..=y].iter().map(|&a| a - at[x] + shift));
        if y == n {
            break;
        }
        let slice = &adj[at[y]..at[y + 1]];
        new_adj.extend(slice.iter().filter(|w| !(hit[y] && gone(y, w.0))));
        while k < extra.len() && extra[k].0 == y {
            new_adj.push(TaskId(extra[k].1));
            k += 1;
        }
        new_at.push(new_adj.len());
        x = y + 1;
    }
    (new_at, new_adj)
}

/// Every cost must be strictly positive and finite.
fn check_weights(weights: &[f64]) -> Result<(), GraphError> {
    match weights.iter().position(|w| !(w.is_finite() && *w > 0.0)) {
        Some(i) => Err(GraphError::BadWeight {
            task: i,
            weight: weights[i],
        }),
        None => Ok(()),
    }
}

impl TaskGraph {
    /// Build a graph from task costs and precedence edges.
    ///
    /// Validates weights (strictly positive, finite), edge endpoints,
    /// absence of self-loops and duplicate edges (duplicates are
    /// silently collapsed), and acyclicity.
    ///
    /// ```
    /// use taskgraph::TaskGraph;
    /// let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
    /// assert_eq!(g.n(), 2);
    /// assert!(TaskGraph::new(vec![1.0, 2.0], &[(0, 1), (1, 0)]).is_err());
    /// ```
    pub fn new(weights: Vec<f64>, edges: &[(usize, usize)]) -> Result<Self, GraphError> {
        let n = weights.len();
        check_weights(&weights)?;
        let mut uniq = std::collections::HashSet::with_capacity(edges.len());
        let mut elist = Vec::with_capacity(edges.len());
        for &(u, v) in edges {
            if u >= n {
                return Err(GraphError::BadTask(u));
            }
            if v >= n {
                return Err(GraphError::BadTask(v));
            }
            if u == v {
                return Err(GraphError::SelfLoop(u));
            }
            if uniq.insert((u, v)) {
                elist.push((TaskId(u), TaskId(v)));
            }
        }
        let (succ_at, succ) = csr(n, &elist, false);
        let (pred_at, pred) = csr(n, &elist, true);
        let g = TaskGraph {
            weights,
            topology: Arc::new(Topology {
                succ_at,
                succ,
                pred_at,
                pred,
                edges: elist,
            }),
        };
        if let Some(c) = g.find_cycle_node() {
            return Err(GraphError::Cycle(c));
        }
        Ok(g)
    }

    /// The same graph under new task costs: validates `weights` exactly
    /// like [`TaskGraph::new`] and shares this graph's topology instead
    /// of rebuilding it.
    ///
    /// # Panics
    ///
    /// If `weights` does not hold one cost per task.
    ///
    /// ```
    /// use taskgraph::TaskGraph;
    /// let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
    /// let h = g.with_weights(vec![3.0, 4.0]).unwrap();
    /// assert_eq!(h, TaskGraph::new(vec![3.0, 4.0], &[(0, 1)]).unwrap());
    /// assert!(g.with_weights(vec![3.0, 0.0]).is_err());
    /// ```
    pub fn with_weights(&self, weights: Vec<f64>) -> Result<TaskGraph, GraphError> {
        assert_eq!(weights.len(), self.n(), "one cost per task");
        check_weights(&weights)?;
        Ok(TaskGraph {
            weights,
            topology: Arc::clone(&self.topology),
        })
    }

    /// Whether `self` and `other` share one topology allocation.
    #[cfg(test)]
    pub(crate) fn shares_topology(&self, other: &TaskGraph) -> bool {
        Arc::ptr_eq(&self.topology, &other.topology)
    }

    /// A single-task graph (convenience for tests and SP leaves).
    pub fn single(weight: f64) -> Self {
        TaskGraph::new(vec![weight], &[]).expect("single task is always a valid graph")
    }

    /// Number of tasks `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of precedence edges `|Ê|`.
    #[inline]
    pub fn m(&self) -> usize {
        self.topology.edges.len()
    }

    /// Cost `w_i` of a task.
    #[inline]
    pub fn weight(&self, t: TaskId) -> f64 {
        self.weights[t.0]
    }

    /// All task costs, indexed by `TaskId`.
    #[inline]
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Total work `Σ w_i`.
    pub fn total_work(&self) -> f64 {
        self.weights.iter().sum()
    }

    /// Successors of `t` (tasks that must wait for `t`).
    #[inline]
    pub fn succs(&self, t: TaskId) -> &[TaskId] {
        let at = &self.topology.succ_at;
        &self.topology.succ[at[t.0]..at[t.0 + 1]]
    }

    /// Predecessors of `t`.
    #[inline]
    pub fn preds(&self, t: TaskId) -> &[TaskId] {
        let at = &self.topology.pred_at;
        &self.topology.pred[at[t.0]..at[t.0 + 1]]
    }

    /// All edges in insertion order.
    #[inline]
    pub fn edges(&self) -> &[(TaskId, TaskId)] {
        &self.topology.edges
    }

    /// Iterator over all task ids.
    pub fn tasks(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.n()).map(TaskId)
    }

    /// Tasks with no predecessor.
    pub fn sources(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.preds(t).is_empty()).collect()
    }

    /// Tasks with no successor.
    pub fn sinks(&self) -> Vec<TaskId> {
        self.tasks().filter(|&t| self.succs(t).is_empty()).collect()
    }

    /// Whether edge `(u, v)` is present: a scan of the shorter of
    /// `succs(u)` and `preds(v)` (false for a `v` outside the graph).
    pub fn has_edge(&self, u: TaskId, v: TaskId) -> bool {
        let out = self.succs(u);
        if v.0 < self.n() && self.preds(v).len() < out.len() {
            self.preds(v).contains(&u)
        } else {
            out.contains(&v)
        }
    }

    /// Returns a graph with the same tasks and every edge reversed.
    ///
    /// Useful for treating in-trees (join-like) with out-tree
    /// algorithms: `MinEnergy` is invariant under edge reversal
    /// (reversing time preserves both the precedence structure and the
    /// energy of any schedule).
    pub fn reversed(&self) -> TaskGraph {
        let edges: Vec<(usize, usize)> = self.edges().iter().map(|&(u, v)| (v.0, u.0)).collect();
        TaskGraph::new(self.weights.clone(), &edges).expect("reversing a DAG yields a DAG")
    }

    /// Returns a new graph equal to `self` plus the given extra edges
    /// (used by the `mapping` crate to add serialization edges).
    pub fn with_extra_edges(&self, extra: &[(usize, usize)]) -> Result<TaskGraph, GraphError> {
        let mut edges: Vec<(usize, usize)> =
            self.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.extend_from_slice(extra);
        TaskGraph::new(self.weights.clone(), &edges)
    }

    /// The same tasks under `weights` (already validated), with the
    /// edge list `self.edges()` minus `dropped`, followed by `appended`
    /// in order — built by one copy pass over the adjacency instead of
    /// [`TaskGraph::new`]'s counting and cycle check. Each adjacency
    /// slice equals what `TaskGraph::new` builds from that edge list,
    /// so the result compares equal to it.
    ///
    /// `dropped` must be sorted and name present edges; `appended`
    /// must name distinct edges absent once `dropped` is gone. The
    /// caller owns acyclicity ([`TaskGraph::find_cycle_node`]).
    pub(crate) fn rewired(
        &self,
        weights: Vec<f64>,
        dropped: &[(usize, usize)],
        appended: &[(usize, usize)],
    ) -> TaskGraph {
        debug_assert!(dropped.windows(2).all(|w| w[0] < w[1]));
        let n = self.n();
        let t = &self.topology;
        let (mut from, mut into) = (vec![false; n], vec![false; n]);
        for &(u, v) in dropped {
            from[u] = true;
            into[v] = true;
        }
        let gone = |u: usize, v: usize| dropped.binary_search(&(u, v)).is_ok();
        let mut edges = Vec::with_capacity(t.edges.len() + appended.len() - dropped.len());
        edges.extend(
            t.edges
                .iter()
                .filter(|&&(u, v)| !(from[u.0] && gone(u.0, v.0))),
        );
        edges.extend(appended.iter().map(|&(u, v)| (TaskId(u), TaskId(v))));
        let mut out = appended.to_vec();
        out.sort_by_key(|e| e.0);
        let mut back: Vec<(usize, usize)> = appended.iter().map(|&(u, v)| (v, u)).collect();
        back.sort_by_key(|e| e.0);
        let (succ_at, succ) = rewire_csr(&t.succ_at, &t.succ, &from, gone, &out);
        let (pred_at, pred) = rewire_csr(&t.pred_at, &t.pred, &into, |v, u| gone(u, v), &back);
        TaskGraph {
            weights,
            topology: Arc::new(Topology {
                succ_at,
                succ,
                pred_at,
                pred,
                edges,
            }),
        }
    }

    /// Kahn's algorithm; returns `Some(node-in-cycle)` when the edge
    /// set is cyclic, `None` for a DAG.
    pub(crate) fn find_cycle_node(&self) -> Option<usize> {
        let n = self.n();
        let mut indeg: Vec<usize> = (0..n).map(|i| self.preds(TaskId(i)).len()).collect();
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0usize;
        while let Some(u) = stack.pop() {
            seen += 1;
            for &TaskId(v) in self.succs(TaskId(u)) {
                indeg[v] -= 1;
                if indeg[v] == 0 {
                    stack.push(v);
                }
            }
        }
        if seen == n {
            None
        } else {
            (0..n).find(|&i| indeg[i] > 0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        // 0 -> {1,2} -> 3
        TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn builds_and_exposes_structure() {
        let g = diamond();
        assert_eq!(g.n(), 4);
        assert_eq!(g.m(), 4);
        assert_eq!(g.sources(), vec![TaskId(0)]);
        assert_eq!(g.sinks(), vec![TaskId(3)]);
        assert_eq!(g.succs(TaskId(0)), &[TaskId(1), TaskId(2)]);
        assert_eq!(g.preds(TaskId(3)), &[TaskId(1), TaskId(2)]);
        assert!((g.total_work() - 10.0).abs() < 1e-12);
        assert!(g.has_edge(TaskId(0), TaskId(1)));
        assert!(!g.has_edge(TaskId(1), TaskId(0)));
    }

    #[test]
    fn rejects_cycles() {
        let err = TaskGraph::new(vec![1.0; 3], &[(0, 1), (1, 2), (2, 0)]).unwrap_err();
        assert!(matches!(err, GraphError::Cycle(_)));
    }

    #[test]
    fn rejects_self_loop_and_bad_endpoints() {
        assert!(matches!(
            TaskGraph::new(vec![1.0; 2], &[(0, 0)]),
            Err(GraphError::SelfLoop(0))
        ));
        assert!(matches!(
            TaskGraph::new(vec![1.0; 2], &[(0, 5)]),
            Err(GraphError::BadTask(5))
        ));
    }

    #[test]
    fn rejects_bad_weights() {
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                TaskGraph::new(vec![1.0, w], &[]),
                Err(GraphError::BadWeight { task: 1, .. })
            ));
        }
    }

    #[test]
    fn duplicate_edges_collapse() {
        let g = TaskGraph::new(vec![1.0; 2], &[(0, 1), (0, 1)]).unwrap();
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn reversal_is_involutive_and_swaps_roles() {
        let g = diamond();
        let r = g.reversed();
        assert_eq!(r.sources(), vec![TaskId(3)]);
        assert_eq!(r.sinks(), vec![TaskId(0)]);
        let rr = r.reversed();
        assert_eq!(rr.n(), g.n());
        for t in g.tasks() {
            let mut a = g.succs(t).to_vec();
            let mut b = rr.succs(t).to_vec();
            a.sort();
            b.sort();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn with_extra_edges_adds_serialization() {
        let g = diamond();
        let g2 = g.with_extra_edges(&[(1, 2)]).unwrap();
        assert_eq!(g2.m(), 5);
        assert!(g2.has_edge(TaskId(1), TaskId(2)));
        // Adding an edge that would create a cycle fails.
        assert!(g2.with_extra_edges(&[(3, 0)]).is_err());
    }

    #[test]
    fn with_weights_shares_topology_and_equals_rebuild() {
        let g = diamond();
        let h = g.with_weights(vec![4.0, 3.0, 2.0, 1.0]).unwrap();
        assert!(h.shares_topology(&g));
        let rebuilt =
            TaskGraph::new(vec![4.0, 3.0, 2.0, 1.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        assert_eq!(h, rebuilt);
        assert_eq!(h.edges(), rebuilt.edges());
        assert!(!rebuilt.shares_topology(&g));
        // The base keeps its own costs; a clone shares the topology too.
        assert_eq!(g.weights(), &[1.0, 2.0, 3.0, 4.0]);
        assert!(g.clone().shares_topology(&g));
    }

    #[test]
    fn with_weights_rejects_bad_weights_like_new() {
        let g = TaskGraph::new(vec![1.0, 1.0], &[(0, 1)]).unwrap();
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            let via_new = TaskGraph::new(vec![1.0, w], &[(0, 1)]).unwrap_err();
            let via_share = g.with_weights(vec![1.0, w]).unwrap_err();
            assert!(matches!(via_share, GraphError::BadWeight { task: 1, .. }));
            assert_eq!(via_share.to_string(), via_new.to_string());
        }
    }

    #[test]
    #[should_panic(expected = "one cost per task")]
    fn with_weights_needs_one_cost_per_task() {
        let _ = diamond().with_weights(vec![1.0; 3]);
    }

    #[test]
    fn single_task_graph() {
        let g = TaskGraph::single(5.0);
        assert_eq!(g.n(), 1);
        assert_eq!(g.sources(), g.sinks());
    }
}
