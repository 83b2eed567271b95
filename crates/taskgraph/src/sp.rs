//! Series–parallel decomposition.
//!
//! The paper's Theorem 2 gives a polynomial exact algorithm for
//! series–parallel execution graphs (with `s_max = +∞`). We use the
//! *node* series–parallel semantics that matches the energy
//! composition rules:
//!
//! * `Series(G₁, G₂)` — `G₂` starts after `G₁`: an edge from **every
//!   sink of `G₁`** to **every source of `G₂`**.
//! * `Parallel(G₁, G₂)` — disjoint union: both subgraphs share the same
//!   time window.
//!
//! [`SpTree::from_graph`] recognizes exactly the graphs generated by
//! these two rules (plus single-task leaves) and returns the
//! decomposition tree; the `reclaim-core` crate folds energy
//! "equivalent weights" over it.

use crate::analysis::topo_order;
use crate::graph::{TaskGraph, TaskId};

/// Decomposition tree of a series–parallel execution graph.
///
/// Leaves carry the [`TaskId`] of the task in the underlying graph, so
/// a solution computed on the tree can be mapped back to per-task
/// speeds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SpTree {
    /// A single task.
    Leaf(TaskId),
    /// Sequential composition, in order.
    Series(Vec<SpTree>),
    /// Parallel composition (children share the time window).
    Parallel(Vec<SpTree>),
}

impl SpTree {
    /// All task ids in the subtree, in depth-first order.
    pub fn leaves(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<TaskId>) {
        match self {
            SpTree::Leaf(t) => out.push(*t),
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                for c in cs {
                    c.collect_leaves(out);
                }
            }
        }
    }

    /// Number of tasks in the subtree.
    pub fn len(&self) -> usize {
        match self {
            SpTree::Leaf(_) => 1,
            SpTree::Series(cs) | SpTree::Parallel(cs) => cs.iter().map(SpTree::len).sum(),
        }
    }

    /// True iff the subtree is a single leaf (never "empty": the
    /// constructors below reject empty child lists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the decomposition tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        match self {
            SpTree::Leaf(_) => 1,
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                1 + cs.iter().map(SpTree::depth).max().unwrap_or(0)
            }
        }
    }

    /// Flatten nested compositions of the same kind and unwrap
    /// single-child compositions, producing a canonical tree.
    pub fn normalized(self) -> SpTree {
        match self {
            SpTree::Leaf(t) => SpTree::Leaf(t),
            SpTree::Series(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.normalized() {
                        SpTree::Series(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().unwrap()
                } else {
                    SpTree::Series(out)
                }
            }
            SpTree::Parallel(cs) => {
                let mut out = Vec::new();
                for c in cs {
                    match c.normalized() {
                        SpTree::Parallel(inner) => out.extend(inner),
                        other => out.push(other),
                    }
                }
                if out.len() == 1 {
                    out.pop().unwrap()
                } else {
                    SpTree::Parallel(out)
                }
            }
        }
    }

    /// Recognize a series–parallel execution graph and return its
    /// decomposition tree, or `None` when the graph is not SP.
    ///
    /// Exactness: a graph built by the `Series` / `Parallel` rules
    /// either is disconnected (top-level parallel) or admits a *series
    /// cut*: a prefix `P` of any topological order such that the edges
    /// crossing the cut are exactly `sinks(P) × sources(S)`. In a valid
    /// series split every task of `P` has a path to every task of `S`,
    /// so all of `P` precedes all of `S` in **every** topological
    /// order; scanning the prefixes of one fixed order therefore finds
    /// a cut iff one exists. Complexity `O(n·(n + m))` per level,
    /// `O(n²·(n+m))` worst case overall — polynomial, as Theorem 2
    /// requires.
    ///
    /// The tree is canonical: nested compositions of one kind are
    /// flattened and every `Parallel`'s children are sorted by
    /// smallest task id, so it depends on the graph alone.
    pub fn from_graph(g: &TaskGraph) -> Option<SpTree> {
        Self::from_graph_ordered(g, &topo_order(g))
    }

    /// [`SpTree::from_graph`] with a caller-supplied topological order
    /// of `g` (e.g. from [`crate::PreparedGraph`]), avoiding the
    /// internal re-derivation.
    pub(crate) fn from_graph_ordered(g: &TaskGraph, order: &[TaskId]) -> Option<SpTree> {
        debug_assert!(crate::analysis::is_topo_order(g, order));
        crate::profiling::record(|c| c.sp_from_graph += 1);
        let all: Vec<TaskId> = g.tasks().collect();
        Self::decompose(g, &all, order).map(SpTree::canonical)
    }

    /// The canonical form every cached tree takes: [`Self::normalized`],
    /// with every `Parallel`'s children sorted by smallest task id. A
    /// series–parallel graph has exactly one canonical decomposition,
    /// so the tree is a function of the graph alone, not of the
    /// topological order the recognition was handed.
    pub(crate) fn canonical(self) -> SpTree {
        self.normalized().with_sorted_parallels()
    }

    /// Locally repair this decomposition after structural edits whose
    /// net edge changes are confined to the `touched` tasks, instead
    /// of re-recognizing the whole graph.
    ///
    /// `self` must be a valid decomposition of the *pre-edit* graph,
    /// `g` the edited graph over the same task set, `order` a valid
    /// topological order of `g`, and `touched` the endpoint set of
    /// every inserted/removed edge. The repair (1) walks down to the
    /// deepest composite whose **minimal child range** spans all
    /// touched tasks (a contiguous run of series children, or the hit
    /// subset of parallel children — so a long series chain rebuilds
    /// one segment, not the whole spine), found by one stamp pass over
    /// the tree, (2) re-decomposes only that region's induced
    /// subgraph, and (3) grafts the canonical result into one clone of
    /// the tree. The graft needs no further check when the region's
    /// sources and sinks are unchanged; otherwise the whole
    /// composition is re-verified against `g` — a linear pass over the
    /// junctions, not a recognition scan. The result is canonical
    /// (see [`SpTree::from_graph`]), so it equals what a fresh
    /// recognition of `g` builds.
    ///
    /// Returns the repaired tree, or `None` when the spliced region is
    /// not series–parallel or its interface no longer composes — the
    /// caller must then fall back to full recognition
    /// ([`SpTree::from_graph`]). Success/failure is accounted in
    /// [`crate::profiling`] (`sp_splice` / `sp_splice_miss`), and the
    /// region size in `cone_nodes`; no `sp_from_graph` pass runs
    /// either way.
    pub fn splice(&self, g: &TaskGraph, order: &[TaskId], touched: &[TaskId]) -> Option<SpTree> {
        debug_assert!(crate::analysis::is_topo_order(g, order));
        match self.splice_inner(g, order, touched) {
            Some(t) => {
                crate::profiling::record(|c| c.sp_splice += 1);
                Some(t)
            }
            None => {
                crate::profiling::record(|c| c.sp_splice_miss += 1);
                None
            }
        }
    }

    fn splice_inner(&self, g: &TaskGraph, order: &[TaskId], touched: &[TaskId]) -> Option<SpTree> {
        // 1. One stamp pass over the tree: the path (child indices from
        //    the root) to every touched leaf, and a leaf count that
        //    catches a stale tree (not this graph's task set).
        let n = g.n();
        let mut mark = vec![false; n];
        for t in touched {
            *mark.get_mut(t.0)? = true;
        }
        let mut paths = Vec::new();
        let mut leaves = 0;
        self.touched_paths(&mark, &mut Vec::new(), &mut paths, &mut leaves)?;
        if leaves != n || paths.len() != mark.iter().filter(|&&m| m).count() {
            return None;
        }
        let Some((first, rest)) = paths.split_first() else {
            return Some(self.clone());
        };
        // 2. The deepest composite holding every touched leaf ends their
        //    longest common path prefix. Its minimal child *range*
        //    spanning them — a contiguous run of series children / the
        //    hit subset of parallel children — is the region that
        //    re-decomposes, so a long series chain rebuilds one
        //    segment, not its whole spine. The re-decomposition is
        //    quiet: it never counts as a recognition pass.
        let depth = rest.iter().fold(first.len(), |d, p| {
            d.min(first.iter().zip(p).take_while(|(a, b)| a == b).count())
        });
        let path = &first[..depth];
        let node = self.at(path);
        let mut hit: Vec<usize> = paths.iter().filter_map(|p| p.get(depth).copied()).collect();
        hit.sort_unstable();
        hit.dedup();
        let picked: Vec<usize> = match node {
            SpTree::Series(_) => (hit[0]..=hit[hit.len() - 1]).collect(),
            _ => hit,
        };
        let region: Vec<&SpTree> = match node {
            SpTree::Leaf(_) => vec![node],
            SpTree::Series(cs) | SpTree::Parallel(cs) => picked.iter().map(|&i| &cs[i]).collect(),
        };
        let mut verts: Vec<TaskId> = region.iter().flat_map(|c| c.leaves()).collect();
        verts.sort_unstable();
        crate::profiling::record(|c| c.cone_nodes += verts.len() as u64);
        // The region's own topological order (the global one filtered
        // once), so no recursion level rescans the whole graph's.
        mark.iter_mut().for_each(|m| *m = false);
        for v in &verts {
            mark[v.0] = true;
        }
        let local: Vec<TaskId> = order.iter().copied().filter(|t| mark[t.0]).collect();
        let sub = Self::decompose(g, &verts, &local)?.canonical();

        // 3. The region's interface before and after: when its sources
        //    and sinks are unchanged, every junction outside it is the
        //    old tree's and every changed edge lies inside it, so the
        //    graft is a valid decomposition without a whole-tree check.
        let ends = |first: bool, parts: &[&SpTree]| {
            let mut v: Vec<TaskId> = parts.iter().flat_map(|c| c.ends(first)).collect();
            v.sort_unstable();
            v
        };
        let (heads, tails) = match node {
            SpTree::Series(_) => (&region[..1], &region[region.len() - 1..]),
            _ => (&region[..], &region[..]),
        };
        let same_ends =
            ends(true, heads) == ends(true, &[&sub]) && ends(false, tails) == ends(false, &[&sub]);

        // 4. Graft into one clone of the tree, keeping it canonical:
        //    only the grafted node and, when the graft leaves it with
        //    one child of its parent's kind, the parent change.
        let mut out = self.clone();
        let slot = out.at_mut(path);
        match &mut *slot {
            SpTree::Leaf(_) => *slot = sub,
            SpTree::Series(cs) => {
                let tail = cs.split_off(picked[picked.len() - 1] + 1);
                cs.truncate(picked[0]);
                match sub {
                    SpTree::Series(inner) => cs.extend(inner),
                    other => cs.push(other),
                }
                cs.extend(tail);
            }
            SpTree::Parallel(cs) => {
                for &i in picked.iter().rev() {
                    cs.remove(i);
                }
                match sub {
                    SpTree::Parallel(inner) => cs.extend(inner),
                    other => cs.push(other),
                }
                cs.sort_by_cached_key(SpTree::min_leaf);
            }
        }
        if let SpTree::Series(cs) | SpTree::Parallel(cs) = &mut *slot {
            if cs.len() == 1 {
                let only = cs.pop().expect("one child");
                *slot = only;
            }
        }
        if let Some((&i, up)) = path.split_last() {
            out.at_mut(up).absorb(i);
        }
        debug_assert_eq!(out, out.clone().canonical());
        (same_ends || out.validates(g)).then_some(out)
    }

    /// Depth-first stamp pass for [`SpTree::splice`]: pushes the path
    /// to every leaf marked in `mark` and counts all leaves. `None`
    /// when a leaf lies outside `mark`'s id range.
    fn touched_paths(
        &self,
        mark: &[bool],
        cur: &mut Vec<usize>,
        paths: &mut Vec<Vec<usize>>,
        leaves: &mut usize,
    ) -> Option<()> {
        match self {
            SpTree::Leaf(t) => {
                *leaves += 1;
                if *mark.get(t.0)? {
                    paths.push(cur.clone());
                }
            }
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                for (i, c) in cs.iter().enumerate() {
                    cur.push(i);
                    c.touched_paths(mark, cur, paths, leaves)?;
                    cur.pop();
                }
            }
        }
        Some(())
    }

    /// The node at `path` (child indices from the root).
    fn at(&self, path: &[usize]) -> &SpTree {
        path.iter().fold(self, |node, &i| match node {
            SpTree::Series(cs) | SpTree::Parallel(cs) => &cs[i],
            SpTree::Leaf(_) => unreachable!("path descends into a leaf"),
        })
    }

    /// [`SpTree::at`], mutably.
    fn at_mut(&mut self, path: &[usize]) -> &mut SpTree {
        path.iter().fold(self, |node, &i| match node {
            SpTree::Series(cs) | SpTree::Parallel(cs) => &mut cs[i],
            SpTree::Leaf(_) => unreachable!("path descends into a leaf"),
        })
    }

    /// Merge child `i` into `self` when both are the same kind of
    /// composite (a graft can make them so), keeping the canonical
    /// form.
    fn absorb(&mut self, i: usize) {
        match self {
            SpTree::Series(cs) => {
                if let SpTree::Series(inner) = &mut cs[i] {
                    let inner = std::mem::take(inner);
                    cs.splice(i..=i, inner);
                }
            }
            SpTree::Parallel(cs) => {
                if let SpTree::Parallel(inner) = &mut cs[i] {
                    let inner = std::mem::take(inner);
                    cs.splice(i..=i, inner);
                    cs.sort_by_cached_key(SpTree::min_leaf);
                }
            }
            SpTree::Leaf(_) => {}
        }
    }

    /// The subtree's sources (`first`) or sinks.
    fn ends(&self, first: bool) -> Vec<TaskId> {
        match self {
            SpTree::Leaf(t) => vec![*t],
            SpTree::Series(cs) => {
                let c = if first { cs.first() } else { cs.last() };
                c.expect("non-empty").ends(first)
            }
            SpTree::Parallel(cs) => cs.iter().flat_map(|c| c.ends(first)).collect(),
        }
    }

    /// Smallest task id in the subtree — the key a fresh recognition
    /// implicitly orders parallel children by (components are
    /// discovered by ascending vertex id).
    fn min_leaf(&self) -> TaskId {
        match self {
            SpTree::Leaf(t) => *t,
            SpTree::Series(cs) | SpTree::Parallel(cs) => {
                cs.iter().map(SpTree::min_leaf).min().expect("non-empty")
            }
        }
    }

    /// Recursively sort every `Parallel`'s children by smallest task
    /// id.
    fn with_sorted_parallels(self) -> SpTree {
        match self {
            SpTree::Leaf(t) => SpTree::Leaf(t),
            SpTree::Series(cs) => {
                SpTree::Series(cs.into_iter().map(SpTree::with_sorted_parallels).collect())
            }
            SpTree::Parallel(cs) => {
                let mut out: Vec<SpTree> =
                    cs.into_iter().map(SpTree::with_sorted_parallels).collect();
                out.sort_by_cached_key(SpTree::min_leaf);
                SpTree::Parallel(out)
            }
        }
    }

    /// Whether `self` is a valid series–parallel decomposition of `g`:
    /// its leaves are the tasks, each exactly once; every series
    /// junction is the complete bipartite `sinks × sources` of its
    /// neighbours, and those junction edges are *exactly* the graph's
    /// edge set. `O(n + m)` adjacency lookups: verification is linear
    /// even though recognition is not.
    pub(crate) fn validates(&self, g: &TaskGraph) -> bool {
        // A repeated leaf would count its junction edges twice, so the
        // edge count below could match with a graph edge left out.
        let mut seen = vec![false; g.n()];
        let each_task_once = self.len() == g.n()
            && (self.leaves().iter())
                .all(|t| t.0 < g.n() && !std::mem::replace(&mut seen[t.0], true));
        if !each_task_once {
            return false;
        }
        let mut stamp = vec![usize::MAX; g.n()];
        let mut required = 0usize;
        self.verify_junctions(g, &mut stamp, &mut required)
            .is_some()
            && required == g.m()
    }

    /// Recursive junction check: returns the subtree's (sources,
    /// sinks) on success, `None` on the first junction violation.
    /// `stamp[w] == u` marks `w` as a successor of the sink `u` under
    /// test.
    fn verify_junctions(
        &self,
        g: &TaskGraph,
        stamp: &mut [usize],
        required: &mut usize,
    ) -> Option<(Vec<TaskId>, Vec<TaskId>)> {
        match self {
            SpTree::Leaf(t) => Some((vec![*t], vec![*t])),
            SpTree::Series(cs) => {
                let mut first_sources: Option<Vec<TaskId>> = None;
                let mut prev_sinks: Option<Vec<TaskId>> = None;
                for c in cs {
                    let (src, snk) = c.verify_junctions(g, stamp, required)?;
                    if let Some(ps) = &prev_sinks {
                        for &u in ps {
                            for w in g.succs(u) {
                                stamp[w.0] = u.0;
                            }
                            if src.iter().any(|v| stamp[v.0] != u.0) {
                                return None;
                            }
                        }
                        *required += ps.len() * src.len();
                    }
                    if first_sources.is_none() {
                        first_sources = Some(src);
                    }
                    prev_sinks = Some(snk);
                }
                Some((first_sources?, prev_sinks?))
            }
            SpTree::Parallel(cs) => {
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for c in cs {
                    let (src, snk) = c.verify_junctions(g, stamp, required)?;
                    sources.extend(src);
                    sinks.extend(snk);
                }
                Some((sources, sinks))
            }
        }
    }

    /// Recursive helper operating on an induced subgraph given by a
    /// vertex subset (kept as a sorted list of original ids). The
    /// global topological order is threaded through so no level
    /// re-derives it.
    fn decompose(g: &TaskGraph, verts: &[TaskId], global_order: &[TaskId]) -> Option<SpTree> {
        if verts.len() == 1 {
            return Some(SpTree::Leaf(verts[0]));
        }
        let inset: std::collections::HashSet<TaskId> = verts.iter().copied().collect();

        // 1. Parallel split: weakly connected components of the induced
        //    subgraph.
        let comps = induced_components(g, verts, &inset);
        if comps.len() > 1 {
            let children: Option<Vec<SpTree>> = comps
                .iter()
                .map(|c| Self::decompose(g, c, global_order))
                .collect();
            return children.map(SpTree::Parallel);
        }

        // 2. Series split: scan prefixes of a topological order of the
        //    induced subgraph.
        let order = induced_topo(global_order, &inset);
        for k in 1..order.len() {
            let (p, s) = order.split_at(k);
            if let Some((pp, ss)) = valid_series_cut(g, p, s, &inset) {
                let left = Self::decompose(g, &pp, global_order)?;
                let right = Self::decompose(g, &ss, global_order)?;
                return Some(SpTree::Series(vec![left, right]));
            }
        }
        None
    }
}

/// Weakly connected components of the induced subgraph.
fn induced_components(
    g: &TaskGraph,
    verts: &[TaskId],
    inset: &std::collections::HashSet<TaskId>,
) -> Vec<Vec<TaskId>> {
    let mut comp: std::collections::HashMap<TaskId, usize> = std::collections::HashMap::new();
    let mut comps: Vec<Vec<TaskId>> = Vec::new();
    for &v in verts {
        if comp.contains_key(&v) {
            continue;
        }
        let id = comps.len();
        let mut stack = vec![v];
        let mut members = Vec::new();
        comp.insert(v, id);
        while let Some(u) = stack.pop() {
            members.push(u);
            for &w in g.succs(u).iter().chain(g.preds(u)) {
                if inset.contains(&w) && !comp.contains_key(&w) {
                    comp.insert(w, id);
                    stack.push(w);
                }
            }
        }
        members.sort();
        comps.push(members);
    }
    comps
}

/// Topological order of the induced subgraph.
fn induced_topo(global_order: &[TaskId], inset: &std::collections::HashSet<TaskId>) -> Vec<TaskId> {
    // Filter the global topological order down to the subset: a
    // topological order of the whole DAG restricted to any subset is a
    // topological order of the induced subgraph.
    global_order
        .iter()
        .filter(|t| inset.contains(t))
        .copied()
        .collect()
}

/// Check whether `(p, s)` is a valid series cut of the induced
/// subgraph: cross edges are exactly `sinks(p) × sources(s)`.
/// Returns the two vertex sets on success.
fn valid_series_cut(
    g: &TaskGraph,
    p: &[TaskId],
    s: &[TaskId],
    inset: &std::collections::HashSet<TaskId>,
) -> Option<(Vec<TaskId>, Vec<TaskId>)> {
    let pset: std::collections::HashSet<TaskId> = p.iter().copied().collect();
    let sset: std::collections::HashSet<TaskId> = s.iter().copied().collect();

    // Sinks of induced P: no successor inside P (successors outside
    // `inset` do not exist at this recursion level).
    let sinks_p: Vec<TaskId> = p
        .iter()
        .copied()
        .filter(|&u| !g.succs(u).iter().any(|v| pset.contains(v)))
        .collect();
    let sources_s: Vec<TaskId> = s
        .iter()
        .copied()
        .filter(|&u| !g.preds(u).iter().any(|v| sset.contains(v)))
        .collect();

    // Count cross edges and verify each goes sink(P) -> source(S).
    let sinks_set: std::collections::HashSet<TaskId> = sinks_p.iter().copied().collect();
    let sources_set: std::collections::HashSet<TaskId> = sources_s.iter().copied().collect();
    let mut cross = 0usize;
    for &u in p {
        for &v in g.succs(u) {
            if !inset.contains(&v) || pset.contains(&v) {
                continue;
            }
            // Edge crosses the cut.
            if !sinks_set.contains(&u) || !sources_set.contains(&v) {
                return None;
            }
            cross += 1;
        }
    }
    if cross != sinks_p.len() * sources_s.len() {
        return None; // not a complete bipartite junction
    }
    Some((p.to_vec(), s.to_vec()))
}

/// Build a [`TaskGraph`] from an abstract SP shape with given leaf
/// weights. Returns the graph plus the decomposition tree whose leaf
/// ids reference the new graph. Used by generators and tests.
///
/// `shape` is the same tree but with leaves carrying weights instead of
/// ids.
#[derive(Debug, Clone, PartialEq)]
pub enum SpShape {
    /// A task with the given cost.
    Leaf(f64),
    /// Sequential composition.
    Series(Vec<SpShape>),
    /// Parallel composition.
    Parallel(Vec<SpShape>),
}

impl SpShape {
    /// Materialize the shape into a graph + id-labelled decomposition.
    pub fn build(&self) -> (TaskGraph, SpTree) {
        let mut weights = Vec::new();
        let mut edges: Vec<(usize, usize)> = Vec::new();
        let (tree, _sources, _sinks) = self.emit(&mut weights, &mut edges);
        let g = TaskGraph::new(weights, &edges).expect("SP construction yields a DAG");
        (g, tree.normalized())
    }

    /// Returns (tree, sources, sinks) of the emitted subgraph.
    fn emit(
        &self,
        weights: &mut Vec<f64>,
        edges: &mut Vec<(usize, usize)>,
    ) -> (SpTree, Vec<usize>, Vec<usize>) {
        match self {
            SpShape::Leaf(w) => {
                let id = weights.len();
                weights.push(*w);
                (SpTree::Leaf(TaskId(id)), vec![id], vec![id])
            }
            SpShape::Series(cs) => {
                assert!(!cs.is_empty(), "Series must have children");
                let mut trees = Vec::new();
                let mut first_sources = Vec::new();
                let mut prev_sinks: Vec<usize> = Vec::new();
                let mut last_sinks = Vec::new();
                for (k, c) in cs.iter().enumerate() {
                    let (t, src, snk) = c.emit(weights, edges);
                    if k == 0 {
                        first_sources = src.clone();
                    } else {
                        for &u in &prev_sinks {
                            for &v in &src {
                                edges.push((u, v));
                            }
                        }
                    }
                    prev_sinks = snk.clone();
                    last_sinks = snk;
                    trees.push(t);
                }
                (SpTree::Series(trees), first_sources, last_sinks)
            }
            SpShape::Parallel(cs) => {
                assert!(!cs.is_empty(), "Parallel must have children");
                let mut trees = Vec::new();
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for c in cs {
                    let (t, src, snk) = c.emit(weights, edges);
                    sources.extend(src);
                    sinks.extend(snk);
                    trees.push(t);
                }
                (SpTree::Parallel(trees), sources, sinks)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn diamond() -> TaskGraph {
        TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn recognizes_diamond() {
        let t = SpTree::from_graph(&diamond()).expect("diamond is SP");
        // series(0, parallel(1,2), 3)
        assert_eq!(
            t,
            SpTree::Series(vec![
                SpTree::Leaf(TaskId(0)),
                SpTree::Parallel(vec![SpTree::Leaf(TaskId(1)), SpTree::Leaf(TaskId(2))]),
                SpTree::Leaf(TaskId(3)),
            ])
        );
        assert_eq!(t.len(), 4);
        assert_eq!(t.depth(), 3);
    }

    #[test]
    fn validation_needs_each_task_once() {
        // The N graph 0→2, 0→3, 1→3 is not SP. A tree that repeats 3
        // and leaves out 1 has one junction edge per graph edge, but
        // the edge 1→3 is not among them.
        let n = TaskGraph::new(vec![1.0; 4], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        let leaf = |i| SpTree::Leaf(TaskId(i));
        let forged = SpTree::Series(vec![
            leaf(0),
            SpTree::Parallel(vec![leaf(2), leaf(3), leaf(3)]),
        ]);
        assert!(!forged.validates(&n));
        let t = SpTree::from_graph(&diamond()).unwrap();
        assert!(t.validates(&diamond()));
    }

    #[test]
    fn rejects_the_n_graph() {
        let n = TaskGraph::new(vec![1.0; 4], &[(0, 2), (0, 3), (1, 3)]).unwrap();
        assert!(SpTree::from_graph(&n).is_none());
    }

    #[test]
    fn recognizes_chains_forks_trees() {
        let chain = crate::generators::chain(&[1.0, 2.0, 3.0]);
        assert!(matches!(
            SpTree::from_graph(&chain),
            Some(SpTree::Series(_))
        ));
        let fork = crate::generators::fork(1.0, &[1.0, 2.0]);
        assert!(SpTree::from_graph(&fork).is_some());
        let tree = TaskGraph::new(vec![1.0; 5], &[(0, 1), (1, 2), (1, 3), (0, 4)]).unwrap();
        assert!(SpTree::from_graph(&tree).is_some());
    }

    #[test]
    fn build_roundtrip() {
        let shape = SpShape::Series(vec![
            SpShape::Leaf(1.0),
            SpShape::Parallel(vec![
                SpShape::Series(vec![SpShape::Leaf(2.0), SpShape::Leaf(3.0)]),
                SpShape::Leaf(4.0),
            ]),
            SpShape::Leaf(5.0),
        ]);
        let (g, tree) = shape.build();
        assert_eq!(g.n(), 5);
        let rec = SpTree::from_graph(&g).expect("built SP graph must be recognized");
        // Both trees must contain the same leaves.
        let mut a = tree.leaves();
        let mut b = rec.leaves();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn normalization_flattens() {
        let t = SpTree::Series(vec![
            SpTree::Series(vec![SpTree::Leaf(TaskId(0)), SpTree::Leaf(TaskId(1))]),
            SpTree::Leaf(TaskId(2)),
        ]);
        assert_eq!(
            t.normalized(),
            SpTree::Series(vec![
                SpTree::Leaf(TaskId(0)),
                SpTree::Leaf(TaskId(1)),
                SpTree::Leaf(TaskId(2)),
            ])
        );
        let single = SpTree::Parallel(vec![SpTree::Leaf(TaskId(7))]);
        assert_eq!(single.normalized(), SpTree::Leaf(TaskId(7)));
    }

    #[test]
    fn independent_tasks_decompose_as_parallel() {
        let g = TaskGraph::new(vec![1.0, 2.0, 3.0], &[]).unwrap();
        let t = SpTree::from_graph(&g).unwrap();
        assert!(matches!(t, SpTree::Parallel(ref cs) if cs.len() == 3));
    }

    /// `k` diamond blocks in series: `4k + 1` tasks, junctions between
    /// consecutive blocks.
    fn blocks(k: usize) -> (TaskGraph, SpTree) {
        let mut shape = vec![SpShape::Leaf(1.0)];
        for _ in 0..k {
            shape.push(SpShape::Parallel(vec![
                SpShape::Leaf(1.0),
                SpShape::Leaf(1.0),
            ]));
            shape.push(SpShape::Leaf(1.0));
        }
        SpShape::Series(shape).build()
    }

    #[test]
    fn splice_rebuilds_only_the_touched_segment() {
        let (g, _) = blocks(8);
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        // Convert block 3's parallel pair {b, c} (between junctions j
        // and j') to the chain j → b → c → j'.
        let (j, b, c, j2) = (9, 10, 11, 12);
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.retain(|&e| e != (j, c) && e != (b, j2));
        edges.push((b, c));
        let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
        let before = crate::profiling::counts();
        let spliced = tree
            .splice(
                &edited,
                &order,
                &[TaskId(j), TaskId(b), TaskId(c), TaskId(j2)],
            )
            .expect("block conversion preserves SP");
        let delta = crate::profiling::counts() - before;
        assert_eq!(delta.sp_splice, 1);
        assert_eq!(delta.sp_from_graph, 0, "no recognition pass ran");
        assert!(
            delta.cone_nodes <= 4,
            "rebuild confined to the touched segment, got {} nodes",
            delta.cone_nodes
        );
        // Bit-identical to a fresh recognition of the edited graph.
        assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
    }

    #[test]
    fn splice_refuses_sp_breaking_edit() {
        let g = diamond();
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        // 1→2 makes 0→2 transitive: node-SP breaks.
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.push((1, 2));
        let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
        let before = crate::profiling::counts();
        assert!(tree
            .splice(&edited, &order, &[TaskId(1), TaskId(2)])
            .is_none());
        let delta = crate::profiling::counts() - before;
        assert_eq!(delta.sp_splice_miss, 1);
        assert_eq!(delta.sp_from_graph, 0);
    }

    #[test]
    fn splice_handles_parallel_component_merge() {
        // Three disconnected chains; connect the first to the third —
        // the spliced Parallel must re-order canonically (by smallest
        // task id), exactly like a fresh recognition.
        let g = TaskGraph::new(vec![1.0; 6], &[(0, 1), (2, 3), (4, 5)]).unwrap();
        let order = topo_order(&g);
        let tree = SpTree::from_graph_ordered(&g, &order).unwrap();
        let edited = TaskGraph::new(vec![1.0; 6], &[(0, 1), (2, 3), (4, 5), (1, 4)]).unwrap();
        let edited_order = topo_order(&edited);
        let spliced = tree
            .splice(&edited, &edited_order, &[TaskId(1), TaskId(4)])
            .expect("still SP: parallel of {0→1→4→5} and {2→3}");
        assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
    }
}
