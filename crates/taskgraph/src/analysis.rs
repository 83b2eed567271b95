//! Graph analysis: topological order, critical paths, time windows.

use crate::graph::{TaskGraph, TaskId};

/// A topological order of the tasks (Kahn's algorithm, deterministic:
/// ties broken by smallest id first).
///
/// The graph is guaranteed acyclic by construction, so this never
/// fails.
///
/// Callers that solve the same graph repeatedly should compute the
/// order once, through [`crate::PreparedGraph`], whose analyses reuse
/// it.
pub fn topo_order(g: &TaskGraph) -> Vec<TaskId> {
    crate::profiling::record(|c| c.topo_order += 1);
    topo_order_quiet(g)
}

/// [`topo_order`] without the [`crate::profiling`] bump — for callers
/// that need an order as an *implementation detail* of something else
/// (e.g. the edit layer's order-validity check) and must not muddy the
/// once-only accounting the counters exist to prove.
pub fn topo_order_quiet(g: &TaskGraph) -> Vec<TaskId> {
    let n = g.n();
    let mut indeg: Vec<usize> = (0..n).map(|i| g.preds(TaskId(i)).len()).collect();
    // Min-heap on id for determinism.
    let mut heap: std::collections::BinaryHeap<std::cmp::Reverse<usize>> = (0..n)
        .filter(|&i| indeg[i] == 0)
        .map(std::cmp::Reverse)
        .collect();
    let mut order = Vec::with_capacity(n);
    while let Some(std::cmp::Reverse(u)) = heap.pop() {
        order.push(TaskId(u));
        for &TaskId(v) in g.succs(TaskId(u)) {
            indeg[v] -= 1;
            if indeg[v] == 0 {
                heap.push(std::cmp::Reverse(v));
            }
        }
    }
    debug_assert_eq!(order.len(), n);
    order
}

/// Longest weighted path ending at each task, **including** the task's
/// own duration: `ecl_i = d_i + max_{j ∈ preds(i)} ecl_j`.
///
/// With `durations = weights` this is the critical-path completion time
/// at unit speed; the energy solvers call it with actual durations
/// `d_i = w_i / s_i` to get earliest completion times.
pub fn earliest_completion(g: &TaskGraph, durations: &[f64]) -> Vec<f64> {
    earliest_completion_ordered(g, durations, &topo_order(g))
}

/// [`earliest_completion`] with a caller-supplied topological order
/// (must be a valid order of `g`, e.g. from a cached analysis).
pub(crate) fn earliest_completion_ordered(
    g: &TaskGraph,
    durations: &[f64],
    order: &[TaskId],
) -> Vec<f64> {
    assert_eq!(durations.len(), g.n());
    debug_assert!(is_topo_order(g, order));
    let mut ecl = vec![0.0; g.n()];
    for &t in order {
        let start = g.preds(t).iter().map(|&p| ecl[p.0]).fold(0.0f64, f64::max);
        ecl[t.0] = start + durations[t.0];
    }
    ecl
}

/// Latest completion time of each task so that every task still meets
/// the deadline `d`: `lcl_i = min(d, min_{j ∈ succs(i)} lcl_j − dur_j)`.
pub fn latest_completion(g: &TaskGraph, durations: &[f64], deadline: f64) -> Vec<f64> {
    latest_completion_ordered(g, durations, deadline, &topo_order(g))
}

/// [`latest_completion`] with a caller-supplied topological order.
pub(crate) fn latest_completion_ordered(
    g: &TaskGraph,
    durations: &[f64],
    deadline: f64,
    order: &[TaskId],
) -> Vec<f64> {
    assert_eq!(durations.len(), g.n());
    debug_assert!(is_topo_order(g, order));
    let mut lcl = vec![deadline; g.n()];
    for &t in order.iter().rev() {
        let lim = g
            .succs(t)
            .iter()
            .map(|&s| lcl[s.0] - durations[s.0])
            .fold(deadline, f64::min);
        lcl[t.0] = lim;
    }
    lcl
}

/// Makespan of the graph under the given durations (max earliest
/// completion over all tasks).
pub fn makespan(g: &TaskGraph, durations: &[f64]) -> f64 {
    earliest_completion(g, durations)
        .into_iter()
        .fold(0.0f64, f64::max)
}

/// Weight of the heaviest (critical) path: the makespan at unit speed.
///
/// This is the minimum deadline for which `MinEnergy(Ĝ, D)` is feasible
/// with unbounded speeds scaled to 1, i.e. `D_min = cp_weight / s_max`
/// when a maximum speed `s_max` exists.
pub fn critical_path_weight(g: &TaskGraph) -> f64 {
    makespan(g, g.weights())
}

/// One heaviest path, as a list of task ids from a source to a sink.
pub fn critical_path(g: &TaskGraph) -> Vec<TaskId> {
    let ecl = earliest_completion(g, g.weights());
    // Start from the task with the largest completion time and walk
    // backwards through the predecessor that realizes the start time.
    let mut cur = g
        .tasks()
        .max_by(|&a, &b| ecl[a.0].partial_cmp(&ecl[b.0]).unwrap())
        .expect("non-empty graph");
    let mut path = vec![cur];
    loop {
        let start = ecl[cur.0] - g.weight(cur);
        let prev = g
            .preds(cur)
            .iter()
            .copied()
            .find(|&p| (ecl[p.0] - start).abs() <= 1e-9 * (1.0 + start.abs()));
        match prev {
            Some(p) => {
                path.push(p);
                cur = p;
            }
            None => break,
        }
    }
    path.reverse();
    path
}

/// Per-task slack under the given durations and deadline:
/// `lcl_i − ecl_i`. Non-negative everywhere iff the schedule is
/// feasible. Critical tasks have (near-)zero slack.
pub fn slack(g: &TaskGraph, durations: &[f64], deadline: f64) -> Vec<f64> {
    let ecl = earliest_completion(g, durations);
    let lcl = latest_completion(g, durations, deadline);
    ecl.iter().zip(&lcl).map(|(e, l)| l - e).collect()
}

/// Whether `order` is a topological order of `g` (each task appears
/// once, after all its predecessors).
pub fn is_topo_order(g: &TaskGraph, order: &[TaskId]) -> bool {
    if order.len() != g.n() {
        return false;
    }
    let mut pos = vec![usize::MAX; g.n()];
    for (k, &t) in order.iter().enumerate() {
        if pos[t.0] != usize::MAX {
            return false;
        }
        pos[t.0] = k;
    }
    g.edges().iter().all(|&(u, v)| pos[u.0] < pos[v.0])
}

/// Position of each task in `order` (a permutation of the tasks).
pub(crate) fn positions(order: &[TaskId]) -> Vec<usize> {
    let mut pos = vec![0usize; order.len()];
    for (k, &t) in order.iter().enumerate() {
        pos[t.0] = k;
    }
    pos
}

/// Reachability matrix as a vector of bitsets: `reach[u][v]` is true
/// iff there is a directed path from `u` to `v` (including `u = v`).
///
/// O(n·m / 64) via bit-parallel DP over reverse topological order.
pub fn reachability(g: &TaskGraph) -> Vec<Vec<u64>> {
    reachability_ordered(g, &topo_order(g))
}

/// [`reachability`] with a caller-supplied topological order.
fn reachability_ordered(g: &TaskGraph, order: &[TaskId]) -> Vec<Vec<u64>> {
    debug_assert!(is_topo_order(g, order));
    let n = g.n();
    let wds = n.div_ceil(64);
    let mut reach = vec![vec![0u64; wds]; n];
    for &t in order.iter().rev() {
        let u = t.0;
        reach[u][u / 64] |= 1 << (u % 64);
        for s in 0..g.succs(t).len() {
            let v = g.succs(t)[s].0;
            // reach[u] |= reach[v]  (split borrows via index math)
            let (a, b) = if u < v {
                let (lo, hi) = reach.split_at_mut(v);
                (&mut lo[u], &hi[0])
            } else {
                let (lo, hi) = reach.split_at_mut(u);
                (&mut hi[0], &lo[v])
            };
            for (x, y) in a.iter_mut().zip(b.iter()) {
                *x |= *y;
            }
        }
    }
    reach
}

/// Query helper for [`reachability`] output.
#[inline]
pub fn reaches(reach: &[Vec<u64>], u: TaskId, v: TaskId) -> bool {
    reach[u.0][v.0 / 64] >> (v.0 % 64) & 1 == 1
}

/// Transitive reduction: the same DAG with every redundant edge
/// removed (an edge `(u, v)` is redundant when some other successor of
/// `u` already reaches `v`).
///
/// The reduction preserves the precedence *relation*, hence the
/// feasible schedules and the optimal energy — but shrinks the
/// constraint sets handed to the LP/barrier substrates. `O(m·deg)`
/// after the bit-parallel reachability.
pub fn transitive_reduction(g: &TaskGraph) -> TaskGraph {
    transitive_reduction_ordered(g, &topo_order(g))
}

/// [`transitive_reduction`] with a caller-supplied topological order.
/// The reachability matrix it builds is dropped on return.
pub(crate) fn transitive_reduction_ordered(g: &TaskGraph, order: &[TaskId]) -> TaskGraph {
    crate::profiling::record(|c| c.transitive_reduction += 1);
    reduce(g, order)
}

/// Whether `g` is its own transitive reduction, by the full pass and
/// without the profiling bump (for debug-build checks).
pub(crate) fn is_reduced(g: &TaskGraph) -> bool {
    reduce(g, &topo_order_quiet(g)) == *g
}

/// The reduction pass itself, without the profiling bump.
fn reduce(g: &TaskGraph, order: &[TaskId]) -> TaskGraph {
    let reach = reachability_ordered(g, order);
    let redundant = g
        .edges()
        .iter()
        .filter(|&&(u, v)| g.succs(u).iter().any(|&w| w != v && reaches(&reach, w, v)))
        .map(|&(u, v)| (u.0, v.0))
        .collect();
    without_edges(g, redundant)
}

/// Repair a topological order after edge insertions by a localized
/// shift of the affected window (Pearce–Kelly style), instead of
/// recomputing the order from scratch.
///
/// `old` must be a permutation of the tasks of `g` that is a valid
/// topological order of `g` *minus* the `inserted` edges; `inserted`
/// lists the edges new to `g`. For each inserted edge `(u, v)` whose
/// endpoints the retained order puts backwards, only the nodes between
/// `v` and `u` that are reachable from `v` or reach `u` are re-slotted
/// — everything outside that cone keeps its position. Touched nodes
/// are accounted in [`crate::profiling::Counts::cone_nodes`].
pub fn repair_topo_order(
    g: &TaskGraph,
    old: &[TaskId],
    inserted: &[(usize, usize)],
) -> Vec<TaskId> {
    let n = g.n();
    assert_eq!(old.len(), n);
    let mut order = old.to_vec();
    let mut pos = positions(old);
    let mut cone = 0u64;
    for &(u, v) in inserted {
        if pos[u] < pos[v] {
            continue; // already consistent
        }
        let (lo, hi) = (pos[v], pos[u]);
        // F: v and its descendants inside the window — they must move
        // after u. B: u and its ancestors inside the window — they must
        // move before v. In a DAG the two sets are disjoint (a common
        // member would close a cycle through the new edge).
        let mut fwd = Vec::new();
        let mut in_f = std::collections::HashSet::new();
        in_f.insert(v);
        let mut stack = vec![v];
        while let Some(x) = stack.pop() {
            fwd.push(x);
            for &TaskId(w) in g.succs(TaskId(x)) {
                if pos[w] <= hi && in_f.insert(w) {
                    stack.push(w);
                }
            }
        }
        let mut bwd = Vec::new();
        let mut in_b = std::collections::HashSet::new();
        in_b.insert(u);
        stack.push(u);
        while let Some(x) = stack.pop() {
            bwd.push(x);
            for &TaskId(w) in g.preds(TaskId(x)) {
                if pos[w] >= lo && in_b.insert(w) {
                    stack.push(w);
                }
            }
        }
        debug_assert!(
            fwd.iter().all(|x| !in_b.contains(x)),
            "cycle through ({u}, {v})"
        );
        // Pool the window positions of F ∪ B and refill them in place:
        // B first, then F, each keeping its internal relative order.
        bwd.sort_unstable_by_key(|&x| pos[x]);
        fwd.sort_unstable_by_key(|&x| pos[x]);
        let mut slots: Vec<usize> = bwd.iter().chain(&fwd).map(|&x| pos[x]).collect();
        slots.sort_unstable();
        for (&slot, &node) in slots.iter().zip(bwd.iter().chain(&fwd)) {
            order[slot] = TaskId(node);
            pos[node] = slot;
        }
        cone += slots.len() as u64;
    }
    crate::profiling::record(|c| c.cone_nodes += cone);
    debug_assert!(is_topo_order(g, &order));
    order
}

/// Repair cached earliest-completion times after an edit by a
/// cost-bounded forward relaxation limited to the edit's cone.
///
/// `old` holds the pre-edit values; `seeds` names every task whose
/// inputs may have changed (its duration, or its predecessor set —
/// i.e. the targets of inserted/removed edges). Tasks are re-evaluated
/// in topological position order starting from the seeds, and a task's
/// successors are visited only when its value actually moved — where
/// the old values are provably unchanged, propagation stops. Visited
/// tasks are accounted in [`crate::profiling::Counts::cone_nodes`].
pub fn repair_earliest_completion(
    g: &TaskGraph,
    durations: &[f64],
    order: &[TaskId],
    old: &[f64],
    seeds: &[usize],
) -> Vec<f64> {
    assert_eq!(durations.len(), g.n());
    assert_eq!(old.len(), g.n());
    debug_assert!(is_topo_order(g, order));
    let pos = positions(order);
    let mut ecl = old.to_vec();
    let mut queued = vec![false; g.n()];
    let mut heap = std::collections::BinaryHeap::new();
    for &s in seeds {
        if !queued[s] {
            queued[s] = true;
            heap.push(std::cmp::Reverse((pos[s], s)));
        }
    }
    let mut visited = 0u64;
    while let Some(std::cmp::Reverse((_, t))) = heap.pop() {
        visited += 1;
        let start = g
            .preds(TaskId(t))
            .iter()
            .map(|&p| ecl[p.0])
            .fold(0.0f64, f64::max);
        let val = start + durations[t];
        if val != ecl[t] {
            ecl[t] = val;
            for &TaskId(s) in g.succs(TaskId(t)) {
                if !queued[s] {
                    queued[s] = true;
                    heap.push(std::cmp::Reverse((pos[s], s)));
                }
            }
        }
    }
    crate::profiling::record(|c| c.cone_nodes += visited);
    debug_assert_eq!(ecl, earliest_completion_ordered(g, durations, order));
    ecl
}

/// Repair a cached transitive reduction after edge edits over the same
/// task set, re-testing only the edges whose verdict the edits can
/// flip — no full reduction pass (and no
/// [`crate::profiling::Counts::transitive_reduction`] bump), and no
/// reachability matrix.
///
/// `old_reduced` is the reduction of the pre-edit graph and
/// `old_order` a topological order of that graph; `g` is the edited
/// graph with `order` a topological order of it, and `inserted` /
/// `removed` are the net edge changes.
///
/// An edge `(x, y)` is redundant iff another successor of `x` reaches
/// `y`. Its verdict can change only through a path that uses a changed
/// edge `(u, v)`: `x` reaches `u` and `v` reaches `y`, so
/// `pos(x) ≤ pos(u)` and `pos(v) ≤ pos(y)` — in the new order for an
/// insertion (which can only make edges redundant), in the old order
/// for a removal (which can only re-expose them). One integer scan
/// finds the edges inside such a window (inserted edges lie inside
/// their own), and each is re-tested by a DFS from `x`'s other
/// successors pruned at `y`'s position (the search-space bound of
/// Bounded Dijkstra). Every other edge keeps its old verdict, read
/// from the old reduction's adjacency. Candidates and DFS visits are
/// accounted in [`crate::profiling::Counts::cone_nodes`].
///
/// Returns the reduction of `g`: `g`'s edges in order minus the
/// redundant ones, exactly what [`transitive_reduction`] builds.
pub fn repair_reduction(
    old_reduced: &TaskGraph,
    old_order: &[TaskId],
    g: &TaskGraph,
    order: &[TaskId],
    inserted: &[(usize, usize)],
    removed: &[(usize, usize)],
) -> TaskGraph {
    let n = g.n();
    assert_eq!(old_reduced.n(), n);
    debug_assert!(is_topo_order(g, order));
    let (pos_old, pos) = (positions(old_order), positions(order));
    // `window(changes, pos)[p]`: the smallest position of a changed
    // edge's target whose source sits at or after position `p` (a
    // suffix minimum), so `(x, y)` lies in some change's window iff
    // `window[pos[x]] <= pos[y]`.
    let window = |changes: &[(usize, usize)], pos: &[usize]| {
        let mut lo = vec![usize::MAX; n + 1];
        for &(u, v) in changes {
            lo[pos[u]] = lo[pos[u]].min(pos[v]);
        }
        for p in (0..n).rev() {
            lo[p] = lo[p].min(lo[p + 1]);
        }
        lo
    };
    let (reach_ins, reach_rem) = (window(inserted, &pos), window(removed, &pos_old));

    // When the old reduction kept every old edge (as in every SP
    // graph), every carried verdict is "kept" and needs no lookup.
    let old_redundant = g.m() + removed.len() != old_reduced.m() + inserted.len();
    let mut redundant: Vec<(usize, usize)> = Vec::new();
    let mut candidates: Vec<(usize, usize)> = Vec::new();
    let mut kept_from = vec![usize::MAX; n];
    for x in 0..n {
        if old_redundant {
            for &TaskId(y) in old_reduced.succs(TaskId(x)) {
                kept_from[y] = x;
            }
        }
        for &TaskId(y) in g.succs(TaskId(x)) {
            if reach_ins[pos[x]] <= pos[y] || reach_rem[pos_old[x]] <= pos_old[y] {
                candidates.push((x, y));
            } else if old_redundant && kept_from[y] != x {
                redundant.push((x, y));
            }
        }
    }

    let mut seen = vec![usize::MAX; n];
    let mut stack = Vec::new();
    let mut visited = candidates.len() as u64;
    for (k, &(x, y)) in candidates.iter().enumerate() {
        stack.clear();
        stack.extend(g.succs(TaskId(x)).iter().map(|w| w.0).filter(|&w| w != y));
        let mut found = false;
        while let Some(w) = stack.pop() {
            if w == y {
                found = true;
                break;
            }
            if seen[w] == k || pos[w] > pos[y] {
                continue;
            }
            seen[w] = k;
            visited += 1;
            stack.extend(g.succs(TaskId(w)).iter().map(|s| s.0));
        }
        if found {
            redundant.push((x, y));
        }
    }
    crate::profiling::record(|c| c.cone_nodes += visited);
    let reduced = without_edges(g, redundant);
    debug_assert_eq!(reduced, reduce(g, order));
    reduced
}

/// `g` minus the `redundant` edges, sharing `g`'s topology when there
/// are none (then the reduction *is* the graph).
fn without_edges(g: &TaskGraph, mut redundant: Vec<(usize, usize)>) -> TaskGraph {
    if redundant.is_empty() {
        return g.clone();
    }
    redundant.sort_unstable();
    g.rewired(g.weights().to_vec(), &redundant, &[])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::TaskGraph;

    fn diamond() -> TaskGraph {
        TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap()
    }

    #[test]
    fn topo_order_is_valid_and_deterministic() {
        let g = diamond();
        let o = topo_order(&g);
        assert!(is_topo_order(&g, &o));
        assert_eq!(o, topo_order(&g));
        assert_eq!(o[0], TaskId(0));
        assert_eq!(o[3], TaskId(3));
    }

    #[test]
    fn earliest_completion_diamond() {
        let g = diamond();
        let ecl = earliest_completion(&g, g.weights());
        assert_eq!(ecl, vec![1.0, 3.0, 4.0, 8.0]);
        assert_eq!(makespan(&g, g.weights()), 8.0);
        assert_eq!(critical_path_weight(&g), 8.0);
    }

    #[test]
    fn latest_completion_and_slack() {
        let g = diamond();
        let lcl = latest_completion(&g, g.weights(), 10.0);
        // Sink must finish by 10, so T1 by 6, T2 by 6, T0 by min(4,3).
        assert_eq!(lcl, vec![3.0, 6.0, 6.0, 10.0]);
        let s = slack(&g, g.weights(), 10.0);
        assert_eq!(s, vec![2.0, 3.0, 2.0, 2.0]);
        // At the exact critical-path deadline, the critical path has 0 slack.
        let s8 = slack(&g, g.weights(), 8.0);
        assert!(s8[0].abs() < 1e-12 && s8[2].abs() < 1e-12 && s8[3].abs() < 1e-12);
        assert!((s8[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn critical_path_follows_heaviest_route() {
        let g = diamond();
        assert_eq!(critical_path(&g), vec![TaskId(0), TaskId(2), TaskId(3)]);
    }

    #[test]
    fn reachability_matrix() {
        let g = diamond();
        let r = reachability(&g);
        assert!(reaches(&r, TaskId(0), TaskId(3)));
        assert!(reaches(&r, TaskId(0), TaskId(0)));
        assert!(!reaches(&r, TaskId(1), TaskId(2)));
        assert!(!reaches(&r, TaskId(3), TaskId(0)));
    }

    #[test]
    fn is_topo_order_rejects_bad_orders() {
        let g = diamond();
        assert!(!is_topo_order(
            &g,
            &[TaskId(1), TaskId(0), TaskId(2), TaskId(3)]
        ));
        assert!(!is_topo_order(&g, &[TaskId(0), TaskId(1), TaskId(2)]));
        assert!(!is_topo_order(
            &g,
            &[TaskId(0), TaskId(0), TaskId(2), TaskId(3)]
        ));
    }

    #[test]
    fn transitive_reduction_drops_redundant_edges() {
        // Diamond plus the redundant shortcut (0, 3).
        let g = TaskGraph::new(vec![1.0; 4], &[(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)]).unwrap();
        let r = transitive_reduction(&g);
        assert_eq!(r.m(), 4);
        assert!(!r.has_edge(TaskId(0), TaskId(3)));
        // Reachability is preserved.
        let ra = reachability(&g);
        let rb = reachability(&r);
        for u in g.tasks() {
            for v in g.tasks() {
                assert_eq!(reaches(&ra, u, v), reaches(&rb, u, v), "{u} -> {v}");
            }
        }
        // Critical path unchanged.
        assert_eq!(critical_path_weight(&g), critical_path_weight(&r));
    }

    #[test]
    fn transitive_reduction_of_chain_is_identity() {
        let g = TaskGraph::new(vec![1.0; 3], &[(0, 1), (1, 2)]).unwrap();
        let r = transitive_reduction(&g);
        assert_eq!(r.m(), 2);
        assert_eq!(r.edges(), g.edges());
    }

    #[test]
    fn chain_completion_times_accumulate() {
        let g = TaskGraph::new(vec![2.0, 3.0, 4.0], &[(0, 1), (1, 2)]).unwrap();
        let ecl = earliest_completion(&g, &[1.0, 1.5, 2.0]);
        assert_eq!(ecl, vec![1.0, 2.5, 4.5]);
    }
}
