//! Incremental graph edits.
//!
//! The paper's whole setting is *re-solving* `MinEnergy(Ĝ, D)` as the
//! instance evolves: a task's cost estimate is refined, a precedence
//! constraint appears or goes away, a task is added to or dropped from
//! the workflow. Rebuilding a [`TaskGraph`] from scratch for every such
//! change is easy; what is expensive is re-deriving the *analysis*
//! (topological order, shape classification, SP decomposition,
//! transitive reduction) that [`crate::PreparedInstance`] has already
//! paid for.
//!
//! This module defines the edit vocabulary — [`GraphEdit`] — and the
//! pure application function [`apply_edits`], which produces the edited
//! graph **plus** an [`EditEffect`] describing exactly which cached
//! analyses the edit batch can have dirtied. The selective cache
//! carryover itself lives in [`crate::PreparedInstance::apply`]:
//!
//! * weight-only batches preserve *every* structural cache (topological
//!   order, shape class, SP tree, transitive reduction), and the edited
//!   graph shares its base's topology ([`TaskGraph::with_weights`]) —
//!   only the completion times must be re-evaluated, by a cone-bounded
//!   relaxation seeded at the re-weighted tasks;
//! * edge edits keep the topological order (repaired in place by a
//!   localized Pearce–Kelly shift when an insertion breaks it) and
//!   *repair* the SP tree, reduction, and completion times locally
//!   within the edit's cone, falling back to recomputation only when
//!   a repair provably cannot apply;
//! * task additions/removals renumber or extend the id space and drop
//!   everything.
//!
//! To make that possible, [`EditEffect`] carries a touched-region
//! summary (net edge changes, their endpoint set, re-weighted tasks)
//! plus the repaired order itself.
//!
//! Edits validate exactly like [`TaskGraph::new`]: bad endpoints,
//! self-loops, non-positive weights, and introduced cycles are
//! rejected with an [`EditError`], leaving the original graph
//! untouched (application is copy-on-write, never in-place).

use std::collections::HashMap;
use std::fmt;

use crate::analysis;
use crate::graph::{GraphError, TaskGraph, TaskId};

/// One incremental edit to a task graph.
///
/// Task ids are the dense `0..n` indices of the graph the edit is
/// applied to. Within a batch, edits apply **in order**, and each edit
/// sees the ids as left by the previous one (in particular,
/// [`GraphEdit::RemoveTask`] renumbers every id above the removed one,
/// and [`GraphEdit::AddTask`] appends id `n`).
#[derive(Debug, Clone, PartialEq)]
pub enum GraphEdit {
    /// Replace the cost of `task` with `weight` (> 0, finite).
    SetWeight {
        /// The task whose cost changes.
        task: usize,
        /// The new cost.
        weight: f64,
    },
    /// Add the precedence edge `(from, to)`. Adding an existing edge
    /// is a no-op (duplicate edges collapse, as in [`TaskGraph::new`]).
    InsertEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// Remove the precedence edge `(from, to)`. The edge must exist.
    RemoveEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// Append a new task (id `n`) with the given cost and incident
    /// edges (`preds → new`, `new → succs`).
    AddTask {
        /// Cost of the new task.
        weight: f64,
        /// Predecessors of the new task.
        preds: Vec<usize>,
        /// Successors of the new task.
        succs: Vec<usize>,
    },
    /// Remove `task` and every incident edge; tasks above it shift
    /// down by one (ids stay dense).
    RemoveTask {
        /// The task to remove.
        task: usize,
    },
}

impl GraphEdit {
    /// Whether this edit touches only task costs, leaving the
    /// precedence structure (and hence every structural cache) intact.
    pub fn is_weight_only(&self) -> bool {
        matches!(self, GraphEdit::SetWeight { .. })
    }

    /// Whether this edit changes the task set (and hence the id
    /// space), invalidating anything indexed by `TaskId`.
    pub fn changes_task_set(&self) -> bool {
        matches!(
            self,
            GraphEdit::AddTask { .. } | GraphEdit::RemoveTask { .. }
        )
    }
}

impl fmt::Display for GraphEdit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphEdit::SetWeight { task, weight } => write!(f, "set w(T{task}) = {weight}"),
            GraphEdit::InsertEdge { from, to } => write!(f, "insert edge T{from} -> T{to}"),
            GraphEdit::RemoveEdge { from, to } => write!(f, "remove edge T{from} -> T{to}"),
            GraphEdit::AddTask {
                weight,
                preds,
                succs,
            } => {
                write!(
                    f,
                    "add task w = {weight} ({} preds, {} succs)",
                    preds.len(),
                    succs.len()
                )
            }
            GraphEdit::RemoveTask { task } => write!(f, "remove task T{task}"),
        }
    }
}

/// Why an edit batch could not be applied.
#[derive(Debug, Clone, PartialEq)]
pub enum EditError {
    /// The edited edge/weight set is not a valid DAG instance
    /// (introduced cycle, bad weight, bad endpoint, self-loop).
    Graph(GraphError),
    /// [`GraphEdit::RemoveEdge`] named an edge that is not present.
    MissingEdge {
        /// Edge source.
        from: usize,
        /// Edge target.
        to: usize,
    },
    /// An edit referenced a task id `>= n` (as seen at that point of
    /// the batch).
    BadTask(usize),
    /// [`GraphEdit::RemoveTask`] would leave the graph empty.
    WouldBeEmpty,
}

impl fmt::Display for EditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EditError::Graph(e) => write!(f, "edit produces an invalid graph: {e}"),
            EditError::MissingEdge { from, to } => {
                write!(f, "cannot remove absent edge T{from} -> T{to}")
            }
            EditError::BadTask(t) => write!(f, "edit references unknown task T{t}"),
            EditError::WouldBeEmpty => write!(f, "cannot remove the last task"),
        }
    }
}

impl std::error::Error for EditError {}

impl From<GraphError> for EditError {
    fn from(e: GraphError) -> Self {
        EditError::Graph(e)
    }
}

/// What an applied edit batch can have dirtied — the contract
/// [`crate::PreparedInstance::apply`] uses to decide which caches
/// survive or get locally repaired. Beyond the three coarse flags it
/// carries a **touched-region summary**: the net edge changes, their
/// endpoint set (the edit's cone entry points), the re-weighted tasks,
/// and — when an insertion broke the retained topological order — a
/// repaired order produced by a localized Pearce–Kelly shift
/// ([`crate::analysis::repair_topo_order`]) instead of a recompute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EditEffect {
    /// Every edit was [`GraphEdit::SetWeight`]: the precedence
    /// structure is untouched, so topological order, shape class, SP
    /// tree, and transitive reduction all remain valid.
    pub weight_only: bool,
    /// The old topological order is still a topological order of the
    /// edited graph (true for weight-only and pure-removal batches;
    /// checked explicitly when edges were inserted). Meaningless when
    /// the task set changed.
    pub topo_preserved: bool,
    /// The task set (and hence the id space) changed.
    pub task_set_changed: bool,
    /// Net new edges: present in the edited graph, absent from the
    /// original, in edited edge-list order. Empty when the task set
    /// changed (the id spaces are not comparable) — local repair does
    /// not apply there.
    pub inserted_edges: Vec<(usize, usize)>,
    /// Net removed edges: present in the original, absent from the
    /// edited graph, sorted. Empty when the task set changed.
    pub removed_edges: Vec<(usize, usize)>,
    /// Deduplicated, sorted endpoint set of every net edge change —
    /// the entry points of the edit's cone, which bounds every local
    /// repair pass. Empty for weight-only batches.
    pub touched: Vec<usize>,
    /// Tasks whose cost actually changed (net, bitwise). Seeds the
    /// cone-bounded completion-time relaxation.
    pub reweighted: Vec<usize>,
    /// A valid topological order of the edited graph, present exactly
    /// when the retained order broke (an insertion pointed backwards)
    /// but the task set is unchanged: the affected window was shifted
    /// locally rather than recomputed. `None` whenever
    /// [`EditEffect::topo_preserved`] is true (the old order still
    /// works) or the task set changed (nothing to repair from).
    pub repaired_order: Option<Vec<TaskId>>,
}

/// Apply an edit batch to a graph, returning the edited graph and the
/// [`EditEffect`] describing what the batch can have invalidated. The
/// input graph is never modified; on error nothing is produced.
pub fn apply_edits(
    g: &TaskGraph,
    edits: &[GraphEdit],
) -> Result<(TaskGraph, EditEffect), EditError> {
    apply_edits_ordered(g, edits, None)
}

/// [`apply_edits`] with a caller-supplied topological order of `g`
/// (must be valid for `g`): the edge-insertion validity check then
/// reuses it instead of re-deriving one — what
/// [`crate::PreparedInstance::apply`] does with its cached order.
///
/// A batch that keeps the task set never rebuilds the graph: presence
/// checks read the adjacency, the edited topology is one copy pass
/// over the old one, the net edge changes
/// come from the batch itself, and acyclicity follows from the old
/// order unless an insertion breaks it.
pub(crate) fn apply_edits_ordered(
    g: &TaskGraph,
    edits: &[GraphEdit],
    old_order: Option<&[TaskId]>,
) -> Result<(TaskGraph, EditEffect), EditError> {
    debug_assert!(
        old_order.is_none_or(|o| analysis::is_topo_order(g, o)),
        "old_order must be a topological order of the pre-edit graph"
    );
    if edits.iter().any(GraphEdit::changes_task_set) {
        return apply_task_edits(g, edits);
    }
    let n = g.n();
    let mut weights: Vec<f64> = g.weights().to_vec();
    // Edges the batch touched: `None` once removed, `Some(k)` once
    // appended by the batch's k-th edit. Untouched edges keep their
    // old presence and position.
    let mut touched_edges: HashMap<(usize, usize), Option<usize>> = HashMap::new();
    let present =
        |e: &HashMap<(usize, usize), Option<usize>>, u: usize, v: usize| match e.get(&(u, v)) {
            Some(state) => state.is_some(),
            None => u < n && v < n && g.has_edge(TaskId(u), TaskId(v)),
        };
    for (k, edit) in edits.iter().enumerate() {
        match *edit {
            GraphEdit::SetWeight { task, weight } => set_weight(&mut weights, task, weight)?,
            GraphEdit::InsertEdge { from, to } => {
                check_insert(n, from, to)?;
                if !present(&touched_edges, from, to) {
                    touched_edges.insert((from, to), Some(k));
                }
            }
            GraphEdit::RemoveEdge { from, to } => {
                if !present(&touched_edges, from, to) {
                    return Err(EditError::MissingEdge { from, to });
                }
                touched_edges.insert((from, to), None);
            }
            GraphEdit::AddTask { .. } | GraphEdit::RemoveTask { .. } => {
                unreachable!("task edits take apply_task_edits")
            }
        }
    }
    let reweighted = reweighted(g, edits, &weights);

    // A weight-only batch leaves the edge set, and so the topology and
    // every order of it, exactly as they were: share them.
    if edits.iter().all(GraphEdit::is_weight_only) {
        return Ok((
            g.with_weights(weights)?,
            EditEffect {
                weight_only: true,
                topo_preserved: true,
                task_set_changed: false,
                inserted_edges: Vec::new(),
                removed_edges: Vec::new(),
                touched: Vec::new(),
                reweighted,
                repaired_order: None,
            },
        ));
    }

    // Net changes. An old edge the batch touched leaves its place: it
    // is gone, or re-appended at the end (remove, then insert again).
    let mut dropped = Vec::new();
    let mut appended = Vec::new();
    let mut removed_edges = Vec::new();
    let mut inserted_edges = Vec::new();
    for (&(u, v), &state) in &touched_edges {
        let old = g.has_edge(TaskId(u), TaskId(v));
        if old {
            dropped.push((u, v));
        }
        match state {
            Some(k) => {
                appended.push((k, (u, v)));
                if !old {
                    inserted_edges.push((k, (u, v)));
                }
            }
            None if old => removed_edges.push((u, v)),
            None => {}
        }
    }
    dropped.sort_unstable();
    removed_edges.sort_unstable();
    appended.sort_unstable();
    inserted_edges.sort_unstable();
    let appended: Vec<(usize, usize)> = appended.into_iter().map(|(_, e)| e).collect();
    let inserted_edges: Vec<(usize, usize)> = inserted_edges.into_iter().map(|(_, e)| e).collect();
    let edited = g.rewired(weights, &dropped, &appended);

    let mut touched: Vec<usize> = inserted_edges
        .iter()
        .chain(&removed_edges)
        .flat_map(|&(u, v)| [u, v])
        .collect();
    touched.sort_unstable();
    touched.dedup();

    // An order valid for the old edge set stays valid when edges are
    // only removed or weights change; an insertion may point
    // "backwards" in it. Then the insertion may also close a cycle:
    // the same Kahn pass `TaskGraph::new` runs decides, and otherwise
    // the order is repaired by a localized Pearce–Kelly shift.
    let mut repaired_order = None;
    if !inserted_edges.is_empty() {
        // Cheap relative to any recomputation the failed carryover
        // would force; does not bump the profiling counters, and
        // reuses the caller's order when one was supplied.
        let computed;
        let order: &[TaskId] = match old_order {
            Some(o) => o,
            None => {
                computed = analysis::topo_order_quiet(g);
                &computed
            }
        };
        let pos = analysis::positions(order);
        if inserted_edges.iter().any(|&(u, v)| pos[u] > pos[v]) {
            if let Some(c) = edited.find_cycle_node() {
                return Err(GraphError::Cycle(c).into());
            }
            // `order` is valid for the edited graph minus the inserted
            // edges (removals never break it), which is exactly what
            // the localized repair needs.
            repaired_order = Some(analysis::repair_topo_order(&edited, order, &inserted_edges));
        }
    }
    Ok((
        edited,
        EditEffect {
            weight_only: false,
            topo_preserved: repaired_order.is_none(),
            task_set_changed: false,
            inserted_edges,
            removed_edges,
            touched,
            reweighted,
            repaired_order,
        },
    ))
}

/// A batch that adds or removes tasks: the id space changes, so the
/// edited edge list is rebuilt through [`TaskGraph::new`] and the
/// effect carries no touched-region summary.
fn apply_task_edits(
    g: &TaskGraph,
    edits: &[GraphEdit],
) -> Result<(TaskGraph, EditEffect), EditError> {
    let mut weights: Vec<f64> = g.weights().to_vec();
    let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
    for edit in edits {
        let n = weights.len();
        match edit {
            GraphEdit::SetWeight { task, weight } => set_weight(&mut weights, *task, *weight)?,
            GraphEdit::InsertEdge { from, to } => {
                check_insert(n, *from, *to)?;
                if !edges.contains(&(*from, *to)) {
                    edges.push((*from, *to));
                }
            }
            GraphEdit::RemoveEdge { from, to } => {
                let Some(pos) = edges.iter().position(|e| e == &(*from, *to)) else {
                    return Err(EditError::MissingEdge {
                        from: *from,
                        to: *to,
                    });
                };
                edges.remove(pos);
            }
            GraphEdit::AddTask {
                weight,
                preds,
                succs,
            } => {
                for &p in preds.iter().chain(succs) {
                    if p >= n {
                        return Err(EditError::BadTask(p));
                    }
                }
                weights.push(*weight);
                edges.extend(preds.iter().map(|&p| (p, n)));
                edges.extend(succs.iter().map(|&s| (n, s)));
            }
            GraphEdit::RemoveTask { task } => {
                if *task >= n {
                    return Err(EditError::BadTask(*task));
                }
                if n == 1 {
                    return Err(EditError::WouldBeEmpty);
                }
                weights.remove(*task);
                let shift = |i: usize| if i > *task { i - 1 } else { i };
                edges.retain(|&(u, v)| u != *task && v != *task);
                for e in edges.iter_mut() {
                    *e = (shift(e.0), shift(e.1));
                }
            }
        }
    }
    Ok((
        TaskGraph::new(weights, &edges)?,
        EditEffect {
            weight_only: false,
            topo_preserved: false,
            task_set_changed: true,
            inserted_edges: Vec::new(),
            removed_edges: Vec::new(),
            touched: Vec::new(),
            reweighted: Vec::new(),
            repaired_order: None,
        },
    ))
}

/// Validate and apply one [`GraphEdit::SetWeight`].
fn set_weight(weights: &mut [f64], task: usize, weight: f64) -> Result<(), EditError> {
    if task >= weights.len() {
        return Err(EditError::BadTask(task));
    }
    if !(weight.is_finite() && weight > 0.0) {
        return Err(GraphError::BadWeight { task, weight }.into());
    }
    weights[task] = weight;
    Ok(())
}

/// The endpoint checks [`GraphEdit::InsertEdge`] shares with
/// [`TaskGraph::new`].
fn check_insert(n: usize, from: usize, to: usize) -> Result<(), EditError> {
    if from >= n {
        return Err(EditError::BadTask(from));
    }
    if to >= n {
        return Err(EditError::BadTask(to));
    }
    if from == to {
        return Err(GraphError::SelfLoop(from).into());
    }
    Ok(())
}

/// Tasks whose cost actually changed (net, bitwise), sorted. Set-weight
/// ids name stable tasks because the task set is unchanged.
fn reweighted(g: &TaskGraph, edits: &[GraphEdit], weights: &[f64]) -> Vec<usize> {
    let mut rew: Vec<usize> = edits
        .iter()
        .filter_map(|e| match e {
            GraphEdit::SetWeight { task, .. } => Some(*task),
            _ => None,
        })
        .collect();
    rew.sort_unstable();
    rew.dedup();
    rew.retain(|&i| g.weights()[i] != weights[i]);
    rew
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn diamond() -> TaskGraph {
        generators::diamond([1.0, 2.0, 3.0, 4.0])
    }

    #[test]
    fn set_weight_is_weight_only() {
        let g = diamond();
        let (edited, eff) = apply_edits(
            &g,
            &[
                GraphEdit::SetWeight {
                    task: 1,
                    weight: 5.0,
                },
                GraphEdit::SetWeight {
                    task: 3,
                    weight: 0.5,
                },
            ],
        )
        .unwrap();
        assert!(eff.weight_only && eff.topo_preserved && !eff.task_set_changed);
        assert_eq!(edited.weights(), &[1.0, 5.0, 3.0, 0.5]);
        assert_eq!(edited.edges(), g.edges());
    }

    #[test]
    fn insert_and_remove_edges() {
        let g = diamond();
        let (edited, eff) = apply_edits(&g, &[GraphEdit::InsertEdge { from: 1, to: 2 }]).unwrap();
        assert!(!eff.weight_only && !eff.task_set_changed);
        assert!(edited.has_edge(TaskId(1), TaskId(2)));
        // 0→1→2→3 still respects the canonical diamond order 0,1,2,3.
        assert!(eff.topo_preserved);

        let (edited, eff) = apply_edits(&g, &[GraphEdit::RemoveEdge { from: 0, to: 2 }]).unwrap();
        assert!(eff.topo_preserved, "removal never breaks the order");
        assert!(!edited.has_edge(TaskId(0), TaskId(2)));
        assert_eq!(edited.m(), 3);
    }

    #[test]
    fn backwards_insertion_drops_topo() {
        // Chain 0→1→2 plus an inserted edge 2→...? that would cycle;
        // instead build two independent chains where the old order puts
        // the new edge backwards.
        let g = TaskGraph::new(vec![1.0; 4], &[(0, 1), (2, 3)]).unwrap();
        let order = analysis::topo_order(&g);
        // Find two unordered tasks where `to` precedes `from` in the
        // retained order, then insert from→to: legal, but the old order
        // no longer works.
        let pos = |t: usize| order.iter().position(|&x| x.0 == t).unwrap();
        let (from, to) = if pos(2) < pos(0) { (0, 2) } else { (2, 0) };
        let (edited, eff) = apply_edits(&g, &[GraphEdit::InsertEdge { from, to }]).unwrap();
        assert!(!eff.topo_preserved);
        assert_eq!(edited.m(), 3);
        // …but the effect carries a locally repaired order instead.
        let repaired = eff.repaired_order.expect("broken order must be repaired");
        assert!(analysis::is_topo_order(&edited, &repaired));
    }

    #[test]
    fn effect_summarizes_touched_region() {
        let g = diamond();
        let (_, eff) = apply_edits(
            &g,
            &[
                GraphEdit::RemoveEdge { from: 0, to: 2 },
                GraphEdit::InsertEdge { from: 1, to: 2 },
                GraphEdit::SetWeight {
                    task: 3,
                    weight: 9.0,
                },
            ],
        )
        .unwrap();
        assert_eq!(eff.inserted_edges, vec![(1, 2)]);
        assert_eq!(eff.removed_edges, vec![(0, 2)]);
        assert_eq!(eff.touched, vec![0, 1, 2]);
        assert_eq!(eff.reweighted, vec![3]);
        // Insert-then-remove of the same edge nets out to nothing.
        let (_, eff) = apply_edits(
            &g,
            &[
                GraphEdit::InsertEdge { from: 1, to: 2 },
                GraphEdit::RemoveEdge { from: 1, to: 2 },
            ],
        )
        .unwrap();
        assert!(eff.inserted_edges.is_empty() && eff.removed_edges.is_empty());
        assert!(eff.touched.is_empty());
        assert!(eff.topo_preserved);
    }

    #[test]
    fn add_and_remove_task() {
        let g = diamond();
        let (edited, eff) = apply_edits(
            &g,
            &[GraphEdit::AddTask {
                weight: 2.5,
                preds: vec![3],
                succs: vec![],
            }],
        )
        .unwrap();
        assert!(eff.task_set_changed && !eff.topo_preserved);
        assert_eq!(edited.n(), 5);
        assert!(edited.has_edge(TaskId(3), TaskId(4)));

        let (edited, _) = apply_edits(&g, &[GraphEdit::RemoveTask { task: 1 }]).unwrap();
        assert_eq!(edited.n(), 3);
        // Old task 2 is now id 1, old task 3 is id 2.
        assert_eq!(edited.weights(), &[1.0, 3.0, 4.0]);
        assert!(edited.has_edge(TaskId(0), TaskId(1)));
        assert!(edited.has_edge(TaskId(1), TaskId(2)));
        assert_eq!(edited.m(), 2);
    }

    #[test]
    fn batch_applies_in_order_across_renumbering() {
        let g = diamond();
        // Remove task 0; former task 1 becomes 0 — the SetWeight that
        // follows must see the new numbering.
        let (edited, _) = apply_edits(
            &g,
            &[
                GraphEdit::RemoveTask { task: 0 },
                GraphEdit::SetWeight {
                    task: 0,
                    weight: 9.0,
                },
            ],
        )
        .unwrap();
        assert_eq!(edited.weights(), &[9.0, 3.0, 4.0]);
    }

    #[test]
    fn errors_reject_whole_batch() {
        let g = diamond();
        for (edits, want) in [
            (
                vec![GraphEdit::SetWeight {
                    task: 9,
                    weight: 1.0,
                }],
                EditError::BadTask(9),
            ),
            (
                vec![GraphEdit::RemoveEdge { from: 1, to: 2 }],
                EditError::MissingEdge { from: 1, to: 2 },
            ),
            (
                vec![GraphEdit::SetWeight {
                    task: 0,
                    weight: -1.0,
                }],
                EditError::Graph(GraphError::BadWeight {
                    task: 0,
                    weight: -1.0,
                }),
            ),
        ] {
            assert_eq!(apply_edits(&g, &edits).unwrap_err(), want);
        }
        // Introduced cycle.
        assert!(matches!(
            apply_edits(&g, &[GraphEdit::InsertEdge { from: 3, to: 0 }]),
            Err(EditError::Graph(GraphError::Cycle(_)))
        ));
        // Cannot empty the graph.
        let single = TaskGraph::single(1.0);
        assert_eq!(
            apply_edits(&single, &[GraphEdit::RemoveTask { task: 0 }]).unwrap_err(),
            EditError::WouldBeEmpty
        );
    }

    /// `apply_edits(g, edits)` equals [`TaskGraph::new`] on `edges`
    /// (the edited edge list), slice for slice.
    fn assert_matches_rebuild(g: &TaskGraph, edits: &[GraphEdit], edges: &[(usize, usize)]) {
        let (edited, _) = apply_edits(g, edits).unwrap();
        let rebuilt = TaskGraph::new(g.weights().to_vec(), edges).unwrap();
        assert_eq!(edited, rebuilt);
        assert_eq!(edited.edges(), rebuilt.edges());
        for t in rebuilt.tasks() {
            assert_eq!(edited.succs(t), rebuilt.succs(t), "successors of {t}");
            assert_eq!(edited.preds(t), rebuilt.preds(t), "predecessors of {t}");
        }
    }

    #[test]
    fn remove_then_reinsert_moves_the_edge_to_the_end() {
        assert_matches_rebuild(
            &diamond(),
            &[
                GraphEdit::RemoveEdge { from: 0, to: 1 },
                GraphEdit::InsertEdge { from: 0, to: 1 },
                GraphEdit::RemoveEdge { from: 1, to: 3 },
                GraphEdit::InsertEdge { from: 1, to: 3 },
            ],
            &[(0, 2), (2, 3), (0, 1), (1, 3)],
        );
    }

    #[test]
    fn insert_then_remove_leaves_the_graph_as_it_was() {
        assert_matches_rebuild(
            &diamond(),
            &[
                GraphEdit::InsertEdge { from: 1, to: 2 },
                GraphEdit::RemoveEdge { from: 1, to: 2 },
            ],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
    }

    #[test]
    fn inserting_a_present_edge_is_a_no_op() {
        assert_matches_rebuild(
            &diamond(),
            &[GraphEdit::InsertEdge { from: 0, to: 2 }],
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
        );
    }

    #[test]
    fn removing_an_absent_edge_is_missing_edge() {
        let remove = |from, to| GraphEdit::RemoveEdge { from, to };
        let insert = |from, to| GraphEdit::InsertEdge { from, to };
        for (edits, (from, to)) in [
            (vec![remove(1, 2)], (1, 2)),
            (vec![remove(2, 1)], (2, 1)),
            (vec![remove(1, 2), insert(1, 2)], (1, 2)),
            (vec![insert(1, 2), remove(2, 1)], (2, 1)),
            (vec![remove(0, 1), remove(0, 1)], (0, 1)),
        ] {
            assert_eq!(
                apply_edits(&diamond(), &edits).unwrap_err(),
                EditError::MissingEdge { from, to }
            );
        }
    }

    #[test]
    fn closing_a_cycle_fails_like_new() {
        // Two chains; the first insertion points forwards, the second
        // backwards and closes 0 → 1 → 2 → 3 → 0.
        let g = TaskGraph::new(vec![1.0; 5], &[(0, 1), (2, 3), (3, 4)]).unwrap();
        let edits = [
            GraphEdit::InsertEdge { from: 1, to: 2 },
            GraphEdit::InsertEdge { from: 3, to: 0 },
        ];
        let via_new =
            TaskGraph::new(vec![1.0; 5], &[(0, 1), (2, 3), (3, 4), (1, 2), (3, 0)]).unwrap_err();
        assert!(matches!(via_new, GraphError::Cycle(_)));
        let err = apply_edits(&g, &edits).unwrap_err();
        assert_eq!(err, EditError::Graph(via_new.clone()));
        assert_eq!(
            err.to_string(),
            format!("edit produces an invalid graph: {via_new}")
        );
    }

    #[test]
    fn edit_matches_rebuild_from_scratch() {
        let g = diamond();
        let edits = [
            GraphEdit::SetWeight {
                task: 2,
                weight: 7.0,
            },
            GraphEdit::InsertEdge { from: 1, to: 2 },
            GraphEdit::AddTask {
                weight: 1.5,
                preds: vec![3],
                succs: vec![],
            },
        ];
        let (edited, _) = apply_edits(&g, &edits).unwrap();
        let rebuilt = TaskGraph::new(
            vec![1.0, 2.0, 7.0, 4.0, 1.5],
            &[(0, 1), (0, 2), (1, 3), (2, 3), (1, 2), (3, 4)],
        )
        .unwrap();
        assert_eq!(edited, rebuilt);
    }
}
