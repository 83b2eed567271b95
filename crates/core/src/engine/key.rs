//! Stable, **incrementally updatable** content keys for
//! `(graph, model)` instances.
//!
//! The service cache and [`super::Engine::solve_batch`] both need to
//! recognize "the same instance" across process boundaries and across
//! distinct allocations: two `.inst` files with identical content must
//! map to one [`taskgraph::PreparedGraph`]. Addresses can't do that,
//! and `std::hash::Hasher` implementations are explicitly not stable
//! across releases/processes — so this module fixes the function.
//!
//! Since protocol v2 the key must also support **patching**: a client
//! that edits a cached instance sends `(base_key, edits)` instead of
//! the whole graph, and the daemon re-keys the cache entry without
//! re-serializing anything. A sequential hash (the v1 FNV-over-stream)
//! cannot do that — changing one weight re-hashes everything after it.
//! The v2 key is therefore a **XOR of independent component terms**:
//!
//! ```text
//! key = size_term(n) ⊕ ⨁ᵢ weight_term(i, wᵢ) ⊕ ⨁₍ᵤ,ᵥ₎ edge_term(u, v)
//!       ⊕ model_term(model)
//! ```
//!
//! where each term is a full 128-bit FNV-1a over a short tagged byte
//! string. XOR is commutative, so edge order is canonicalized for
//! free, and each term is individually removable: a weight edit maps
//! to `key ⊕= old_term ⊕ new_term`, an edge insert/remove to a single
//! `⊕= edge_term` — see [`patched_key`]. Weight terms are tagged with
//! the task id, so two tasks swapping costs changes the key; duplicate
//! terms (which XOR would cancel) cannot occur because ids are unique
//! and [`taskgraph::TaskGraph`] collapses duplicate edges.
//!
//! Task **additions** append id `n` and leave every existing id alone,
//! so they patch incrementally too: swap the size term and XOR in the
//! new task's weight and incident-edge terms. Task **removals**
//! renumber every id above the removed task, which perturbs an
//! unbounded number of terms — [`patched_key`] reports those honestly
//! as non-incremental (`None`) and the caller re-keys with
//! [`content_key`] over the edited graph.
//!
//! 128 bits keep accidental collisions out of reach for any realistic
//! corpus; the cache treats the key as the identity and does not
//! re-verify content on hit.

use models::EnergyModel;
use std::collections::HashMap;
use taskgraph::edit::GraphEdit;
use taskgraph::{TaskGraph, TaskId};

/// 128-bit FNV-1a (offset basis / prime per the FNV reference).
#[derive(Debug, Clone)]
struct Fnv128(u128);

const FNV128_OFFSET: u128 = 0x6c62272e07bb014262b821756295c58d;
const FNV128_PRIME: u128 = 0x0000000001000000000000000000013b;

/// Component tags: every term hashes its tag first, so terms of
/// different kinds can never collide by having equal payload bytes.
const TAG_SIZE: u8 = 0xA0;
const TAG_WEIGHT: u8 = 0xA1;
const TAG_EDGE: u8 = 0xA2;
const TAG_MODEL: u8 = 0xA3;

impl Fnv128 {
    fn new(tag: u8) -> Self {
        let mut h = Fnv128(FNV128_OFFSET);
        h.byte(tag);
        h
    }

    fn byte(&mut self, b: u8) {
        self.0 ^= b as u128;
        self.0 = self.0.wrapping_mul(FNV128_PRIME);
    }

    fn u64(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.byte(b);
        }
    }

    fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }
}

fn size_term(n: usize) -> u128 {
    let mut h = Fnv128::new(TAG_SIZE);
    h.u64(n as u64);
    h.0
}

fn weight_term(task: usize, w: f64) -> u128 {
    let mut h = Fnv128::new(TAG_WEIGHT);
    h.u64(task as u64);
    h.f64(w);
    h.0
}

fn edge_term(u: usize, v: usize) -> u128 {
    let mut h = Fnv128::new(TAG_EDGE);
    h.u64(u as u64);
    h.u64(v as u64);
    h.0
}

fn model_term(model: &EnergyModel) -> u128 {
    let mut h = Fnv128::new(TAG_MODEL);
    match model {
        EnergyModel::Continuous { s_max: None } => h.byte(1),
        EnergyModel::Continuous { s_max: Some(m) } => {
            h.byte(2);
            h.f64(*m);
        }
        EnergyModel::Discrete(m) => {
            h.byte(3);
            for &s in m.speeds() {
                h.f64(s);
            }
        }
        EnergyModel::VddHopping(m) => {
            h.byte(4);
            for &s in m.speeds() {
                h.f64(s);
            }
        }
        EnergyModel::Incremental(m) => {
            h.byte(5);
            h.f64(m.s_min());
            h.f64(m.s_max());
            h.f64(m.delta());
        }
    }
    h.0
}

/// The graph-only part of the key (everything but the model term).
fn graph_key(g: &TaskGraph) -> u128 {
    let mut key = size_term(g.n());
    for (i, &w) in g.weights().iter().enumerate() {
        key ^= weight_term(i, w);
    }
    for &(u, v) in g.edges() {
        key ^= edge_term(u.index(), v.index());
    }
    key
}

/// The stable content key of one `(graph, model)` instance (see the
/// module docs for the construction). Equal content ⇒ equal key, in
/// every process, on every platform; edge order is irrelevant by
/// construction.
pub fn content_key(g: &TaskGraph, model: &EnergyModel) -> u128 {
    graph_key(g) ^ model_term(model)
}

/// Update `base` — the [`content_key`] of `(old, model)` for **any**
/// model — to the key of the edited instance, touching only the terms
/// the edits name. `O(edits)`, independent of graph size: the batch's
/// own overrides (costs by task, edges inserted or removed) are kept
/// apart, and everything else is read from `old` — one weight lookup,
/// or one adjacency scan of the edge's source, per edit.
///
/// Returns `None` only for [`GraphEdit::RemoveTask`]: removal
/// renumbers every id above the removed task, so the honest move is a
/// full [`content_key`] over the edited graph, not a delta.
/// [`GraphEdit::AddTask`] appends id `n` without disturbing existing
/// ids and patches incrementally like everything else.
///
/// Edits must be valid for `old` (the caller has already applied them
/// via [`taskgraph::PreparedInstance::apply`] or
/// [`taskgraph::edit::apply_edits`], which validates); an edit batch
/// this function accepts yields exactly
/// `content_key(edited, model)`:
///
/// ```
/// use models::EnergyModel;
/// use reclaim_core::engine::{content_key, patched_key};
/// use taskgraph::edit::{apply_edits, GraphEdit};
/// use taskgraph::TaskGraph;
///
/// let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
/// let m = EnergyModel::continuous_unbounded();
/// let edits = [GraphEdit::SetWeight { task: 1, weight: 3.5 }];
/// let (edited, _) = apply_edits(&g, &edits).unwrap();
/// let patched = patched_key(content_key(&g, &m), &g, &edits).unwrap();
/// assert_eq!(patched, content_key(&edited, &m));
/// ```
pub fn patched_key(base: u128, old: &TaskGraph, edits: &[GraphEdit]) -> Option<u128> {
    let mut key = base;
    // The batch's overrides of `old` as the delta walks it (edits see
    // the state left by their predecessors, exactly like
    // `apply_edits`): costs by task, and edge presence.
    let mut n = old.n();
    let mut weights: HashMap<usize, f64> = HashMap::new();
    let mut edges: HashMap<(usize, usize), bool> = HashMap::new();
    let present = |edges: &HashMap<(usize, usize), bool>, (u, v): (usize, usize)| {
        edges
            .get(&(u, v))
            .copied()
            .unwrap_or_else(|| u < old.n() && old.has_edge(TaskId(u), TaskId(v)))
    };
    for edit in edits {
        match edit {
            GraphEdit::SetWeight { task, weight } => {
                let prev = match weights.get(task) {
                    Some(&w) => w,
                    None => *old.weights().get(*task)?,
                };
                key ^= weight_term(*task, prev);
                key ^= weight_term(*task, *weight);
                weights.insert(*task, *weight);
            }
            GraphEdit::InsertEdge { from, to } => {
                if !present(&edges, (*from, *to)) {
                    key ^= edge_term(*from, *to);
                    edges.insert((*from, *to), true);
                }
            }
            GraphEdit::RemoveEdge { from, to } => {
                if !present(&edges, (*from, *to)) {
                    return None;
                }
                key ^= edge_term(*from, *to);
                edges.insert((*from, *to), false);
            }
            GraphEdit::AddTask {
                weight,
                preds,
                succs,
            } => {
                key ^= size_term(n);
                key ^= size_term(n + 1);
                key ^= weight_term(n, *weight);
                weights.insert(n, *weight);
                // Mirror `apply_edits` / `TaskGraph::new`: duplicate
                // entries in preds/succs collapse to one edge (and one
                // term — a repeated XOR would cancel itself out).
                for e in preds
                    .iter()
                    .map(|&p| (p, n))
                    .chain(succs.iter().map(|&s| (n, s)))
                {
                    if !present(&edges, e) {
                        key ^= edge_term(e.0, e.1);
                        edges.insert(e, true);
                    }
                }
                n += 1;
            }
            GraphEdit::RemoveTask { .. } => return None,
        }
    }
    Some(key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use models::DiscreteModes;
    use taskgraph::edit::apply_edits;

    fn modes() -> DiscreteModes {
        DiscreteModes::new(&[1.0, 2.0]).unwrap()
    }

    #[test]
    fn identical_content_same_key_across_allocations() {
        let a = TaskGraph::new(vec![1.0, 2.0, 3.0], &[(0, 1), (1, 2)]).unwrap();
        let b = TaskGraph::new(vec![1.0, 2.0, 3.0], &[(0, 1), (1, 2)]).unwrap();
        let m = EnergyModel::continuous_unbounded();
        assert_eq!(content_key(&a, &m), content_key(&b, &m));
    }

    #[test]
    fn edge_order_is_canonicalized() {
        let a = TaskGraph::new(vec![1.0, 1.0, 1.0], &[(0, 1), (0, 2)]).unwrap();
        let b = TaskGraph::new(vec![1.0, 1.0, 1.0], &[(0, 2), (0, 1)]).unwrap();
        let m = EnergyModel::continuous_unbounded();
        assert_eq!(content_key(&a, &m), content_key(&b, &m));
    }

    #[test]
    fn every_component_feeds_the_key() {
        let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
        let base = content_key(&g, &EnergyModel::continuous_unbounded());
        // Different weights.
        let g2 = TaskGraph::new(vec![1.0, 2.5], &[(0, 1)]).unwrap();
        assert_ne!(content_key(&g2, &EnergyModel::continuous_unbounded()), base);
        // Different edges.
        let g3 = TaskGraph::new(vec![1.0, 2.0], &[]).unwrap();
        assert_ne!(content_key(&g3, &EnergyModel::continuous_unbounded()), base);
        // Different model kind / parameters.
        assert_ne!(content_key(&g, &EnergyModel::continuous(2.0)), base);
        assert_ne!(content_key(&g, &EnergyModel::Discrete(modes())), base);
        assert_ne!(content_key(&g, &EnergyModel::VddHopping(modes())), base);
        // Discrete and Vdd-Hopping over the same ladder must differ.
        assert_ne!(
            content_key(&g, &EnergyModel::Discrete(modes())),
            content_key(&g, &EnergyModel::VddHopping(modes()))
        );
    }

    #[test]
    fn swapped_weights_change_the_key() {
        // XOR terms are id-tagged: two tasks exchanging costs is a
        // different instance, not a cancellation.
        let a = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
        let b = TaskGraph::new(vec![2.0, 1.0], &[(0, 1)]).unwrap();
        let m = EnergyModel::continuous_unbounded();
        assert_ne!(content_key(&a, &m), content_key(&b, &m));
    }

    #[test]
    fn key_is_pinned() {
        // The key is part of the wire/cache contract: a change to the
        // construction is a protocol break and must be deliberate.
        // (Deliberately changed in protocol v2: the v1 sequential FNV
        // could not be patched incrementally.)
        let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
        assert_eq!(
            content_key(&g, &EnergyModel::continuous_unbounded()),
            0x36bd_06bc_a277_3179_37d0_2054_da46_d064_u128,
        );
    }

    #[test]
    fn patched_key_matches_full_rehash() {
        let g =
            TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let models = [
            EnergyModel::continuous_unbounded(),
            EnergyModel::VddHopping(modes()),
        ];
        let batches: Vec<Vec<GraphEdit>> = vec![
            vec![GraphEdit::SetWeight {
                task: 1,
                weight: 9.0,
            }],
            vec![
                GraphEdit::SetWeight {
                    task: 0,
                    weight: 0.5,
                },
                GraphEdit::InsertEdge { from: 1, to: 2 },
            ],
            vec![
                GraphEdit::RemoveEdge { from: 0, to: 2 },
                GraphEdit::InsertEdge { from: 0, to: 2 }, // net no-op
            ],
        ];
        for m in &models {
            let base = content_key(&g, m);
            for edits in &batches {
                let (edited, _) = apply_edits(&g, edits).unwrap();
                assert_eq!(
                    patched_key(base, &g, edits),
                    Some(content_key(&edited, m)),
                    "delta diverged for {edits:?}"
                );
            }
        }
        // Inserting an existing edge is a no-op for the key too.
        let noop = [GraphEdit::InsertEdge { from: 0, to: 1 }];
        let m = &models[0];
        assert_eq!(
            patched_key(content_key(&g, m), &g, &noop),
            Some(content_key(&g, m))
        );
    }

    #[test]
    fn in_batch_overrides_patch_like_a_rehash() {
        let g =
            TaskGraph::new(vec![1.0, 2.0, 3.0, 4.0], &[(0, 1), (0, 2), (1, 3), (2, 3)]).unwrap();
        let m = EnergyModel::VddHopping(modes());
        let base = content_key(&g, &m);
        let batches: Vec<Vec<GraphEdit>> = vec![
            // The same task set twice: the second edit sees the first.
            vec![
                GraphEdit::SetWeight {
                    task: 2,
                    weight: 5.0,
                },
                GraphEdit::SetWeight {
                    task: 2,
                    weight: 0.75,
                },
            ],
            // An edge inserted, then removed again.
            vec![
                GraphEdit::InsertEdge { from: 1, to: 2 },
                GraphEdit::RemoveEdge { from: 1, to: 2 },
            ],
            // An existing edge re-inserted, alone and after its removal.
            vec![GraphEdit::InsertEdge { from: 0, to: 1 }],
            vec![
                GraphEdit::RemoveEdge { from: 0, to: 1 },
                GraphEdit::InsertEdge { from: 0, to: 1 },
                GraphEdit::InsertEdge { from: 0, to: 1 },
            ],
            // Overrides on a task the batch itself added.
            vec![
                GraphEdit::AddTask {
                    weight: 1.5,
                    preds: vec![3],
                    succs: vec![],
                },
                GraphEdit::SetWeight {
                    task: 4,
                    weight: 2.5,
                },
                GraphEdit::RemoveEdge { from: 3, to: 4 },
                GraphEdit::InsertEdge { from: 1, to: 4 },
            ],
        ];
        for edits in &batches {
            let (edited, _) = apply_edits(&g, edits).unwrap();
            assert_eq!(
                patched_key(base, &g, edits),
                Some(content_key(&edited, &m)),
                "delta diverged for {edits:?}"
            );
        }
        // Removing an edge the batch already removed is refused.
        let twice = [
            GraphEdit::RemoveEdge { from: 0, to: 1 },
            GraphEdit::RemoveEdge { from: 0, to: 1 },
        ];
        assert_eq!(patched_key(base, &g, &twice), None);
    }

    #[test]
    fn add_task_patches_incrementally() {
        let g = TaskGraph::new(vec![1.0, 2.0, 3.0], &[(0, 1), (0, 2)]).unwrap();
        let m = EnergyModel::VddHopping(modes());
        let base = content_key(&g, &m);
        let batches: Vec<Vec<GraphEdit>> = vec![
            vec![GraphEdit::AddTask {
                weight: 4.0,
                preds: vec![1, 2],
                succs: vec![],
            }],
            // Duplicate pred entries collapse to one edge (and one
            // key term), like TaskGraph::new.
            vec![GraphEdit::AddTask {
                weight: 4.0,
                preds: vec![1, 1],
                succs: vec![],
            }],
            // Two additions in one batch: the second sees n + 1.
            vec![
                GraphEdit::AddTask {
                    weight: 4.0,
                    preds: vec![2],
                    succs: vec![],
                },
                GraphEdit::AddTask {
                    weight: 0.5,
                    preds: vec![3],
                    succs: vec![],
                },
                GraphEdit::SetWeight {
                    task: 3,
                    weight: 6.0,
                },
            ],
        ];
        for edits in &batches {
            let (edited, _) = apply_edits(&g, edits).unwrap();
            assert_eq!(
                patched_key(base, &g, edits),
                Some(content_key(&edited, &m)),
                "delta diverged for {edits:?}"
            );
        }
    }

    #[test]
    fn task_removal_is_not_incremental() {
        let g = TaskGraph::new(vec![1.0, 2.0], &[(0, 1)]).unwrap();
        let m = EnergyModel::continuous_unbounded();
        let base = content_key(&g, &m);
        let edits = vec![GraphEdit::RemoveTask { task: 0 }];
        assert_eq!(patched_key(base, &g, &edits), None);
        // The fallback — a full rehash of the edited graph — still
        // works and differs from the base.
        let (edited, _) = apply_edits(&g, &edits).unwrap();
        assert_ne!(content_key(&edited, &m), base);
    }
}
