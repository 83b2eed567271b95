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
//!
//! The tree is stored flat: an array of nodes with parent links, held
//! in shared copy-on-write chunks, and one array of child lists in
//! which a leaf child is its task. [`SpTree::splice`] reaches a
//! touched leaf through its parent links in O(depth) and edits a copy
//! that shares every node chunk it does not write.

use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

use crate::analysis::topo_order;
use crate::graph::{TaskGraph, TaskId};

/// No node: the root's parent, or a task without a leaf.
const NONE: u32 = u32::MAX;

/// The flag of a child-list entry that is a leaf: `LEAF | task`.
/// Every other entry is a composite's node.
const LEAF: u32 = 1 << 31;

/// Nodes per shared chunk of [`Nodes`].
const CHUNK: usize = 128;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Leaf,
    Series,
    Parallel,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    kind: Kind,
    /// Parent node, [`NONE`] at the root.
    parent: u32,
    /// Index in the parent's child list.
    pos: u32,
    /// A leaf's task; a composite's first slot in `kids`.
    at: u32,
    /// A composite's number of children (0 for a leaf).
    len: u32,
    /// Smallest task id in the subtree: the key canonical parallel
    /// children are sorted by.
    min: u32,
}

impl Node {
    /// The leaf of task `t`, unattached.
    fn leaf(t: u32) -> Node {
        Node {
            kind: Kind::Leaf,
            parent: NONE,
            pos: 0,
            at: t,
            len: 0,
            min: t,
        }
    }
}

/// The node array in shared chunks: a copy shares every chunk, and a
/// write copies only the chunk it lands in, so copying a tree and
/// editing a few nodes allocates a few small chunks, not the array.
#[derive(Clone, Default)]
struct Nodes {
    chunks: Vec<Arc<[Node; CHUNK]>>,
    len: usize,
}

impl Nodes {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, n: Node) {
        if self.len.is_multiple_of(CHUNK) {
            self.chunks.push(Arc::new([n; CHUNK]));
        } else {
            Arc::make_mut(self.chunks.last_mut().expect("a started chunk"))[self.len % CHUNK] = n;
        }
        self.len += 1;
    }

    fn iter(&self) -> impl Iterator<Item = &Node> + Clone {
        self.chunks.iter().flat_map(|c| c.iter()).take(self.len)
    }
}

impl Index<usize> for Nodes {
    type Output = Node;

    #[inline]
    fn index(&self, i: usize) -> &Node {
        &self.chunks[i / CHUNK][i % CHUNK]
    }
}

impl IndexMut<usize> for Nodes {
    fn index_mut(&mut self, i: usize) -> &mut Node {
        &mut Arc::make_mut(&mut self.chunks[i / CHUNK])[i % CHUNK]
    }
}

/// Decomposition tree of a series–parallel execution graph.
///
/// Leaves carry the [`TaskId`] of the task in the underlying graph, so
/// a solution computed on the tree can be mapped back to per-task
/// speeds. Walk it from [`SpTree::root`]; build one with
/// [`SpTree::leaf`], [`SpTree::series`] and [`SpTree::parallel`], or
/// recognize one with [`SpTree::from_graph`]. Two trees are equal when
/// they have the same shape and leaves, however their nodes are laid
/// out.
#[derive(Clone)]
pub struct SpTree {
    nodes: Nodes,
    /// Child lists: composite `c`'s children are the entries
    /// `kids[c.at..c.at + c.len]`.
    kids: Vec<u32>,
    /// `leaf[t]`: the node of task `t`'s leaf ([`NONE`] when absent).
    /// Only trees over a graph's tasks are indexed ([`Self::indexed`]).
    leaf: Arc<[u32]>,
    /// The root's entry.
    root: u32,
    /// Nodes and child slots no longer reachable from the root (left
    /// behind by splices); the tree compacts itself once they outnumber
    /// the reachable ones.
    garbage: usize,
}

/// What a node of an [`SpTree`] is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpKind {
    /// A single task.
    Leaf(TaskId),
    /// Sequential composition of the children, in order.
    Series,
    /// Parallel composition (children share the time window).
    Parallel,
}

/// A node of an [`SpTree`], borrowed: its [`SpKind`] and its children.
#[derive(Clone, Copy)]
pub struct SpNode<'a> {
    tree: &'a SpTree,
    /// The node's child-list entry.
    e: u32,
}

impl<'a> SpNode<'a> {
    /// What the node is.
    #[inline]
    pub fn kind(self) -> SpKind {
        if self.e & LEAF != 0 {
            return SpKind::Leaf(TaskId((self.e & !LEAF) as usize));
        }
        match self.tree.nodes[self.e as usize].kind {
            Kind::Leaf => unreachable!("a leaf's entry is its task"),
            Kind::Series => SpKind::Series,
            Kind::Parallel => SpKind::Parallel,
        }
    }

    /// The children, in order (none for a leaf).
    #[inline]
    pub fn children(
        self,
    ) -> impl ExactSizeIterator<Item = SpNode<'a>> + DoubleEndedIterator + Clone + 'a {
        let tree = self.tree;
        let kids = match self.e & LEAF {
            0 => tree.child_ids(self.e),
            _ => &[],
        };
        kids.iter().map(move |&e| SpNode { tree, e })
    }
}

impl fmt::Debug for SpNode<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self.kind() {
            SpKind::Leaf(t) => return f.debug_tuple("Leaf").field(&t).finish(),
            SpKind::Series => "Series",
            SpKind::Parallel => "Parallel",
        };
        let kids: Vec<SpNode<'_>> = self.children().collect();
        f.debug_tuple(name).field(&kids).finish()
    }
}

impl fmt::Debug for SpTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.root().fmt(f)
    }
}

impl PartialEq for SpTree {
    fn eq(&self, other: &SpTree) -> bool {
        let mut stack = vec![(self.root(), other.root())];
        while let Some((a, b)) = stack.pop() {
            if a.kind() != b.kind() || a.children().len() != b.children().len() {
                return false;
            }
            stack.extend(a.children().zip(b.children()));
        }
        true
    }
}

impl Eq for SpTree {}

impl SpTree {
    fn empty() -> SpTree {
        SpTree {
            nodes: Nodes::default(),
            kids: Vec::new(),
            leaf: Arc::from([]),
            root: NONE,
            garbage: 0,
        }
    }

    /// A single task (its id must fit in 31 bits).
    pub fn leaf(t: TaskId) -> SpTree {
        let mut out = SpTree::empty();
        out.root = out.push_leaf(t);
        out
    }

    /// Sequential composition of `children` (at least one), in order.
    pub fn series(children: Vec<SpTree>) -> SpTree {
        SpTree::compose(Kind::Series, children)
    }

    /// Parallel composition of `children` (at least one).
    pub fn parallel(children: Vec<SpTree>) -> SpTree {
        SpTree::compose(Kind::Parallel, children)
    }

    /// A composite over `children`, built in the largest child's node
    /// array (the others are copied in), so nesting compositions stays
    /// O(n log n).
    fn compose(kind: Kind, mut children: Vec<SpTree>) -> SpTree {
        let big = (0..children.len())
            .max_by_key(|&i| children[i].nodes.len())
            .expect("a composite has children");
        let mut out = std::mem::replace(&mut children[big], SpTree::empty());
        // The composite is no graph's tree until it is indexed again.
        out.leaf = Arc::from([]);
        let root = out.root;
        let kids: Vec<u32> = (children.iter().enumerate())
            .map(|(i, c)| {
                if i == big {
                    root
                } else {
                    out.copy_from(c, c.root)
                }
            })
            .collect();
        out.root = out.add_composite(kind, &kids);
        out
    }

    /// The root node.
    #[inline]
    pub fn root(&self) -> SpNode<'_> {
        SpNode {
            tree: self,
            e: self.root,
        }
    }

    /// The node of child-list entry `e`; a leaf's is read off the
    /// entry.
    fn node(&self, e: u32) -> Node {
        if e & LEAF != 0 {
            Node::leaf(e & !LEAF)
        } else {
            self.nodes[e as usize]
        }
    }

    /// The child-list entries of `n` (none for a leaf).
    #[inline]
    fn entries(&self, n: &Node) -> &[u32] {
        match n.kind {
            Kind::Leaf => &[],
            _ => &self.kids[n.at as usize..(n.at + n.len) as usize],
        }
    }

    /// The child-list entries of composite `id`.
    #[inline]
    fn child_ids(&self, id: u32) -> &[u32] {
        self.entries(&self.nodes[id as usize])
    }

    /// The smallest task under entry `e`.
    fn min_of(&self, e: u32) -> u32 {
        self.node(e).min
    }

    /// All task ids in the subtree, in depth-first order.
    pub fn leaves(&self) -> Vec<TaskId> {
        let mut out = Vec::new();
        self.collect_leaves(self.root, &mut out, &mut Vec::new(), &mut 0);
        out
    }

    /// Number of tasks in the subtree.
    pub fn len(&self) -> usize {
        self.leaves().len()
    }

    /// True iff the subtree is a single leaf (never "empty": the
    /// constructors below reject empty child lists).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Depth of the decomposition tree (a leaf has depth 1).
    pub fn depth(&self) -> usize {
        let mut deepest = 0;
        let mut stack = vec![(self.root(), 1)];
        while let Some((n, d)) = stack.pop() {
            deepest = deepest.max(d);
            stack.extend(n.children().map(|c| (c, d + 1)));
        }
        deepest
    }

    /// Flatten nested compositions of the same kind and unwrap
    /// single-child compositions, producing a canonical tree.
    pub fn normalized(self) -> SpTree {
        self.rebuilt(false)
    }

    /// Nodes and child slots held, garbage included.
    #[cfg(test)]
    fn footprint(&self) -> usize {
        self.nodes.len() + self.kids.len()
    }

    /// Index the leaves: `leaf` from the leaf nodes, and every leaf's
    /// parent link from the child lists. Only trees whose task ids are
    /// known to lie in a graph's range are indexed (recognized,
    /// validated or spliced ones), so a stray id cannot size the index.
    fn indexed(mut self) -> SpTree {
        let leaves = (self.nodes.iter().enumerate()).filter(|(_, n)| n.kind == Kind::Leaf);
        let top = (leaves.clone())
            .map(|(_, n)| n.at as usize + 1)
            .max()
            .unwrap_or(0);
        let mut leaf = vec![NONE; top];
        for (id, n) in leaves {
            leaf[n.at as usize] = id as u32;
        }
        self.leaf = leaf.into();
        let mut stack = vec![self.root];
        while let Some(e) = stack.pop() {
            if e & LEAF != 0 {
                continue;
            }
            let kids = self.child_ids(e).to_vec();
            for (i, &c) in kids.iter().enumerate() {
                self.link(e, i, c);
            }
            stack.extend(kids);
        }
        self
    }

    /// Append a leaf for `t` and return its entry.
    fn push_leaf(&mut self, t: TaskId) -> u32 {
        let t = u32::try_from(t.0)
            .ok()
            .filter(|&t| t < LEAF)
            .expect("task ids fit in 31 bits");
        self.nodes.push(Node::leaf(t));
        LEAF | t
    }

    /// Append a composite with `len` empty child slots, to be filled by
    /// [`Self::attach`], and return its node.
    fn push_composite(&mut self, kind: Kind, len: usize, min: u32) -> u32 {
        let id = self.nodes.len() as u32;
        let at = self.kids.len() as u32;
        self.kids.resize(self.kids.len() + len, NONE);
        self.nodes.push(Node {
            kind,
            parent: NONE,
            pos: 0,
            at,
            len: len as u32,
            min,
        });
        id
    }

    /// Append a composite over the entries `children`.
    fn add_composite(&mut self, kind: Kind, children: &[u32]) -> u32 {
        let min = (children.iter())
            .map(|&e| self.min_of(e))
            .min()
            .expect("a composite has children");
        let id = self.push_composite(kind, children.len(), min);
        for (i, &e) in children.iter().enumerate() {
            self.attach(id, i, e);
        }
        id
    }

    /// Put entry `e` in slot `pos` of composite `parent` (at the root
    /// when `parent` is [`NONE`]).
    fn attach(&mut self, parent: u32, pos: usize, e: u32) {
        if parent == NONE {
            self.root = e;
        } else {
            let at = self.nodes[parent as usize].at as usize;
            self.kids[at + pos] = e;
        }
        self.link(parent, pos, e);
    }

    /// Point entry `e`'s node at slot `pos` of `parent`. An unindexed
    /// tree links only composites; [`Self::indexed`] links its leaves.
    /// A node already linked there is not written, so its chunk stays
    /// shared.
    fn link(&mut self, parent: u32, pos: usize, e: u32) {
        let id = match e & LEAF {
            0 => e,
            _ if self.leaf.is_empty() => return,
            _ => self.leaf[(e & !LEAF) as usize],
        };
        let n = self.nodes[id as usize];
        if (n.parent, n.pos) != (parent, pos as u32) {
            let c = &mut self.nodes[id as usize];
            c.parent = parent;
            c.pos = pos as u32;
        }
    }

    /// Copy `src`'s subtree at entry `e` into `self` and return its new
    /// entry. Leaves keep their entries: an indexed `self` links them
    /// to its own leaves of the same tasks (a graft); an unindexed one
    /// gets new leaf nodes.
    fn copy_from(&mut self, src: &SpTree, e: u32) -> u32 {
        if e & LEAF != 0 {
            if self.leaf.is_empty() {
                self.nodes.push(Node::leaf(e & !LEAF));
            }
            return e;
        }
        let kids: Vec<u32> = (src.child_ids(e).iter())
            .map(|&c| self.copy_from(src, c))
            .collect();
        self.add_composite(src.nodes[e as usize].kind, &kids)
    }

    /// Depth-first walk of the subtree at entry `e`: pushes its tasks
    /// onto `tasks` and its composites' nodes onto `composites`,
    /// counting visited nodes in `work`.
    fn collect_leaves(
        &self,
        e: u32,
        tasks: &mut Vec<TaskId>,
        composites: &mut Vec<u32>,
        work: &mut u64,
    ) {
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            *work += 1;
            if e & LEAF != 0 {
                tasks.push(TaskId((e & !LEAF) as usize));
            } else {
                composites.push(e);
                stack.extend(self.child_ids(e).iter().rev());
            }
        }
    }

    /// The sources (`first`) or sinks of the subtree at entry `e`,
    /// sorted, counting visited nodes in `work`.
    fn ends(&self, e: u32, first: bool, work: &mut u64) -> Vec<TaskId> {
        let mut out = Vec::new();
        let mut stack = vec![e];
        while let Some(e) = stack.pop() {
            *work += 1;
            if e & LEAF != 0 {
                out.push(TaskId((e & !LEAF) as usize));
                continue;
            }
            let n = self.nodes[e as usize];
            let kids = self.entries(&n);
            match n.kind {
                Kind::Series => stack.push(if first { kids[0] } else { kids[kids.len() - 1] }),
                _ => stack.extend(kids),
            }
        }
        out.sort_unstable();
        out
    }

    /// A compact, unindexed copy: flattened and single-child-free, with
    /// every `Parallel`'s children sorted by smallest task id when
    /// `sort`.
    fn rebuilt(&self, sort: bool) -> SpTree {
        let mut out = SpTree::empty();
        out.root = self.rebuild_into(self.root, sort, &mut out);
        if out.garbage > 0 {
            return out.rebuilt(sort);
        }
        out
    }

    fn rebuild_into(&self, e: u32, sort: bool, out: &mut SpTree) -> u32 {
        if e & LEAF != 0 {
            return out.push_leaf(TaskId((e & !LEAF) as usize));
        }
        let kind = self.nodes[e as usize].kind;
        let mut kids = Vec::new();
        for &c in self.child_ids(e) {
            let r = self.rebuild_into(c, sort, out);
            if r & LEAF == 0 && out.nodes[r as usize].kind == kind {
                // A same-kind child merges into this node.
                let inner = out.child_ids(r);
                kids.extend_from_slice(inner);
                out.garbage += 1 + inner.len();
            } else {
                kids.push(r);
            }
        }
        if kids.len() == 1 {
            return kids[0];
        }
        if sort && kind == Kind::Parallel {
            kids.sort_by_key(|&k| out.min_of(k));
        }
        out.add_composite(kind, &kids)
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
    /// every cut. Each tree level is one such scan: moving a task from
    /// `S` to `P` updates the cut's counters in O(degree), every cut is
    /// emitted at once as one n-ary `Series`, and each segment between
    /// two cuts must be a single task or split into weakly connected
    /// components (a `Parallel`) that recurse. A task takes part in one
    /// scan per level, so recognition costs `O((n + m)·depth)`, at
    /// most `O(n·(n + m))` — polynomial, as Theorem 2 requires (Valdes,
    /// Tarjan & Lawler give a guaranteed `O(n + m)` algorithm).
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
        Scan::new(&Local::whole(g, order))
            .recognize()
            .map(SpTree::indexed)
    }

    /// The canonical form every cached tree takes: [`Self::normalized`],
    /// with every `Parallel`'s children sorted by smallest task id. A
    /// series–parallel graph has exactly one canonical decomposition,
    /// so the tree is a function of the graph alone, not of the
    /// topological order the recognition was handed.
    pub(crate) fn canonical(self) -> SpTree {
        self.rebuilt(true).indexed()
    }

    /// Locally repair this decomposition after structural edits whose
    /// net edge changes are confined to the `touched` tasks, instead
    /// of re-recognizing the whole graph.
    ///
    /// `self` must be a valid decomposition of the *pre-edit* graph,
    /// `g` the edited graph over the same task set, and `touched` the
    /// endpoint set of every inserted/removed edge. The repair (1)
    /// climbs the parent links from every touched leaf to the deepest
    /// composite whose **minimal child range** spans them all (a
    /// contiguous run of series children, or the hit subset of
    /// parallel children — so a long series chain rebuilds one
    /// segment, not the whole spine), (2) re-recognizes only that
    /// region's induced subgraph, ordered by a topological sort of its
    /// own tasks, and (3) grafts the result into a copy of the tree that
    /// shares every node chunk it does not write, rewriting only the
    /// region, the composite that held it and, when the graft leaves
    /// that composite a single child, its parent.
    /// The graft needs no further check when the region's sources and
    /// sinks are unchanged. Otherwise the splice climbs from the region
    /// while a changed side stays the end of the enclosing composite,
    /// and refuses if it meets a series junction: the edit left every
    /// edge between the region and the rest as it was, so a junction
    /// whose ends changed cannot match them. The result is canonical
    /// (see [`SpTree::from_graph`]), so it equals what a fresh
    /// recognition of `g` builds.
    ///
    /// The tree work is the region plus the depth; no walk covers the
    /// whole tree. What stays linear is flat: the copy of the child-list
    /// array, and a rewritten composite's own child list, with the
    /// positions of the children a change in its length shifts.
    ///
    /// Returns the repaired tree, or `None` when the spliced region is
    /// not series–parallel or its interface no longer composes — the
    /// caller must then fall back to full recognition
    /// ([`SpTree::from_graph`]). Success/failure is accounted in
    /// [`crate::profiling`] (`sp_splice` / `sp_splice_miss`), the
    /// region size in `cone_nodes`, and the tree nodes visited or built
    /// in `sp_splice_nodes`; no `sp_from_graph` pass runs either way.
    pub fn splice(&self, g: &TaskGraph, touched: &[TaskId]) -> Option<SpTree> {
        let mut work = 0;
        let out = self.splice_inner(g, touched, &mut work);
        crate::profiling::record(|c| {
            c.sp_splice_nodes += work;
            match out {
                Some(_) => c.sp_splice += 1,
                None => c.sp_splice_miss += 1,
            }
        });
        out
    }

    fn splice_inner(&self, g: &TaskGraph, touched: &[TaskId], work: &mut u64) -> Option<SpTree> {
        // 1. The path from the root to every touched leaf, by parent
        //    links. A tree over another task set is refused.
        if self.leaf.len() != g.n() {
            return None;
        }
        let mut paths = Vec::with_capacity(touched.len());
        for t in touched {
            let mut path = Vec::new();
            let mut x = self.leaf.get(t.0).copied().filter(|&x| x != NONE)?;
            while x != NONE {
                path.push(x);
                x = self.nodes[x as usize].parent;
            }
            path.reverse();
            *work += path.len() as u64;
            paths.push(path);
        }
        let Some((first, rest)) = paths.split_first() else {
            return Some(self.clone());
        };
        // 2. The deepest composite holding every touched leaf ends their
        //    longest common path prefix. Its minimal child *range*
        //    spanning them — a contiguous run of series children / the
        //    hit subset of parallel children — is the region that
        //    re-decomposes. The re-decomposition is quiet: it never
        //    counts as a recognition pass.
        let depth = rest.iter().fold(first.len(), |d, p| {
            d.min(first.iter().zip(p).take_while(|(a, b)| a == b).count())
        });
        let l = first[depth - 1];
        let node = self.nodes[l as usize];
        if node.kind == Kind::Leaf {
            return Some(self.clone()); // one touched task: nothing moves
        }
        let mut hit: Vec<u32> = (paths.iter())
            .filter_map(|p| p.get(depth).map(|&c| self.nodes[c as usize].pos))
            .collect();
        hit.sort_unstable();
        hit.dedup();
        let picked: Vec<u32> = match node.kind {
            Kind::Series => (hit[0]..=hit[hit.len() - 1]).collect(),
            _ => hit,
        };
        let kids = self.child_ids(l);
        let region: Vec<u32> = picked.iter().map(|&p| kids[p as usize]).collect();
        let (mut tasks, mut old) = (Vec::new(), Vec::new());
        for &r in &region {
            self.collect_leaves(r, &mut tasks, &mut old, work);
        }
        crate::profiling::record(|c| c.cone_nodes += tasks.len() as u64);
        tasks.sort_unstable();
        let sub = Scan::new(&Local::induced(g, &tasks)).recognize()?;
        *work += sub.nodes.len() as u64;

        // 3. The region's interface before and after: when its sources
        //    and sinks are unchanged, every junction outside it is the
        //    old tree's and every changed edge lies inside it, so the
        //    graft is a valid decomposition without a further check.
        //    A changed side must stay clear of every junction: the edit
        //    left the edges between the region and the rest as they
        //    were, so a junction whose required edges now differ cannot
        //    match them. Climb while the changed ends remain the ends of
        //    the enclosing composite; meeting a series neighbour on that
        //    side is a junction the change reaches, and it fails.
        let ends = |first: bool, parts: &[u32], work: &mut u64| {
            let mut v: Vec<TaskId> = parts
                .iter()
                .flat_map(|&r| self.ends(r, first, work))
                .collect();
            v.sort_unstable();
            v
        };
        let (heads, tails) = match node.kind {
            Kind::Series => (&region[..1], &region[region.len() - 1..]),
            _ => (&region[..], &region[..]),
        };
        for (first, parts, edge) in [
            (true, heads, picked[0]),
            (false, tails, picked[picked.len() - 1]),
        ] {
            if ends(first, parts, work) != sub.ends(sub.root, first, work)
                && !self.change_stays_clear(l, edge, first, work)
            {
                return None;
            }
        }

        // 4. Graft into a copy, keeping it canonical: the
        //    region's new subtrees replace the picked children, and
        //    when that leaves the composite one child, the child takes
        //    its place and merges into a parent of its own kind.
        let mut out = self.copy_with_room(2 * sub.kids.len() + kids.len());
        let grafted: Vec<u32> = if sub.node(sub.root).kind == node.kind {
            sub.child_ids(sub.root).to_vec()
        } else {
            vec![sub.root]
        };
        let grafted: Vec<u32> = grafted.iter().map(|&s| out.copy_from(&sub, s)).collect();
        out.garbage += old.len() + old.iter().map(|&c| self.child_ids(c).len()).sum::<usize>();
        match node.kind {
            Kind::Series => out.replace_range(l, picked[0], picked[picked.len() - 1], &grafted),
            _ => {
                let mut list: Vec<u32> = (kids.iter().enumerate())
                    .filter(|(i, _)| picked.binary_search(&(*i as u32)).is_err())
                    .map(|(_, &c)| c)
                    .chain(grafted)
                    .collect();
                list.sort_by_key(|&c| out.min_of(c));
                out.set_children(l, &list);
            }
        }
        if out.nodes[l as usize].len == 1 {
            let only = out.child_ids(l)[0];
            let parent = out.nodes[l as usize].parent;
            let pos = out.nodes[l as usize].pos as usize;
            out.attach(parent, pos, only);
            out.garbage += 2;
            let kind = out.node(only).kind;
            if parent != NONE && out.nodes[parent as usize].kind == kind {
                let mut list = out.child_ids(parent).to_vec();
                list.splice(pos..=pos, out.child_ids(only).to_vec());
                if kind == Kind::Parallel {
                    list.sort_by_key(|&c| out.min_of(c));
                }
                out.garbage += 1 + out.child_ids(only).len();
                out.set_children(parent, &list);
            }
        }
        if out.garbage > out.nodes.len() + out.kids.len() - out.garbage {
            *work += out.nodes.len() as u64;
            out = out.rebuilt(false).indexed();
        }
        debug_assert_eq!(out, out.clone().canonical());
        debug_assert!(out.validates(g));
        Some(out)
    }

    /// A copy of `self` sharing its node chunks and leaf index, with
    /// room for `kids` more child slots so a graft into it does not
    /// reallocate them.
    fn copy_with_room(&self, kids: usize) -> SpTree {
        let mut copy = Vec::with_capacity(self.kids.len() + kids);
        copy.extend_from_slice(&self.kids);
        SpTree {
            nodes: self.nodes.clone(),
            kids: copy,
            leaf: Arc::clone(&self.leaf),
            ..*self
        }
    }

    /// Whether a change to the sources (`first`) or sinks of the region
    /// whose outermost picked child of `l` sits at `edge` reaches no
    /// junction: the changed side is the end of `l` and, climbing, of
    /// every ancestor (a parallel composite's ends are all its
    /// children's; a series composite's are its first or last child's).
    fn change_stays_clear(&self, l: u32, edge: u32, first: bool, work: &mut u64) -> bool {
        // Whether entry `e` is the changed side's end child of `id`.
        let at_end = |id: u32, e: u32| {
            let kids = self.child_ids(id);
            self.nodes[id as usize].kind != Kind::Series
                || e == if first { kids[0] } else { kids[kids.len() - 1] }
        };
        if !at_end(l, self.child_ids(l)[edge as usize]) {
            return false;
        }
        let mut id = l;
        loop {
            let parent = self.nodes[id as usize].parent;
            if parent == NONE {
                return true;
            }
            *work += 1;
            if !at_end(parent, id) {
                return false;
            }
            id = parent;
        }
    }

    /// Replace children `lo..=hi` of series node `id` by the entries
    /// `new`: in place when the count is unchanged, else in a fresh
    /// child list.
    fn replace_range(&mut self, id: u32, lo: u32, hi: u32, new: &[u32]) {
        if new.len() == (hi - lo + 1) as usize {
            for (i, &c) in new.iter().enumerate() {
                self.attach(id, lo as usize + i, c);
            }
        } else {
            let old = self.child_ids(id);
            let list: Vec<u32> = (old[..lo as usize].iter())
                .chain(new)
                .chain(&old[hi as usize + 1..])
                .copied()
                .collect();
            self.set_children(id, &list);
        }
    }

    /// Make the entries `list` the children of `id`, in a fresh child
    /// list unless the count is unchanged.
    fn set_children(&mut self, id: u32, list: &[u32]) {
        let n = self.nodes[id as usize];
        if list.len() != n.len as usize {
            self.garbage += n.len as usize;
            let node = &mut self.nodes[id as usize];
            node.at = self.kids.len() as u32;
            node.len = list.len() as u32;
            self.kids.resize(self.kids.len() + list.len(), NONE);
        }
        for (i, &c) in list.iter().enumerate() {
            self.attach(id, i, c);
        }
    }

    /// Whether `self` is a valid series–parallel decomposition of `g`:
    /// its leaves are the tasks, each exactly once; every series
    /// junction is the complete bipartite `sinks × sources` of its
    /// neighbours, and those junction edges are *exactly* the graph's
    /// edge set. `O(n + m)` adjacency lookups: the whole-tree check a
    /// tree from outside (a restored snapshot) needs. A splice checks
    /// only the junctions its change reaches ([`Self::splice`]).
    pub(crate) fn validates(&self, g: &TaskGraph) -> bool {
        // A repeated leaf would count its junction edges twice, so the
        // edge count below could match with a graph edge left out.
        let mut seen = vec![false; g.n()];
        let leaves = self.leaves();
        let each_task_once = leaves.len() == g.n()
            && (leaves.iter()).all(|t| t.0 < g.n() && !std::mem::replace(&mut seen[t.0], true));
        if !each_task_once {
            return false;
        }
        let mut stamp = vec![usize::MAX; g.n()];
        let mut required = 0usize;
        self.verify_junctions(self.root, g, &mut stamp, &mut required)
            .is_some()
            && required == g.m()
    }

    /// Recursive junction check: returns the subtree's (sources,
    /// sinks) on success, `None` on the first junction violation.
    /// `stamp[w] == u` marks `w` as a successor of the sink `u` under
    /// test.
    fn verify_junctions(
        &self,
        e: u32,
        g: &TaskGraph,
        stamp: &mut [usize],
        required: &mut usize,
    ) -> Option<(Vec<TaskId>, Vec<TaskId>)> {
        let n = self.node(e);
        match n.kind {
            Kind::Leaf => Some((vec![TaskId(n.at as usize)], vec![TaskId(n.at as usize)])),
            Kind::Series => {
                let mut first_sources: Option<Vec<TaskId>> = None;
                let mut prev_sinks: Option<Vec<TaskId>> = None;
                for &c in self.entries(&n) {
                    let (src, snk) = self.verify_junctions(c, g, stamp, required)?;
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
            Kind::Parallel => {
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for &c in self.entries(&n) {
                    let (src, snk) = self.verify_junctions(c, g, stamp, required)?;
                    sources.extend(src);
                    sinks.extend(snk);
                }
                Some((sources, sinks))
            }
        }
    }
}

/// An induced subgraph relabelled by topological rank: local vertex
/// `i` is task `ids[i]`, and every edge runs from a lower rank to a
/// higher one, so any ascending vertex list is in topological order.
struct Local {
    ids: Vec<TaskId>,
    succ_at: Vec<u32>,
    succ: Vec<u32>,
    pred_at: Vec<u32>,
    pred: Vec<u32>,
}

impl Local {
    /// The tasks of `order`, a topological order of the subgraph they
    /// induce; `rank(t)` is `t`'s index in it, `None` outside it.
    fn new(g: &TaskGraph, order: Vec<TaskId>, rank: impl Fn(TaskId) -> Option<u32>) -> Local {
        let mut l = Local {
            ids: order,
            succ_at: vec![0],
            succ: Vec::new(),
            pred_at: vec![0],
            pred: Vec::new(),
        };
        for &t in &l.ids {
            l.succ.extend(g.succs(t).iter().filter_map(|&w| rank(w)));
            l.succ_at.push(l.succ.len() as u32);
            l.pred.extend(g.preds(t).iter().filter_map(|&w| rank(w)));
            l.pred_at.push(l.pred.len() as u32);
        }
        l
    }

    /// The whole graph, ranked by `order`.
    fn whole(g: &TaskGraph, order: &[TaskId]) -> Local {
        let mut rank = vec![0u32; g.n()];
        for (i, t) in order.iter().enumerate() {
            rank[t.0] = i as u32;
        }
        Local::new(g, order.to_vec(), |t| Some(rank[t.0]))
    }

    /// The subgraph induced by `tasks` (sorted), ranked by a
    /// topological sort of its own: every array is sized to the
    /// subgraph.
    fn induced(g: &TaskGraph, tasks: &[TaskId]) -> Local {
        let index = |t: TaskId| tasks.binary_search(&t).ok();
        let mut indeg: Vec<usize> = (tasks.iter())
            .map(|&t| g.preds(t).iter().filter(|&&u| index(u).is_some()).count())
            .collect();
        let mut ready: Vec<usize> = (0..tasks.len()).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(tasks.len());
        let mut rank = vec![0u32; tasks.len()];
        while let Some(i) = ready.pop() {
            rank[i] = order.len() as u32;
            order.push(tasks[i]);
            for &w in g.succs(tasks[i]) {
                if let Some(j) = index(w) {
                    indeg[j] -= 1;
                    if indeg[j] == 0 {
                        ready.push(j);
                    }
                }
            }
        }
        Local::new(g, order, |t| index(t).map(|i| rank[i]))
    }

    fn succs(&self, v: u32) -> &[u32] {
        &self.succ[self.succ_at[v as usize] as usize..self.succ_at[v as usize + 1] as usize]
    }

    fn preds(&self, v: u32) -> &[u32] {
        &self.pred[self.pred_at[v as usize] as usize..self.pred_at[v as usize + 1] as usize]
    }
}

/// A run of [`Scan::recognize`]'s vertex buffer waiting to become a
/// subtree in slot `pos` of `parent`.
struct Item {
    lo: usize,
    hi: usize,
    parent: u32,
    pos: usize,
    /// Known to be weakly connected (a component), so no component
    /// search runs first.
    connected: bool,
}

/// Scratch for [`Scan::recognize`], indexed by local vertex.
struct Scan<'a> {
    g: &'a Local,
    /// Generation stamps: `stamp[v] >= gen` marks a member of the set
    /// under study, `== gen` one no component search has reached yet.
    stamp: Vec<u32>,
    gen: u32,
    indeg: Vec<u32>,
    outdeg: Vec<u32>,
    /// Predecessors still in the suffix `S`.
    pred_s: Vec<u32>,
    /// In the prefix `P` with no successor in `P`.
    sink: Vec<bool>,
    comp: Vec<u32>,
    /// Adjacency entries scanned.
    steps: u64,
}

impl<'a> Scan<'a> {
    /// Scratch sized to `g`.
    fn new(g: &'a Local) -> Scan<'a> {
        let n = g.ids.len();
        Scan {
            g,
            stamp: vec![0; n],
            gen: 0,
            indeg: vec![0; n],
            outdeg: vec![0; n],
            pred_s: vec![0; n],
            sink: vec![false; n],
            comp: vec![0; n],
            steps: 0,
        }
    }

    /// Stamp `vs` as the set under study.
    fn stamp(&mut self, vs: &[u32]) -> u32 {
        self.gen += 2;
        for &v in vs {
            self.stamp[v as usize] = self.gen;
        }
        self.gen
    }

    /// Split `verts[lo..hi]` (ascending) into the weakly connected
    /// components of the subgraph it induces, each kept ascending, and
    /// return their runs.
    fn components(&mut self, verts: &mut [u32], lo: usize, hi: usize) -> Vec<(usize, usize)> {
        let gen = self.stamp(&verts[lo..hi]);
        let mut count = 0u32;
        let mut stack = Vec::new();
        for &v in &verts[lo..hi] {
            if self.stamp[v as usize] != gen {
                continue;
            }
            self.stamp[v as usize] = gen + 1;
            stack.push(v);
            while let Some(u) = stack.pop() {
                self.comp[u as usize] = count;
                let (s, p) = (self.g.succs(u), self.g.preds(u));
                self.steps += (s.len() + p.len()) as u64;
                for &w in s.iter().chain(p) {
                    if self.stamp[w as usize] == gen {
                        self.stamp[w as usize] = gen + 1;
                        stack.push(w);
                    }
                }
            }
            count += 1;
        }
        if count == 1 {
            return vec![(lo, hi)];
        }
        // A stable counting sort by component keeps each run ascending.
        let mut start = vec![0usize; count as usize + 1];
        for &v in &verts[lo..hi] {
            start[self.comp[v as usize] as usize + 1] += 1;
        }
        for c in 0..count as usize {
            start[c + 1] += start[c];
        }
        let runs = (0..count as usize)
            .map(|c| (lo + start[c], lo + start[c + 1]))
            .collect();
        let mut sorted = vec![0u32; hi - lo];
        for &v in &verts[lo..hi] {
            let c = self.comp[v as usize] as usize;
            sorted[start[c]] = v;
            start[c] += 1;
        }
        verts[lo..hi].copy_from_slice(&sorted);
        runs
    }

    /// The series cuts of the connected subgraph `vs` (ascending, hence
    /// topological) induces: every `k` such that `vs[..=k]` is a prefix
    /// `P` whose crossing edges are exactly `sinks(P) × sources(S)`.
    ///
    /// One pass moves the tasks into `P` in order, keeping five counts
    /// current in O(degree) per task: the crossing edges, `|sinks(P)|`,
    /// `|sources(S)|`, the crossing edges that leave a sink of `P` and
    /// those that enter a source of `S` (sinks and sources taken inside
    /// the subgraph). A prefix is a cut iff the crossing edges number
    /// `|sinks|·|sources|` and both sums equal them.
    fn series_cuts(&mut self, vs: &[u32]) -> Vec<usize> {
        let gen = self.stamp(vs);
        let mut sources = 0usize;
        for &v in vs {
            let (s, p) = (self.g.succs(v), self.g.preds(v));
            self.steps += (s.len() + p.len()) as u64;
            let inside = |w: &&u32| self.stamp[**w as usize] == gen;
            let (outd, ind) = (
                s.iter().filter(inside).count(),
                p.iter().filter(inside).count(),
            );
            self.outdeg[v as usize] = outd as u32;
            self.indeg[v as usize] = ind as u32;
            self.pred_s[v as usize] = ind as u32;
            self.sink[v as usize] = false;
            sources += usize::from(ind == 0);
        }
        let (mut cross, mut sinks, mut from_sinks, mut to_sources) =
            (0usize, 0usize, 0usize, 0usize);
        let mut cuts = Vec::new();
        for (k, &v) in vs[..vs.len() - 1].iter().enumerate() {
            // `v` leaves S as one of its sources (all its predecessors
            // are in P) …
            let ind = self.indeg[v as usize] as usize;
            sources -= 1;
            to_sources -= ind;
            cross -= ind;
            let (s, p) = (self.g.succs(v), self.g.preds(v));
            self.steps += (s.len() + p.len()) as u64;
            for &u in p {
                if self.stamp[u as usize] == gen
                    && std::mem::replace(&mut self.sink[u as usize], false)
                {
                    sinks -= 1;
                    from_sinks -= self.outdeg[u as usize] as usize;
                }
            }
            // … and joins P as a sink whose every out-edge crosses.
            let outd = self.outdeg[v as usize] as usize;
            self.sink[v as usize] = true;
            sinks += 1;
            from_sinks += outd;
            cross += outd;
            for &w in s {
                if self.stamp[w as usize] == gen {
                    self.pred_s[w as usize] -= 1;
                    if self.pred_s[w as usize] == 0 {
                        sources += 1;
                        to_sources += self.indeg[w as usize] as usize;
                    }
                }
            }
            if cross == sinks * sources && from_sinks == cross && to_sources == cross {
                cuts.push(k);
            }
        }
        cuts
    }

    /// Recognize the series–parallel graph `self.g` and build its
    /// canonical tree (leaves carry `g.ids`; no leaf index), or `None`
    /// when it is not SP. Levels are processed from an explicit stack,
    /// so a deep tree needs no deep recursion.
    fn recognize(&mut self) -> Option<SpTree> {
        let g = self.g;
        let n = g.ids.len();
        if n == 0 {
            return None;
        }
        let mut verts: Vec<u32> = (0..n as u32).collect();
        let mut tree = SpTree::empty();
        let min_task = |run: &[u32]| {
            run.iter()
                .map(|&v| g.ids[v as usize].0 as u32)
                .min()
                .expect("a non-empty run")
        };
        let mut stack = vec![Item {
            lo: 0,
            hi: n,
            parent: NONE,
            pos: 0,
            connected: false,
        }];
        while let Some(it) = stack.pop() {
            if it.hi - it.lo == 1 {
                let id = tree.push_leaf(g.ids[verts[it.lo] as usize]);
                tree.attach(it.parent, it.pos, id);
                continue;
            }
            let comps = if it.connected {
                vec![(it.lo, it.hi)]
            } else {
                self.components(&mut verts, it.lo, it.hi)
            };
            let (parent, pos) = (it.parent, it.pos);
            if comps.len() > 1 {
                parallel(&mut tree, &mut stack, &verts, comps, parent, pos, &min_task);
                continue;
            }
            let cuts = self.series_cuts(&verts[it.lo..it.hi]);
            if cuts.is_empty() {
                return None;
            }
            let series =
                tree.push_composite(Kind::Series, cuts.len() + 1, min_task(&verts[it.lo..it.hi]));
            tree.attach(parent, pos, series);
            let bounds: Vec<usize> = std::iter::once(it.lo)
                .chain(cuts.iter().map(|&k| it.lo + k + 1))
                .chain(std::iter::once(it.hi))
                .collect();
            for (i, w) in bounds.windows(2).enumerate() {
                if w[1] - w[0] == 1 {
                    let id = tree.push_leaf(g.ids[verts[w[0]] as usize]);
                    tree.attach(series, i, id);
                    continue;
                }
                // Between two cuts: no cut inside, so only a split into
                // components keeps it series–parallel.
                let comps = self.components(&mut verts, w[0], w[1]);
                if comps.len() == 1 {
                    return None;
                }
                parallel(&mut tree, &mut stack, &verts, comps, series, i, &min_task);
            }
        }
        Some(tree)
    }
}

/// Add a `Parallel` over the component runs `comps` in slot `pos` of
/// `parent`, its children sorted by smallest task id: single tasks
/// become leaves, larger components wait on `stack`.
fn parallel(
    tree: &mut SpTree,
    stack: &mut Vec<Item>,
    verts: &[u32],
    comps: Vec<(usize, usize)>,
    parent: u32,
    pos: usize,
    min_task: &impl Fn(&[u32]) -> u32,
) {
    let mut keyed: Vec<(u32, (usize, usize))> = comps
        .into_iter()
        .map(|(a, b)| (min_task(&verts[a..b]), (a, b)))
        .collect();
    keyed.sort_unstable_by_key(|&(m, _)| m);
    let id = tree.push_composite(Kind::Parallel, keyed.len(), keyed[0].0);
    tree.attach(parent, pos, id);
    for (i, &(m, (a, b))) in keyed.iter().enumerate() {
        if b - a == 1 {
            let leaf = tree.push_leaf(TaskId(m as usize));
            tree.attach(id, i, leaf);
        } else {
            stack.push(Item {
                lo: a,
                hi: b,
                parent: id,
                pos: i,
                connected: true,
            });
        }
    }
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
        let mut tree = SpTree::empty();
        let (root, _sources, _sinks) = self.emit(&mut weights, &mut edges, &mut tree);
        tree.root = root;
        let g = TaskGraph::new(weights, &edges).expect("SP construction yields a DAG");
        (g, tree.normalized())
    }

    /// Returns (node, sources, sinks) of the emitted subgraph.
    fn emit(
        &self,
        weights: &mut Vec<f64>,
        edges: &mut Vec<(usize, usize)>,
        tree: &mut SpTree,
    ) -> (u32, Vec<usize>, Vec<usize>) {
        match self {
            SpShape::Leaf(w) => {
                let id = weights.len();
                weights.push(*w);
                (tree.push_leaf(TaskId(id)), vec![id], vec![id])
            }
            SpShape::Series(cs) => {
                assert!(!cs.is_empty(), "Series must have children");
                let mut nodes = Vec::new();
                let mut first_sources = Vec::new();
                let mut prev_sinks: Vec<usize> = Vec::new();
                for (k, c) in cs.iter().enumerate() {
                    let (t, src, snk) = c.emit(weights, edges, tree);
                    if k == 0 {
                        first_sources = src;
                    } else {
                        for &u in &prev_sinks {
                            for &v in &src {
                                edges.push((u, v));
                            }
                        }
                    }
                    prev_sinks = snk;
                    nodes.push(t);
                }
                (
                    tree.add_composite(Kind::Series, &nodes),
                    first_sources,
                    prev_sinks,
                )
            }
            SpShape::Parallel(cs) => {
                assert!(!cs.is_empty(), "Parallel must have children");
                let mut nodes = Vec::new();
                let mut sources = Vec::new();
                let mut sinks = Vec::new();
                for c in cs {
                    let (t, src, snk) = c.emit(weights, edges, tree);
                    sources.extend(src);
                    sinks.extend(snk);
                    nodes.push(t);
                }
                (tree.add_composite(Kind::Parallel, &nodes), sources, sinks)
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

    fn leaf(i: usize) -> SpTree {
        SpTree::leaf(TaskId(i))
    }

    #[test]
    fn recognizes_diamond() {
        let t = SpTree::from_graph(&diamond()).expect("diamond is SP");
        // series(0, parallel(1,2), 3)
        assert_eq!(
            t,
            SpTree::series(vec![
                leaf(0),
                SpTree::parallel(vec![leaf(1), leaf(2)]),
                leaf(3)
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
        let forged = SpTree::series(vec![
            leaf(0),
            SpTree::parallel(vec![leaf(2), leaf(3), leaf(3)]),
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
        let t = SpTree::from_graph(&chain).unwrap();
        assert_eq!(t.root().kind(), SpKind::Series);
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
        let t = SpTree::series(vec![SpTree::series(vec![leaf(0), leaf(1)]), leaf(2)]);
        assert_eq!(
            t.normalized(),
            SpTree::series(vec![leaf(0), leaf(1), leaf(2)])
        );
        let single = SpTree::parallel(vec![leaf(7)]);
        assert_eq!(single.normalized(), leaf(7));
    }

    #[test]
    fn independent_tasks_decompose_as_parallel() {
        let g = TaskGraph::new(vec![1.0, 2.0, 3.0], &[]).unwrap();
        let t = SpTree::from_graph(&g).unwrap();
        assert_eq!(t.root().kind(), SpKind::Parallel);
        assert_eq!(t.root().children().len(), 3);
    }

    /// `k` diamond blocks in series: `3k + 1` tasks, junctions between
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
        for k in [8, 64, 512] {
            let (g, _) = blocks(k);
            let tree = SpTree::from_graph(&g).unwrap();
            // Convert block 3's parallel pair {b, c} (between junctions
            // j and j') to the chain j → b → c → j'.
            let (j, b, c, j2) = (9, 10, 11, 12);
            let mut edges: Vec<(usize, usize)> =
                g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
            edges.retain(|&e| e != (j, c) && e != (b, j2));
            edges.push((b, c));
            let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
            let before = crate::profiling::counts();
            let spliced = tree
                .splice(&edited, &[TaskId(j), TaskId(b), TaskId(c), TaskId(j2)])
                .expect("block conversion preserves SP");
            let delta = crate::profiling::counts() - before;
            assert_eq!(delta.sp_splice, 1);
            assert_eq!(delta.sp_from_graph, 0, "no recognition pass ran");
            assert!(
                delta.cone_nodes <= 4,
                "rebuild confined to the touched segment, got {} nodes",
                delta.cone_nodes
            );
            // The tree work does not grow with the chain.
            assert_eq!(delta.sp_splice_nodes, 26, "{k} blocks");
            // Bit-identical to a fresh recognition of the edited graph.
            assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
        }
    }

    #[test]
    fn long_splice_chains_stay_compact() {
        // Convert one block to a chain and back, 200 times over: each
        // graft leaves the replaced nodes behind, and the tree compacts
        // itself before they outnumber the live ones.
        let (g, _) = blocks(4);
        let (j, b, c, j2) = (3, 4, 5, 6);
        let edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        let mut chained = edges.clone();
        chained.retain(|&e| e != (j, c) && e != (b, j2));
        chained.push((b, c));
        let graphs = [
            TaskGraph::new(g.weights().to_vec(), &chained).unwrap(),
            g.clone(),
        ];
        let touched = [TaskId(j), TaskId(b), TaskId(c), TaskId(j2)];
        let mut tree = SpTree::from_graph(&g).unwrap();
        let live = tree.footprint();
        for step in 0..200 {
            let edited = &graphs[step % 2];
            tree = tree.splice(edited, &touched).expect("both shapes are SP");
            assert_eq!(tree, SpTree::from_graph(edited).unwrap(), "step {step}");
            assert!(
                tree.footprint() <= 3 * live,
                "step {step}: {} slots",
                tree.footprint()
            );
        }
    }

    #[test]
    fn splice_refuses_sp_breaking_edit() {
        let g = diamond();
        let tree = SpTree::from_graph(&g).unwrap();
        // 1→2 makes 0→2 transitive: node-SP breaks.
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        edges.push((1, 2));
        let edited = TaskGraph::new(g.weights().to_vec(), &edges).unwrap();
        let before = crate::profiling::counts();
        assert!(tree.splice(&edited, &[TaskId(1), TaskId(2)]).is_none());
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
        let tree = SpTree::from_graph(&g).unwrap();
        let edited = TaskGraph::new(vec![1.0; 6], &[(0, 1), (2, 3), (4, 5), (1, 4)]).unwrap();
        let spliced = tree
            .splice(&edited, &[TaskId(1), TaskId(4)])
            .expect("still SP: parallel of {0→1→4→5} and {2→3}");
        assert_eq!(spliced, SpTree::from_graph(&edited).unwrap());
    }

    /// The quadratic recognizer this module used before the one-scan
    /// levels, kept as the oracle they must match: split into
    /// components, else try every prefix of the induced order as a
    /// series cut, building four `HashSet`s per try.
    mod oracle {
        use super::*;
        use std::collections::{HashMap, HashSet};

        pub fn from_graph(g: &TaskGraph) -> Option<SpTree> {
            let all: Vec<TaskId> = g.tasks().collect();
            decompose(g, &all, &topo_order(g)).map(SpTree::canonical)
        }

        fn decompose(g: &TaskGraph, verts: &[TaskId], global_order: &[TaskId]) -> Option<SpTree> {
            if verts.len() == 1 {
                return Some(SpTree::leaf(verts[0]));
            }
            let inset: HashSet<TaskId> = verts.iter().copied().collect();
            let comps = induced_components(g, verts, &inset);
            if comps.len() > 1 {
                let children: Option<Vec<SpTree>> = comps
                    .iter()
                    .map(|c| decompose(g, c, global_order))
                    .collect();
                return children.map(SpTree::parallel);
            }
            let order: Vec<TaskId> = (global_order.iter())
                .filter(|t| inset.contains(t))
                .copied()
                .collect();
            for k in 1..order.len() {
                let (p, s) = order.split_at(k);
                if valid_series_cut(g, p, s, &inset) {
                    let left = decompose(g, p, global_order)?;
                    let right = decompose(g, s, global_order)?;
                    return Some(SpTree::series(vec![left, right]));
                }
            }
            None
        }

        fn induced_components(
            g: &TaskGraph,
            verts: &[TaskId],
            inset: &HashSet<TaskId>,
        ) -> Vec<Vec<TaskId>> {
            let mut comp: HashMap<TaskId, usize> = HashMap::new();
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

        fn valid_series_cut(
            g: &TaskGraph,
            p: &[TaskId],
            s: &[TaskId],
            inset: &HashSet<TaskId>,
        ) -> bool {
            let pset: HashSet<TaskId> = p.iter().copied().collect();
            let sset: HashSet<TaskId> = s.iter().copied().collect();
            let sinks_p: HashSet<TaskId> = (p.iter().copied())
                .filter(|&u| !g.succs(u).iter().any(|v| pset.contains(v)))
                .collect();
            let sources_s: HashSet<TaskId> = (s.iter().copied())
                .filter(|&u| !g.preds(u).iter().any(|v| sset.contains(v)))
                .collect();
            let mut cross = 0usize;
            for &u in p {
                for &v in g.succs(u) {
                    if !inset.contains(&v) || pset.contains(&v) {
                        continue;
                    }
                    if !sinks_p.contains(&u) || !sources_s.contains(&v) {
                        return false;
                    }
                    cross += 1;
                }
            }
            cross == sinks_p.len() * sources_s.len()
        }
    }

    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `g` with its task ids shuffled.
    fn relabelled(g: &TaskGraph, rng: &mut StdRng) -> TaskGraph {
        let mut perm: Vec<usize> = (0..g.n()).collect();
        for i in (1..perm.len()).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        let mut w = vec![0.0; g.n()];
        for (i, &p) in perm.iter().enumerate() {
            w[p] = g.weights()[i];
        }
        let edges: Vec<(usize, usize)> = g
            .edges()
            .iter()
            .map(|&(u, v)| (perm[u.0], perm[v.0]))
            .collect();
        TaskGraph::new(w, &edges).unwrap()
    }

    /// `g` with one random edge inserted (forward in a topological
    /// order, so it stays a DAG) or removed.
    fn one_edge_edited(g: &TaskGraph, rng: &mut StdRng) -> TaskGraph {
        let mut edges: Vec<(usize, usize)> = g.edges().iter().map(|&(u, v)| (u.0, v.0)).collect();
        if g.n() < 2 || (!edges.is_empty() && rng.gen_bool(0.5)) {
            if !edges.is_empty() {
                edges.swap_remove(rng.gen_range(0..edges.len()));
            }
        } else {
            let order = topo_order(g);
            let i = rng.gen_range(0..g.n() - 1);
            let j = rng.gen_range(i + 1..g.n());
            let e = (order[i].0, order[j].0);
            if !edges.contains(&e) {
                edges.push(e);
            }
        }
        TaskGraph::new(g.weights().to_vec(), &edges).unwrap()
    }

    /// One graph of every family the recognizers must agree on.
    fn family(kind: u8, n: usize, rng: &mut StdRng) -> TaskGraph {
        use crate::generators::{layered_dag, random_dag, random_out_tree, random_sp};
        match kind {
            0 => random_sp(n, rng.gen_range(0.2..0.8), 1.0, 2.0, rng).0,
            1 => random_dag(n, rng.gen_range(0.05..0.5), 1.0, 2.0, rng),
            2 => layered_dag(n.div_ceil(3), 3, rng.gen_range(0.2..0.9), 1.0, 2.0, rng),
            3 => random_out_tree(n, 1.0, 2.0, rng),
            4 => random_out_tree(n, 1.0, 2.0, rng).reversed(),
            _ => {
                let sp = random_sp(n, rng.gen_range(0.2..0.8), 1.0, 2.0, rng).0;
                one_edge_edited(&sp, rng)
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The one-scan recognizer reaches the oracle's verdict and
        /// canonical tree on every family, under any task labelling.
        #[test]
        fn one_scan_levels_match_the_oracle(seed in any::<u64>(), kind in 0u8..6, n in 1usize..60) {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = relabelled(&family(kind, n, &mut rng), &mut rng);
            prop_assert_eq!(SpTree::from_graph(&g), oracle::from_graph(&g));
        }
    }

    /// An SP graph of `k` nested levels, `3k + 1` tasks and depth
    /// `2k + 1`: each level runs a task, then the level below beside
    /// one task, then a task.
    fn nested(k: usize) -> TaskGraph {
        let mut shape = SpShape::Leaf(1.0);
        for _ in 0..k {
            shape = SpShape::Series(vec![
                SpShape::Leaf(1.0),
                SpShape::Parallel(vec![shape, SpShape::Leaf(1.0)]),
                SpShape::Leaf(1.0),
            ]);
        }
        shape.build().0
    }

    #[test]
    fn recognition_scans_each_level_once() {
        for g in [blocks(500).0, blocks(2000).0, nested(50), nested(200)] {
            let local = Local::whole(&g, &topo_order(&g));
            let mut scan = Scan::new(&local);
            let tree = scan.recognize().unwrap();
            let steps = scan.steps;
            let bound = 8 * (g.n() + g.m()) as u64 * tree.depth() as u64;
            assert!(
                steps <= bound,
                "{steps} adjacency scans > {bound} on {} tasks",
                g.n()
            );
        }
    }
}
