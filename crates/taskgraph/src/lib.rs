//! # taskgraph — execution-graph substrate
//!
//! Directed-acyclic task graphs with per-task costs, as used by the
//! SPAA'11 paper *Reclaiming the Energy of a Schedule*. A [`TaskGraph`]
//! is the **execution graph** `Ĝ = (V, Ê)`: the application precedence
//! edges plus the serialization edges induced by a fixed mapping (see
//! the `mapping` crate for the augmentation step).
//!
//! The crate provides:
//!
//! * the graph data structure itself ([`TaskGraph`], [`TaskId`]),
//!   with cycle detection at construction time;
//! * graph analysis: topological orders, longest (critical) paths,
//!   per-task earliest/latest completion windows ([`analysis`]);
//! * structure detection: chains, forks, joins, in/out-trees, and
//!   series–parallel decomposition ([`structure`], [`sp`]);
//! * cached analysis for repeated solves on one graph: a
//!   [`PreparedInstance`] owns the graph and every analysis cache, and
//!   solvers take its [`PreparedGraph`] handle; once-only guarantees
//!   are observable via [`profiling`];
//! * incremental edits ([`edit`], [`GraphEdit`]) applied through
//!   [`PreparedInstance::apply`] with **selective cache invalidation**:
//!   a weight change keeps the topological order, shape class, SP
//!   tree, and transitive reduction; edge edits keep whatever
//!   provably survives;
//! * random and deterministic generators for every graph family used
//!   by the paper's experiments ([`generators`]);
//! * DOT export for visual inspection ([`dot`]).

pub mod analysis;
pub mod dot;
pub mod edit;
pub mod generators;
pub mod graph;
pub mod metrics;
pub mod prepared;
pub mod profiling;
pub mod sp;
pub mod structure;
pub mod workflows;

pub use edit::{EditError, GraphEdit};
pub use graph::{GraphError, TaskGraph, TaskId};
pub use prepared::{AnalysisSnapshot, PreparedGraph, PreparedInstance};
pub use sp::SpTree;
pub use structure::Shape;
