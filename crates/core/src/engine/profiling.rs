//! The engine's work counters (`warm_lost`, `bnb_nodes`,
//! `bnb_steals`) live in the workspace's one per-thread ledger,
//! [`taskgraph::profiling`]; this path re-exports it.

pub use taskgraph::profiling::{counts, Counts};
