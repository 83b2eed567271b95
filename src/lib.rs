//! # reclaim — facade crate
//!
//! Re-exports the whole workspace behind one dependency, hosts the
//! runnable examples (`examples/`) and the cross-crate integration
//! tests (`tests/`).
//!
//! Start with [`reclaim_core::solve`] and the `quickstart` example.

pub use convex;
pub use mapping;
pub use models;
pub use reclaim_cli as cli;
pub use reclaim_core as core;
pub use reclaim_service as service;
pub use report;
pub use sim;
pub use taskgraph;
