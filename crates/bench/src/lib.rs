//! # bench — experiment harness
//!
//! The brief announcement has no evaluation section, so the experiment
//! suite reproduces **every theorem and proposition as an executable
//! experiment** plus the "comparative study of energy models" that the
//! paper's conclusion announces (in the style of the companion
//! research report's simulations). The experiment index follows;
//! `experiments <id> --json DIR` records a run as `DIR/BENCH_<ID>.json`.
//!
//! * `T1`–`T7` — one experiment per theorem/proposition;
//! * `F1`–`F4` — comparative figures (energy vs deadline, vs mode
//!   count, vs graph family; LP-vs-heuristic ablation).
//!
//! Regenerate everything with
//! `cargo run -p bench --release --bin experiments -- all`.

pub mod experiments;
pub mod instances;

pub use instances::{
    deadline_grid, dmin, irregular_modes, random_execution_graph, spread_modes, Ensemble,
};
