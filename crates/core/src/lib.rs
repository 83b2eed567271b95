//! # reclaim-core — MinEnergy(Ĝ, D) solvers
//!
//! The paper's contribution: given a frozen execution graph `Ĝ` and a
//! deadline `D`, choose per-task speeds minimizing the dynamic energy
//! `Σ s_i^α · d_i`, under each of the four energy models.
//!
//! Solver inventory (paper result → module):
//!
//! | Result | Module |
//! |---|---|
//! | Theorem 1 (fork closed form, incl. `s_max`) | [`continuous::solve_fork`] |
//! | Theorem 2 (trees, series–parallel) | [`continuous`] (`solve_tree`, `solve_sp`) |
//! | §2.1 geometric program on DAGs | [`continuous::solve_general_warm`] |
//! | Theorem 3 (Vdd-Hopping via LP, solved as its dual min-cost flow) | [`vdd`] |
//! | Theorem 4 (Discrete/Incremental exact, NP-hard) | [`discrete::exact`] |
//! | Theorem 5 (Incremental approximation) | [`incremental`] |
//! | Proposition 1 (model transfer bounds) | [`discrete::round_up_warm`], [`incremental`] |
//!
//! The unified entry point is [`solve`], which dispatches on the
//! [`models::EnergyModel`] and the detected graph shape. Repeated
//! solves on one graph (sweeps, bisections, model comparisons) should
//! go through the prepared-instance [`engine`] instead: it caches the
//! graph analysis, routes each model to its algorithm through one
//! `match`, and fans batches out over threads.

pub mod bicriteria;
pub mod continuous;
pub mod discrete;
pub mod engine;
pub mod error;
pub mod incremental;
pub mod solver;
pub mod vdd;

pub use engine::{CurveEnergy, CurvePoint, CurveSegment, CurveStats, Engine, ExactCurve};
pub use error::SolveError;
pub use solver::{solve, solve_with, Solution, SolveOptions};
