//! # convex — log-barrier interior-point substrate
//!
//! §2.1 of the paper observes that `MinEnergy(Ĝ, D)` under the
//! Continuous model on an arbitrary execution graph "is a geometric
//! programming problem … for which efficient numerical schemes exist",
//! and that the optimal speeds are irrational in general, so one
//! "solves the problem numerically and gets fixed-size numbers which
//! are good approximations of the optimal values". This crate is that
//! numerical scheme, built from scratch (no external solver crates):
//!
//! * [`linalg`] — dense symmetric positive-definite linear algebra
//!   (Cholesky with ridge fallback), kept as the reference the sparse
//!   Newton solve is tested against;
//! * [`barrier`] — a log-barrier Newton interior-point method for
//!   convex objectives with **diagonal Hessians** under sparse linear
//!   inequality constraints. The MinEnergy objective
//!   `Σ w_i^α / d_i^{α−1}` is separable in the durations, so the
//!   diagonal-Hessian restriction is exact, and each precedence
//!   constraint has at most three nonzeros. The Newton system is
//!   therefore a diagonal plus one small clique per constraint: each
//!   barrier solve orders that pattern once by minimum degree, and
//!   every Newton step assembles into and factors a sparse Cholesky
//!   factor on it, in time and memory that follow the factor's fill
//!   instead of `(2n)²`.
//!
//! The barrier method is the standard one (Boyd & Vandenberghe §11,
//! the reference the paper itself cites): follow the central path,
//! multiplying the barrier weight by 20 per round until the duality
//! gap bound `m / t` falls under the caller's tolerance.

pub mod barrier;
pub mod linalg;
mod sparse;

pub use barrier::{
    BarrierSolution, BarrierSolver, ConvexError, LinearConstraint, Objective, WarmStart,
};
pub use linalg::Matrix;
