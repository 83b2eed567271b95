//! Solver errors.

use std::fmt;

/// Why `MinEnergy(Ĝ, D)` could not be solved.
#[derive(Debug, Clone, PartialEq)]
pub enum SolveError {
    /// No speed assignment meets the deadline: even at the fastest
    /// admissible speeds the critical path takes `min_makespan > D`.
    Infeasible {
        /// The deadline that was requested.
        deadline: f64,
        /// The minimum achievable makespan at top speed (the smallest
        /// feasible deadline).
        min_makespan: f64,
    },
    /// The numerical substrate failed (barrier stall, a warm flow
    /// repair that did not converge). Carries a human-readable reason.
    Numerical(String),
    /// An exact search ran out of its node budget before finding any
    /// feasible incumbent to return. A budget trip *with* an incumbent
    /// is not an error — the solver returns the incumbent as an
    /// anytime result instead (see `discrete::ExactSolution::complete`).
    BudgetExhausted {
        /// Nodes expanded when the search gave up.
        nodes: u64,
        /// The budget that was exhausted.
        budget: u64,
    },
    /// The model/graph combination is not supported by the requested
    /// specialized algorithm (e.g. asking the SP closed form for a
    /// non-SP graph).
    Unsupported(String),
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible {
                deadline,
                min_makespan,
            } => write!(
                f,
                "infeasible: deadline {deadline} < minimum makespan {min_makespan} at top speed"
            ),
            SolveError::Numerical(msg) => write!(f, "numerical failure: {msg}"),
            SolveError::BudgetExhausted { nodes, budget } => write!(
                f,
                "branch-and-bound node budget {budget} exhausted after {nodes} nodes with no incumbent"
            ),
            SolveError::Unsupported(msg) => write!(f, "unsupported: {msg}"),
        }
    }
}

impl std::error::Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        let e = SolveError::Infeasible {
            deadline: 1.0,
            min_makespan: 2.0,
        };
        assert!(e.to_string().contains("infeasible"));
        assert!(SolveError::Numerical("x".into()).to_string().contains("x"));
        let b = SolveError::BudgetExhausted {
            nodes: 11,
            budget: 10,
        };
        assert!(b.to_string().contains("budget 10"));
        assert!(b.to_string().contains("11 nodes"));
        assert!(SolveError::Unsupported("y".into())
            .to_string()
            .contains("y"));
    }
}
