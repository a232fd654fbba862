//! # gcs-milp — a self-contained (mixed-)integer linear programming solver
//!
//! This crate implements, from scratch, the optimization machinery the paper
//! relies on for its contention-minimization step (§3.2.3): a dense
//! **two-phase primal simplex** solver for linear programs and a
//! **branch & bound** driver for (mixed-)integer programs.
//!
//! The co-scheduling ILPs produced by the paper are tiny — at most
//! `C(NT + NC - 1, NC)` variables (10 for two concurrent applications,
//! 20 for three) and `NT + 1` constraints — so a dense tableau is the right
//! representation: simple, cache-friendly and numerically transparent.
//!
//! Two independent solution paths are provided so each can validate the
//! other in tests:
//!
//! * [`Problem::solve`] — LP relaxation via simplex, integrality via
//!   branch & bound.
//! * [`enumerate::solve_by_enumeration`] — exhaustive search over the
//!   (bounded) integer lattice, exact but exponential; used as an oracle.
//!
//! ## Example
//!
//! Maximize `3x + 2y` subject to `x + y ≤ 4`, `x + 3y ≤ 6`, integer `x, y`:
//!
//! ```
//! use gcs_milp::{Problem, Relation};
//!
//! # fn main() -> Result<(), gcs_milp::SolveError> {
//! let mut p = Problem::maximize(vec![3.0, 2.0]);
//! p.add_constraint(vec![1.0, 1.0], Relation::Le, 4.0);
//! p.add_constraint(vec![1.0, 3.0], Relation::Le, 6.0);
//! p.set_all_integer(true);
//! let sol = p.solve()?;
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x = 4, y = 0
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod enumerate;
mod problem;
mod simplex;
mod branch;

pub use problem::{Problem, Constraint, Relation, Sense};
pub use branch::BranchStats;

use std::error::Error;
use std::fmt;

/// Numeric tolerance used throughout the solver for feasibility and
/// integrality tests.
pub const EPS: f64 = 1e-9;

/// Tolerance for deciding that a relaxation value is integral.
pub const INT_EPS: f64 = 1e-6;

/// An optimal solution to a [`Problem`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    /// Optimal variable assignment, one entry per decision variable.
    pub values: Vec<f64>,
    /// Objective value at `values`, in the problem's own sense
    /// (i.e. already negated back for minimization problems).
    pub objective: f64,
    /// Branch & bound statistics (all zeros for pure LPs).
    pub stats: BranchStats,
    /// Whether optimality was proven. `false` when a simplex iteration
    /// budget ran out: `values` is then feasible but possibly
    /// suboptimal, and callers should treat bounds derived from it
    /// conservatively.
    pub exact: bool,
}

impl Solution {
    /// Returns the variable assignment rounded to the nearest integers.
    ///
    /// Useful after a mixed-integer solve, where integral variables are
    /// only integral up to [`INT_EPS`].
    pub fn rounded(&self) -> Vec<i64> {
        self.values.iter().map(|v| v.round() as i64).collect()
    }
}

/// Errors produced by [`Problem::solve`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveError {
    /// The constraint system admits no feasible point.
    Infeasible,
    /// The objective is unbounded over the feasible region.
    Unbounded,
    /// The problem definition is malformed (e.g. a constraint row whose
    /// length disagrees with the number of variables). The payload
    /// describes the defect.
    Malformed(String),
    /// Branch & bound exceeded its node budget without proving optimality.
    NodeLimit,
    /// The simplex iteration budget ran out before even a feasible point
    /// was found.
    BudgetExhausted,
}

impl fmt::Display for SolveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolveError::Infeasible => write!(f, "problem is infeasible"),
            SolveError::Unbounded => write!(f, "objective is unbounded"),
            SolveError::Malformed(why) => write!(f, "malformed problem: {why}"),
            SolveError::NodeLimit => write!(f, "branch and bound node limit exceeded"),
            SolveError::BudgetExhausted => {
                write!(f, "simplex iteration budget exhausted")
            }
        }
    }
}

impl Error for SolveError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn solution_rounding() {
        let sol = Solution {
            values: vec![1.9999999, 0.0000001, 3.0],
            objective: 5.0,
            stats: BranchStats::default(),
            exact: true,
        };
        assert_eq!(sol.rounded(), vec![2, 0, 3]);
    }

    #[test]
    fn error_display_is_lowercase() {
        assert_eq!(SolveError::Infeasible.to_string(), "problem is infeasible");
        assert_eq!(SolveError::Unbounded.to_string(), "objective is unbounded");
    }
}
