//! Branch & bound over the LP relaxation for mixed-integer programs.
//!
//! Classic most-fractional branching with depth-first traversal and
//! incumbent-based pruning. Each node is the parent problem plus one
//! bound cut (`x_i ≤ ⌊v⌋` or `x_i ≥ ⌈v⌉`), so a branching costs a full
//! (small) problem clone per child — entirely acceptable at the problem
//! sizes the co-scheduler produces (≤ 20 variables). The root is
//! borrowed from the caller, so a problem whose relaxation is already
//! integral is solved without copying it.

use std::borrow::Cow;

use crate::problem::{Problem, Relation, Sense};
use crate::{Solution, SolveError, INT_EPS};

/// Counters describing the branch & bound search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BranchStats {
    /// LP relaxations solved (nodes expanded).
    pub nodes: usize,
    /// Nodes pruned by the incumbent bound.
    pub pruned_by_bound: usize,
    /// Nodes whose relaxation was infeasible.
    pub pruned_infeasible: usize,
}

/// Solves a problem with at least one integral variable.
pub(crate) fn solve(problem: &Problem) -> Result<Solution, SolveError> {
    // Work internally in maximization form; flip back at the end.
    let root = problem.as_max_problem();
    let minimizing = problem.sense == Sense::Minimize;

    let mut stats = BranchStats::default();
    let mut incumbent: Option<Solution> = None;
    let mut stack: Vec<Cow<'_, Problem>> = vec![root];
    let mut root_unbounded = false;
    let mut first_node = true;

    while let Some(node) = stack.pop() {
        if stats.nodes >= problem.node_limit {
            return Err(SolveError::NodeLimit);
        }
        stats.nodes += 1;
        let relaxed = match node.solve_relaxation() {
            Ok(sol) => sol,
            Err(SolveError::Infeasible) => {
                stats.pruned_infeasible += 1;
                first_node = false;
                continue;
            }
            Err(SolveError::Unbounded) => {
                if first_node {
                    root_unbounded = true;
                    break;
                }
                // An unbounded child with a bounded integer optimum is
                // possible only for pathological mixed problems; treat the
                // direction as unusable and skip.
                continue;
            }
            Err(e) => return Err(e),
        };
        first_node = false;

        // Bound: relaxation optimum is an upper bound on any integer
        // solution in this subtree — but only when the relaxation was
        // solved to optimality. An inexact (budget-exhausted) value may
        // *under*state the true bound, so pruning on it could discard
        // the optimum; explore such subtrees instead.
        if relaxed.exact {
            if let Some(best) = &incumbent {
                if relaxed.objective <= best_objective_max(best, minimizing) + INT_EPS {
                    stats.pruned_by_bound += 1;
                    continue;
                }
            }
        }

        // Find the most fractional integral variable.
        let mut branch_var: Option<(usize, f64, f64)> = None; // (idx, value, frac-dist)
        for (i, &v) in relaxed.values.iter().enumerate() {
            if node.is_integer(i) {
                let frac = (v - v.round()).abs();
                if frac > INT_EPS {
                    let dist = (v.fract() - 0.5).abs();
                    match branch_var {
                        Some((_, _, bd)) if bd <= dist => {}
                        _ => branch_var = Some((i, v, dist)),
                    }
                }
            }
        }

        match branch_var {
            None => {
                // Integral: candidate incumbent. A point from an inexact
                // relaxation is re-checked against the node's constraints
                // before being trusted.
                if !relaxed.exact && !node.is_feasible(&relaxed.values) {
                    continue;
                }
                let better = match &incumbent {
                    None => true,
                    Some(best) => {
                        relaxed.objective > best_objective_max(best, minimizing) + INT_EPS
                    }
                };
                if better {
                    incumbent = Some(Solution {
                        values: relaxed.values,
                        objective: if minimizing {
                            -relaxed.objective
                        } else {
                            relaxed.objective
                        },
                        stats,
                        exact: relaxed.exact,
                    });
                }
            }
            Some((idx, value, _)) => {
                let floor = value.floor();
                let ceil = value.ceil();

                let mut ge = node.into_owned();
                let mut le = ge.clone();
                let mut row = vec![0.0; le.num_vars()];
                row[idx] = 1.0;
                le.add_constraint(row.clone(), Relation::Le, floor);
                ge.add_constraint(row, Relation::Ge, ceil);

                // Push the ≥ branch first so the ≤ branch (often tighter
                // for packing-style problems) is explored first.
                stack.push(Cow::Owned(ge));
                stack.push(Cow::Owned(le));
            }
        }
    }

    if root_unbounded {
        return Err(SolveError::Unbounded);
    }
    match incumbent {
        Some(mut sol) => {
            sol.stats = stats;
            // Snap integral variables exactly.
            for (i, v) in sol.values.iter_mut().enumerate() {
                if problem.is_integer(i) {
                    *v = v.round();
                }
            }
            sol.objective = problem.objective_value(&sol.values);
            Ok(sol)
        }
        None => Err(SolveError::Infeasible),
    }
}

/// Incumbent objective in maximization space.
fn best_objective_max(best: &Solution, minimizing: bool) -> f64 {
    if minimizing {
        -best.objective
    } else {
        best.objective
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    #[test]
    fn knapsack_small() {
        // max 10a + 6b + 4c s.t. a+b+c<=100, 10a+4b+5c<=600, 2a+2b+6c<=300
        // LP opt is fractional; integer opt is 732 at close-by point.
        let mut p = Problem::maximize(vec![10.0, 6.0, 4.0]);
        p.add_constraint(vec![1.0, 1.0, 1.0], Relation::Le, 100.0);
        p.add_constraint(vec![10.0, 4.0, 5.0], Relation::Le, 600.0);
        p.add_constraint(vec![2.0, 2.0, 6.0], Relation::Le, 300.0);
        p.set_all_integer(true);
        let sol = p.solve().unwrap();
        for v in &sol.values {
            assert!((v - v.round()).abs() < 1e-9);
        }
        assert!((sol.objective - 732.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn integrality_changes_optimum() {
        // max x s.t. 2x <= 5: LP gives 2.5, ILP gives 2.
        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![2.0], Relation::Le, 5.0);
        let lp = p.solve().unwrap();
        assert!((lp.objective - 2.5).abs() < 1e-9);
        p.set_all_integer(true);
        let ilp = p.solve().unwrap();
        assert!((ilp.objective - 2.0).abs() < 1e-9);
    }

    #[test]
    fn mixed_integer() {
        // max x + y, x integer, s.t. 2x + y <= 5.5, y <= 1.2
        // best: x = 2, y = 1.2 -> 3.2
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![2.0, 1.0], Relation::Le, 5.5);
        p.add_constraint(vec![0.0, 1.0], Relation::Le, 1.2);
        p.set_integer(0, true);
        let sol = p.solve().unwrap();
        assert!((sol.values[0] - 2.0).abs() < 1e-9);
        assert!((sol.objective - 3.2).abs() < 1e-6);
    }

    #[test]
    fn infeasible_integrality() {
        // 0.4 <= x <= 0.6 has a continuous point but no integer point.
        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![1.0], Relation::Ge, 0.4);
        p.add_constraint(vec![1.0], Relation::Le, 0.6);
        p.set_all_integer(true);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_integer_problem() {
        let mut p = Problem::maximize(vec![1.0]);
        p.set_all_integer(true);
        p.add_constraint(vec![-1.0], Relation::Le, 0.0); // x >= 0, vacuous
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn minimization_milp() {
        // min 3x + 4y s.t. x + 2y >= 14, 3x - y >= 0, x - y <= 2, integer.
        let mut p = Problem::minimize(vec![3.0, 4.0]);
        p.add_constraint(vec![1.0, 2.0], Relation::Ge, 14.0);
        p.add_constraint(vec![3.0, -1.0], Relation::Ge, 0.0);
        p.add_constraint(vec![1.0, -1.0], Relation::Le, 2.0);
        p.set_all_integer(true);
        let sol = p.solve().unwrap();
        assert!(p.is_feasible(&sol.values));
        for v in &sol.values {
            assert!((v - v.round()).abs() < 1e-9);
        }
        // LP optimum is at (2, 6) -> 30, which is integral already.
        assert!((sol.objective - 30.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn node_limit_respected() {
        let mut p = Problem::maximize(vec![1.0, 1.0, 1.0, 1.0]);
        p.add_constraint(vec![3.1, 5.9, 7.3, 9.7], Relation::Le, 1000.0);
        p.set_all_integer(true);
        p.set_node_limit(1);
        assert!(matches!(
            p.solve(),
            Err(SolveError::NodeLimit) | Ok(_)
        ));
    }

    #[test]
    fn stats_populated() {
        let mut p = Problem::maximize(vec![5.0, 4.0]);
        p.add_constraint(vec![6.0, 4.0], Relation::Le, 24.0);
        p.add_constraint(vec![1.0, 2.0], Relation::Le, 6.0);
        p.set_all_integer(true);
        let sol = p.solve().unwrap();
        assert!(sol.stats.nodes >= 1);
    }
}
