//! Exhaustive integer enumeration — an exact (exponential) oracle used to
//! cross-validate the branch & bound solver on small instances.
//!
//! The search space must be finite: every variable needs a derivable upper
//! bound. [`solve_by_enumeration`] infers per-variable bounds from the
//! constraint system (any `≤`/`=` row with all-nonnegative coefficients
//! bounds each variable with a positive coefficient).

use crate::problem::{Problem, Relation, Sense};
use crate::{Solution, SolveError};

/// Maximum number of lattice points the enumerator will visit before
/// giving up (protects tests against accidental combinatorial blow-up).
const MAX_POINTS: u64 = 50_000_000;

/// Derives a finite upper bound for every variable, or `None` for a
/// variable that no constraint bounds.
fn infer_bounds(problem: &Problem) -> Vec<Option<u64>> {
    let n = problem.num_vars();
    let mut bounds: Vec<Option<u64>> = vec![None; n];
    for c in problem.constraints() {
        let binding = matches!(c.rel, Relation::Le | Relation::Eq);
        if !binding || c.rhs < 0.0 {
            continue;
        }
        if c.coeffs.iter().all(|&a| a >= 0.0) {
            for (i, &a) in c.coeffs.iter().enumerate() {
                if a > 0.0 {
                    let ub = (c.rhs / a).floor().max(0.0) as u64;
                    bounds[i] = Some(bounds[i].map_or(ub, |b| b.min(ub)));
                }
            }
        }
    }
    bounds
}

/// Solves an all-integer problem by exhaustive search, inferring bounds
/// from the constraints.
///
/// # Errors
///
/// * [`SolveError::Malformed`] if any variable is continuous or unbounded,
///   or if the search space exceeds `MAX_POINTS` (50 million).
/// * [`SolveError::Infeasible`] if no lattice point satisfies the
///   constraints.
///
/// # Example
///
/// ```
/// use gcs_milp::{Problem, Relation};
/// use gcs_milp::enumerate::solve_by_enumeration;
///
/// # fn main() -> Result<(), gcs_milp::SolveError> {
/// let mut p = Problem::maximize(vec![2.0, 3.0]);
/// p.add_constraint(vec![1.0, 1.0], Relation::Le, 3.0);
/// p.set_all_integer(true);
/// let sol = solve_by_enumeration(&p)?;
/// assert_eq!(sol.rounded(), vec![0, 3]);
/// # Ok(())
/// # }
/// ```
pub fn solve_by_enumeration(problem: &Problem) -> Result<Solution, SolveError> {
    let bounds = infer_bounds(problem);
    let concrete: Result<Vec<u64>, SolveError> = bounds
        .iter()
        .enumerate()
        .map(|(i, b)| {
            b.ok_or_else(|| {
                SolveError::Malformed(format!("variable {i} has no inferable upper bound"))
            })
        })
        .collect();
    solve_bounded(problem, &concrete?)
}

/// Solves an all-integer problem by exhaustive search over
/// `0..=bounds[i]` for each variable.
///
/// # Errors
///
/// See [`solve_by_enumeration`].
fn solve_bounded(problem: &Problem, bounds: &[u64]) -> Result<Solution, SolveError> {
    if bounds.len() != problem.num_vars() {
        return Err(SolveError::Malformed(format!(
            "bounds arity {} does not match variable count {}",
            bounds.len(),
            problem.num_vars()
        )));
    }
    if (0..problem.num_vars()).any(|i| !problem.is_integer(i)) {
        return Err(SolveError::Malformed(
            "enumeration requires all variables integral".into(),
        ));
    }
    let mut space: u64 = 1;
    for &b in bounds {
        space = space.saturating_mul(b + 1);
        if space > MAX_POINTS {
            return Err(SolveError::Malformed(format!(
                "search space exceeds {MAX_POINTS} points"
            )));
        }
    }

    let maximizing = problem.sense() == Sense::Maximize;
    let mut best: Option<(Vec<f64>, f64)> = None;
    let mut point = vec![0.0f64; problem.num_vars()];
    visit(problem, bounds, 0, &mut point, maximizing, &mut best);

    match best {
        Some((values, objective)) => Ok(Solution {
            values,
            objective,
            stats: Default::default(),
            exact: true,
        }),
        None => Err(SolveError::Infeasible),
    }
}

fn visit(
    problem: &Problem,
    bounds: &[u64],
    depth: usize,
    point: &mut Vec<f64>,
    maximizing: bool,
    best: &mut Option<(Vec<f64>, f64)>,
) {
    if depth == bounds.len() {
        if problem.is_feasible(point) {
            let obj = problem.objective_value(point);
            let better = match best {
                None => true,
                Some((_, b)) => {
                    if maximizing {
                        obj > *b + 1e-12
                    } else {
                        obj < *b - 1e-12
                    }
                }
            };
            if better {
                *best = Some((point.clone(), obj));
            }
        }
        return;
    }
    for v in 0..=bounds[depth] {
        point[depth] = v as f64;
        visit(problem, bounds, depth + 1, point, maximizing, best);
    }
    point[depth] = 0.0;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation};

    #[test]
    fn bounds_inferred_from_le_rows() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![2.0, 1.0], Relation::Le, 10.0);
        let b = infer_bounds(&p);
        assert_eq!(b, vec![Some(5), Some(10)]);
    }

    #[test]
    fn unbounded_variable_detected() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, 0.0], Relation::Le, 3.0);
        p.set_all_integer(true);
        assert!(matches!(
            solve_by_enumeration(&p),
            Err(SolveError::Malformed(_))
        ));
    }

    #[test]
    fn agrees_with_branch_and_bound() {
        let mut p = Problem::maximize(vec![10.0, 6.0, 4.0]);
        p.add_constraint(vec![1.0, 1.0, 1.0], Relation::Le, 20.0);
        p.add_constraint(vec![10.0, 4.0, 5.0], Relation::Le, 60.0);
        p.set_all_integer(true);
        let bb = p.solve().unwrap();
        let en = solve_by_enumeration(&p).unwrap();
        assert!((bb.objective - en.objective).abs() < 1e-6);
    }

    #[test]
    fn equality_rows_bound_too() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, 1.0], Relation::Eq, 4.0);
        p.set_all_integer(true);
        let sol = solve_by_enumeration(&p).unwrap();
        assert!((sol.objective - 4.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_lattice() {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![2.0], Relation::Eq, 3.0);
        p.set_all_integer(true);
        assert_eq!(
            solve_by_enumeration(&p).unwrap_err(),
            SolveError::Infeasible
        );
    }

    #[test]
    fn continuous_variable_rejected() {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![1.0], Relation::Le, 2.0);
        assert!(matches!(
            solve_by_enumeration(&p),
            Err(SolveError::Malformed(_))
        ));
    }

    #[test]
    fn minimization_enumeration() {
        let mut p = Problem::minimize(vec![1.0, 2.0]);
        p.add_constraint(vec![1.0, 1.0], Relation::Le, 5.0);
        p.add_constraint(vec![1.0, 1.0], Relation::Ge, 2.0);
        p.set_all_integer(true);
        let sol = solve_by_enumeration(&p).unwrap();
        // cheapest way to reach sum >= 2 is x = 2, y = 0 -> cost 2
        assert!((sol.objective - 2.0).abs() < 1e-9);
        assert_eq!(sol.rounded(), vec![2, 0]);
    }
}
