//! Problem definition types for linear and mixed-integer programs.

use crate::branch;
use crate::{Solution, SolveError, EPS};

/// Direction of optimization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Sense {
    /// Maximize the objective (the paper's Eq. 3.3 form).
    #[default]
    Maximize,
    /// Minimize the objective.
    Minimize,
}

/// Relational operator of a linear constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    /// `coeffs · x ≤ rhs`
    Le,
    /// `coeffs · x = rhs`
    Eq,
    /// `coeffs · x ≥ rhs`
    Ge,
}

/// A single linear constraint `coeffs · x (rel) rhs`.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// One coefficient per decision variable.
    pub coeffs: Vec<f64>,
    /// The relational operator.
    pub rel: Relation,
    /// Right-hand side constant.
    pub rhs: f64,
}

impl Constraint {
    /// Creates a new constraint.
    pub fn new(coeffs: Vec<f64>, rel: Relation, rhs: f64) -> Self {
        Self { coeffs, rel, rhs }
    }

    /// Evaluates whether `point` satisfies this constraint within [`EPS`]
    /// scaled by the constraint magnitude.
    pub fn is_satisfied(&self, point: &[f64]) -> bool {
        let lhs: f64 = self
            .coeffs
            .iter()
            .zip(point)
            .map(|(c, x)| c * x)
            .sum();
        satisfies(lhs, self.rel, self.rhs)
    }
}

/// Whether `lhs (rel) rhs` holds within [`EPS`] scaled by the
/// constraint magnitude.
pub(crate) fn satisfies(lhs: f64, rel: Relation, rhs: f64) -> bool {
    let tol = EPS.max(1e-7 * (1.0 + rhs.abs()));
    match rel {
        Relation::Le => lhs <= rhs + tol,
        Relation::Eq => (lhs - rhs).abs() <= tol,
        Relation::Ge => lhs >= rhs - tol,
    }
}

/// A linear program, optionally with integrality requirements on a subset
/// of the variables. All variables are implicitly non-negative, matching
/// the paper's pattern-multiplicity variables `L_i ≥ 0`.
///
/// # Example
///
/// ```
/// use gcs_milp::{Problem, Relation};
///
/// # fn main() -> Result<(), gcs_milp::SolveError> {
/// // maximize x + y  s.t.  2x + y <= 3
/// let mut p = Problem::maximize(vec![1.0, 1.0]);
/// p.add_constraint(vec![2.0, 1.0], Relation::Le, 3.0);
/// let sol = p.solve()?;
/// assert!((sol.objective - 3.0).abs() < 1e-6); // y = 3
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Problem {
    pub(crate) sense: Sense,
    pub(crate) objective: Vec<f64>,
    pub(crate) constraints: Vec<Constraint>,
    pub(crate) integer: Vec<bool>,
    pub(crate) node_limit: usize,
}

impl Problem {
    /// Creates a maximization problem over `objective.len()` non-negative
    /// variables.
    pub fn maximize(objective: Vec<f64>) -> Self {
        Self::with_sense(Sense::Maximize, objective)
    }

    /// Creates a minimization problem over `objective.len()` non-negative
    /// variables.
    pub fn minimize(objective: Vec<f64>) -> Self {
        Self::with_sense(Sense::Minimize, objective)
    }

    fn with_sense(sense: Sense, objective: Vec<f64>) -> Self {
        let n = objective.len();
        Self {
            sense,
            objective,
            constraints: Vec::new(),
            integer: vec![false; n],
            node_limit: 200_000,
        }
    }

    /// Number of decision variables.
    pub fn num_vars(&self) -> usize {
        self.objective.len()
    }

    /// Objective coefficients.
    pub fn objective(&self) -> &[f64] {
        &self.objective
    }

    /// The constraints added so far.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Optimization sense.
    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Adds the constraint `coeffs · x (rel) rhs`.
    ///
    /// # Panics
    ///
    /// Panics if `coeffs.len()` differs from the number of variables.
    pub fn add_constraint(&mut self, coeffs: Vec<f64>, rel: Relation, rhs: f64) -> &mut Self {
        assert_eq!(
            coeffs.len(),
            self.num_vars(),
            "constraint arity {} does not match variable count {}",
            coeffs.len(),
            self.num_vars()
        );
        self.constraints.push(Constraint::new(coeffs, rel, rhs));
        self
    }

    /// Marks variable `idx` as integer (or relaxes it back to continuous).
    ///
    /// # Panics
    ///
    /// Panics if `idx` is out of range.
    pub fn set_integer(&mut self, idx: usize, integral: bool) -> &mut Self {
        self.integer[idx] = integral;
        self
    }

    /// Marks every variable as integer (or all continuous).
    pub fn set_all_integer(&mut self, integral: bool) -> &mut Self {
        for flag in &mut self.integer {
            *flag = integral;
        }
        self
    }

    /// Returns whether variable `idx` must be integral.
    pub fn is_integer(&self, idx: usize) -> bool {
        self.integer[idx]
    }

    /// Replaces the branch & bound node budget (default 200 000).
    pub fn set_node_limit(&mut self, limit: usize) -> &mut Self {
        self.node_limit = limit;
        self
    }

    /// Checks `point` against every constraint and non-negativity.
    pub fn is_feasible(&self, point: &[f64]) -> bool {
        point.len() == self.num_vars()
            && point.iter().all(|&x| x >= -EPS)
            && self.constraints.iter().all(|c| c.is_satisfied(point))
    }

    /// Evaluates the objective at `point` (in the problem's own sense).
    pub fn objective_value(&self, point: &[f64]) -> f64 {
        self.objective
            .iter()
            .zip(point)
            .map(|(c, x)| c * x)
            .sum()
    }

    /// Checks the problem, with `rhs` standing in for the constraints'
    /// own right-hand sides when given.
    fn validate(&self, rhs: Option<&[f64]>) -> Result<(), SolveError> {
        if self.objective.is_empty() {
            return Err(SolveError::Malformed("problem has no variables".into()));
        }
        if let Some(rhs) = rhs {
            if rhs.len() != self.constraints.len() {
                return Err(SolveError::Malformed(format!(
                    "{} right-hand sides for {} constraints",
                    rhs.len(),
                    self.constraints.len()
                )));
            }
        }
        for (i, c) in self.constraints.iter().enumerate() {
            if c.coeffs.len() != self.num_vars() {
                return Err(SolveError::Malformed(format!(
                    "constraint {i} has arity {} but problem has {} variables",
                    c.coeffs.len(),
                    self.num_vars()
                )));
            }
            let b = rhs.map_or(c.rhs, |rhs| rhs[i]);
            if !b.is_finite() || c.coeffs.iter().any(|v| !v.is_finite()) {
                return Err(SolveError::Malformed(format!(
                    "constraint {i} contains a non-finite coefficient"
                )));
            }
        }
        if self.objective.iter().any(|v| !v.is_finite()) {
            return Err(SolveError::Malformed(
                "objective contains a non-finite coefficient".into(),
            ));
        }
        Ok(())
    }

    /// Solves the LP relaxation only, ignoring integrality flags.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`], [`SolveError::Unbounded`],
    /// [`SolveError::Malformed`], or [`SolveError::BudgetExhausted`]
    /// when the simplex iteration budget ran out before a feasible point
    /// was found (a budget hit *after* reaching feasibility is returned
    /// as a solution with `exact == false` instead).
    pub fn solve_relaxation(&self) -> Result<Solution, SolveError> {
        self.validate(None)?;
        branch::with_workspace(|ws| ws.relax(self, None))
    }

    /// Solves the problem: plain simplex if no variable is integral,
    /// branch & bound otherwise.
    ///
    /// # Errors
    ///
    /// [`SolveError::Infeasible`] if no feasible point exists,
    /// [`SolveError::Unbounded`] if the relaxation is unbounded,
    /// [`SolveError::NodeLimit`] if branch & bound exhausts its node budget,
    /// and [`SolveError::Malformed`] for structurally invalid input.
    pub fn solve(&self) -> Result<Solution, SolveError> {
        self.validate(None)?;
        branch::with_workspace(|ws| ws.solve(self, None))
    }

    /// [`Problem::solve`] with `rhs[i]` as constraint `i`'s right-hand
    /// side in place of its own: a caller that re-solves one constraint
    /// system for many right-hand sides builds it once. The result is
    /// bit-identical to solving a copy whose right-hand sides were set
    /// to `rhs`.
    ///
    /// # Errors
    ///
    /// As [`Problem::solve`]; [`SolveError::Malformed`] also when `rhs`
    /// has not one finite entry per constraint.
    pub fn solve_with_rhs(&self, rhs: &[f64]) -> Result<Solution, SolveError> {
        self.validate(Some(rhs))?;
        branch::with_workspace(|ws| ws.solve(self, Some(rhs)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraint_satisfaction() {
        let c = Constraint::new(vec![1.0, 2.0], Relation::Le, 5.0);
        assert!(c.is_satisfied(&[1.0, 2.0]));
        assert!(!c.is_satisfied(&[2.0, 2.0]));
        let e = Constraint::new(vec![1.0, 1.0], Relation::Eq, 2.0);
        assert!(e.is_satisfied(&[1.0, 1.0]));
        assert!(!e.is_satisfied(&[1.5, 1.0]));
        let g = Constraint::new(vec![1.0, 0.0], Relation::Ge, 1.0);
        assert!(g.is_satisfied(&[1.0, 0.0]));
        assert!(!g.is_satisfied(&[0.5, 9.0]));
    }

    #[test]
    fn simple_lp_maximize() {
        let mut p = Problem::maximize(vec![3.0, 5.0]);
        p.add_constraint(vec![1.0, 0.0], Relation::Le, 4.0);
        p.add_constraint(vec![0.0, 2.0], Relation::Le, 12.0);
        p.add_constraint(vec![3.0, 2.0], Relation::Le, 18.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 36.0).abs() < 1e-6);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 6.0).abs() < 1e-6);
    }

    #[test]
    fn simple_lp_minimize() {
        // minimize x + y s.t. x + y >= 2  -> objective 2
        let mut p = Problem::minimize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, 1.0], Relation::Ge, 2.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_detected() {
        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![1.0], Relation::Le, 1.0);
        p.add_constraint(vec![1.0], Relation::Ge, 2.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Infeasible);
    }

    #[test]
    fn unbounded_detected() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, -1.0], Relation::Le, 1.0);
        assert_eq!(p.solve().unwrap_err(), SolveError::Unbounded);
    }

    #[test]
    fn equality_constraints() {
        // maximize 2x + 3y s.t. x + y = 4, x - y = 0  => x = y = 2, obj = 10
        let mut p = Problem::maximize(vec![2.0, 3.0]);
        p.add_constraint(vec![1.0, 1.0], Relation::Eq, 4.0);
        p.add_constraint(vec![1.0, -1.0], Relation::Eq, 0.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 10.0).abs() < 1e-6);
    }

    #[test]
    fn malformed_rejected() {
        let p = Problem::maximize(vec![]);
        assert!(matches!(p.solve(), Err(SolveError::Malformed(_))));

        let mut p = Problem::maximize(vec![1.0]);
        p.add_constraint(vec![f64::NAN], Relation::Le, 1.0);
        assert!(matches!(p.solve(), Err(SolveError::Malformed(_))));
    }

    #[test]
    #[should_panic(expected = "constraint arity")]
    fn arity_mismatch_panics() {
        let mut p = Problem::maximize(vec![1.0, 2.0]);
        p.add_constraint(vec![1.0], Relation::Le, 1.0);
    }

    #[test]
    fn feasibility_check_includes_nonnegativity() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, 1.0], Relation::Le, 10.0);
        assert!(p.is_feasible(&[1.0, 2.0]));
        assert!(!p.is_feasible(&[-1.0, 2.0]));
        assert!(!p.is_feasible(&[1.0]));
    }

    #[test]
    fn minimize_relaxation_sign() {
        let mut p = Problem::minimize(vec![2.0]);
        p.add_constraint(vec![1.0], Relation::Ge, 3.0);
        let sol = p.solve_relaxation().unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-6);
        assert!((sol.values[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn degenerate_lp_does_not_cycle() {
        // Classic degenerate example (Beale's cycling example structure).
        let mut p = Problem::maximize(vec![0.75, -150.0, 0.02, -6.0]);
        p.add_constraint(vec![0.25, -60.0, -0.04, 9.0], Relation::Le, 0.0);
        p.add_constraint(vec![0.5, -90.0, -0.02, 3.0], Relation::Le, 0.0);
        p.add_constraint(vec![0.0, 0.0, 1.0, 0.0], Relation::Le, 1.0);
        let sol = p.solve().unwrap();
        assert!((sol.objective - 0.05).abs() < 1e-6);
    }
}
