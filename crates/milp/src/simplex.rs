//! Dense two-phase primal simplex.
//!
//! The solver works on the standard form
//!
//! ```text
//! maximize  c · x
//! s.t.      A x {≤,=,≥} b,   x ≥ 0
//! ```
//!
//! Rows are normalized to non-negative right-hand sides, then slack,
//! surplus and artificial columns are appended. Phase 1 drives the
//! artificials to zero (or proves infeasibility); phase 2 optimizes the
//! real objective. Pivoting uses Dantzig's rule with a Bland's-rule
//! fallback after a fixed number of degenerate iterations, which
//! guarantees termination on cycling-prone instances.

use crate::problem::{satisfies, Constraint, Relation};
use crate::EPS;

/// Status of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum LpStatus {
    /// An optimal basic feasible solution was found.
    Optimal,
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded above.
    Unbounded,
    /// The iteration budget ran out before optimality was proven. When
    /// a point is reported it is feasible but possibly suboptimal;
    /// otherwise not even feasibility was established.
    BudgetExhausted,
}

/// A bound cut `x_var (rel) rhs`, one per branch & bound branching.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Cut {
    pub(crate) var: usize,
    pub(crate) rel: Relation,
    pub(crate) rhs: f64,
}

impl Cut {
    /// The cut's coefficient on variable `i`: the unit row at `var`.
    fn coeff(&self, i: usize) -> f64 {
        if i == self.var {
            1.0
        } else {
            0.0
        }
    }
}

/// The rows of one LP: the base constraints, their right-hand sides
/// taken from `rhs` when given (else their own), then the cuts.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Rows<'a> {
    pub(crate) base: &'a [Constraint],
    pub(crate) rhs: Option<&'a [f64]>,
    pub(crate) cuts: &'a [Cut],
}

impl Rows<'_> {
    fn len(&self) -> usize {
        self.base.len() + self.cuts.len()
    }

    /// Relation and right-hand side of row `r`.
    fn rel_rhs(&self, r: usize) -> (Relation, f64) {
        match self.base.get(r) {
            Some(c) => (c.rel, self.rhs.map_or(c.rhs, |rhs| rhs[r])),
            None => {
                let cut = &self.cuts[r - self.base.len()];
                (cut.rel, cut.rhs)
            }
        }
    }

    /// Whether `point` is non-negative and satisfies every row, within
    /// [`Problem::is_feasible`](crate::Problem::is_feasible)'s tolerances.
    pub(crate) fn admit(&self, point: &[f64]) -> bool {
        let row_holds = |r: usize| {
            let lhs: f64 = match self.base.get(r) {
                Some(c) => c.coeffs.iter().zip(point).map(|(a, x)| a * x).sum(),
                None => {
                    let cut = &self.cuts[r - self.base.len()];
                    point.iter().enumerate().map(|(i, x)| cut.coeff(i) * x).sum()
                }
            };
            let (rel, rhs) = self.rel_rhs(r);
            satisfies(lhs, rel, rhs)
        };
        point.iter().all(|&x| x >= -EPS) && (0..self.len()).all(row_holds)
    }
}

/// Dense simplex tableau with explicit basis bookkeeping. Its buffers
/// outlive one solve: each [`Tableau::solve`] resizes and refills them,
/// so a reused tableau allocates only when a problem outgrows it.
#[derive(Debug)]
pub(crate) struct Tableau {
    /// Row-major `m x (total_cols + 1)` coefficient matrix in one
    /// buffer; the last column of each row is the RHS.
    a: Vec<f64>,
    /// Number of constraint rows.
    m: usize,
    /// Objective row (reduced costs), length `total_cols + 1`.
    obj: Vec<f64>,
    /// Basis: `basis[r]` is the column index basic in row `r`.
    basis: Vec<usize>,
    /// Total number of columns excluding RHS.
    total: usize,
    /// Column index where artificial variables begin.
    art_start: usize,
}

/// A row's relation once its RHS is made non-negative.
fn normalized(rel: Relation, rhs: f64) -> Relation {
    match (rhs < 0.0, rel) {
        (false, rel) | (true, rel @ Relation::Eq) => rel,
        (true, Relation::Le) => Relation::Ge,
        (true, Relation::Ge) => Relation::Le,
    }
}

impl Tableau {
    /// An empty tableau; its buffers grow on first use.
    pub(crate) const fn new() -> Tableau {
        Tableau {
            a: Vec::new(),
            m: 0,
            obj: Vec::new(),
            basis: Vec::new(),
            total: 0,
            art_start: 0,
        }
    }

    /// Maximizes `objective · x` subject to `rows` and `x ≥ 0`, with a
    /// per-phase pivot budget (`None` = the size-derived default, which
    /// no well-formed co-scheduling problem comes near). Returns the
    /// status and objective value; `values` is left holding the point,
    /// or empty when no feasible point was reached.
    pub(crate) fn solve(
        &mut self,
        objective: &[f64],
        rows: Rows<'_>,
        budget: Option<usize>,
        values: &mut Vec<f64>,
    ) -> (LpStatus, f64) {
        values.clear();
        let n = objective.len();
        let m = rows.len();

        // Count auxiliary columns. Every row gets either a slack (Le), a
        // surplus+artificial (Ge) or an artificial (Eq) after RHS
        // normalization.
        let mut num_slack = 0usize;
        let mut num_art = 0usize;
        for r in 0..m {
            let (rel, rhs) = rows.rel_rhs(r);
            match normalized(rel, rhs) {
                Relation::Le => num_slack += 1,
                Relation::Ge => {
                    num_slack += 1;
                    num_art += 1;
                }
                Relation::Eq => num_art += 1,
            }
        }

        let art_start = n + num_slack;
        let total = art_start + num_art;
        let width = total + 1;

        let t = self;
        t.a.clear();
        t.a.resize(m * width, 0.0);
        t.m = m;
        t.obj.clear();
        t.obj.resize(width, 0.0);
        t.basis.clear();
        t.basis.resize(m, usize::MAX);
        t.total = total;
        t.art_start = art_start;
        let mut slack_idx = n;
        let mut art_idx = art_start;

        // Each row is written normalized: a negative RHS flips the row's
        // signs and its relation.
        for r in 0..m {
            let (rel, rhs) = rows.rel_rhs(r);
            let row = t.row_mut(r);
            let flip = rhs < 0.0;
            match rows.base.get(r) {
                Some(c) if flip => {
                    for (v, &x) in row[..n].iter_mut().zip(&c.coeffs) {
                        *v = -x;
                    }
                }
                Some(c) => row[..n].copy_from_slice(&c.coeffs),
                None => {
                    let cut = &rows.cuts[r - rows.base.len()];
                    for (i, v) in row[..n].iter_mut().enumerate() {
                        *v = if flip { -cut.coeff(i) } else { cut.coeff(i) };
                    }
                }
            }
            row[total] = if flip { -rhs } else { rhs };
            match normalized(rel, rhs) {
                Relation::Le => {
                    row[slack_idx] = 1.0;
                    t.basis[r] = slack_idx;
                    slack_idx += 1;
                }
                Relation::Ge => {
                    row[slack_idx] = -1.0; // surplus
                    slack_idx += 1;
                    row[art_idx] = 1.0;
                    t.basis[r] = art_idx;
                    art_idx += 1;
                }
                Relation::Eq => {
                    row[art_idx] = 1.0;
                    t.basis[r] = art_idx;
                    art_idx += 1;
                }
            }
        }

        // Phase 1: maximize -(sum of artificials), i.e. reduced costs start as
        // the negated sum of rows that have a basic artificial.
        if num_art > 0 {
            for col in art_start..total {
                t.obj[col] = -1.0;
            }
            // Price out basic artificials.
            for r in 0..m {
                if t.basis[r] >= art_start {
                    for (o, v) in t.obj.iter_mut().zip(&t.a[r * width..(r + 1) * width]) {
                        *o += *v;
                    }
                }
            }
            match t.run(budget) {
                PivotOutcome::Optimal => {}
                PivotOutcome::Unbounded => {
                    // Phase-1 objective is bounded above by 0; reaching here
                    // indicates numerical trouble. Treat as infeasible.
                    return (LpStatus::Infeasible, 0.0);
                }
                PivotOutcome::IterLimit => {
                    // Feasibility was never established — there is no point
                    // to report.
                    return (LpStatus::BudgetExhausted, 0.0);
                }
            }
            // The objective-row RHS cell tracks -(phase-1 objective), i.e. the
            // current sum of artificial variables. Feasible iff it reached zero.
            if t.obj[t.total] > 1e-7 {
                return (LpStatus::Infeasible, 0.0);
            }
            // Pivot any artificial still basic (at zero) out of the basis to
            // keep phase 2 clean; if its row is all zeros over structural and
            // slack columns, the row is redundant and can stay.
            for r in 0..m {
                if t.basis[r] >= t.art_start {
                    let pivot_col = (0..t.art_start).find(|&c| t.row(r)[c].abs() > EPS);
                    if let Some(c) = pivot_col {
                        t.pivot(r, c);
                    }
                }
            }
        }

        // Phase 2: install the real objective, expressed in terms of the
        // current basis. Artificial columns are frozen out by making their
        // reduced costs prohibitively negative.
        // Price out the basic variables: reduced_cost = c - c_B * B^-1 A.
        // The tableau rows already hold B^-1 A, so accumulate
        // z = c_B * row_r in the objective row's buffer first.
        t.obj.fill(0.0);
        for r in 0..m {
            let b = t.basis[r];
            let cb = if b < n { objective[b] } else { 0.0 };
            if cb != 0.0 {
                for (zv, rv) in t.obj.iter_mut().zip(&t.a[r * width..(r + 1) * width]) {
                    *zv += cb * rv;
                }
            }
        }
        // Reduced costs c - z; the RHS cell becomes -(objective value).
        for (i, zv) in t.obj.iter_mut().enumerate() {
            let c = if i < n { objective[i] } else { 0.0 };
            *zv = c - *zv;
        }
        // Never re-enter artificial columns.
        for col in t.art_start..t.total {
            t.obj[col] = f64::NEG_INFINITY;
        }

        let status = match t.run(budget) {
            PivotOutcome::Optimal => LpStatus::Optimal,
            PivotOutcome::Unbounded => return (LpStatus::Unbounded, 0.0),
            // Every phase-2 iterate is feasible, so the current basic point
            // can still be reported — just not as optimal.
            PivotOutcome::IterLimit => LpStatus::BudgetExhausted,
        };

        values.resize(n, 0.0);
        for r in 0..m {
            if t.basis[r] < n {
                values[t.basis[r]] = t.row(r)[t.total];
            }
        }
        // Clamp tiny negative noise.
        for v in values.iter_mut() {
            if *v < 0.0 && *v > -1e-7 {
                *v = 0.0;
            }
        }
        let objective_value: f64 = objective.iter().zip(values.iter()).map(|(c, x)| c * x).sum();
        (status, objective_value)
    }
}

enum PivotOutcome {
    Optimal,
    Unbounded,
    /// The pivot budget ran out before optimality was proven.
    IterLimit,
}

impl Tableau {
    fn row(&self, r: usize) -> &[f64] {
        let w = self.total + 1;
        &self.a[r * w..(r + 1) * w]
    }

    fn row_mut(&mut self, r: usize) -> &mut [f64] {
        let w = self.total + 1;
        &mut self.a[r * w..(r + 1) * w]
    }

    /// Runs simplex iterations until optimality, unboundedness, or the
    /// pivot budget (`None` = size-derived default) runs out.
    fn run(&mut self, budget: Option<usize>) -> PivotOutcome {
        let mut degenerate_streak = 0usize;
        // Generous safety bound: the number of bases is finite and Bland's
        // rule prevents cycling, but cap iterations defensively.
        let max_iters = budget.unwrap_or(50_000 + 200 * (self.total + 1) * (self.m + 1));
        for _ in 0..max_iters {
            let use_bland = degenerate_streak > 64;
            let Some(col) = self.entering_column(use_bland) else {
                return PivotOutcome::Optimal;
            };
            let Some(row) = self.leaving_row(col, use_bland) else {
                return PivotOutcome::Unbounded;
            };
            let before_rhs = self.obj[self.total];
            self.pivot(row, col);
            if (self.obj[self.total] - before_rhs).abs() <= EPS {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
        }
        // Iteration budget exceeded: say so. Bland's rule makes this
        // unreachable with the default budget, but mislabeling the
        // current point "optimal" would silently corrupt every caller
        // that trusts the status.
        PivotOutcome::IterLimit
    }

    /// Chooses the entering column: most positive reduced cost (Dantzig),
    /// or smallest index with positive reduced cost (Bland).
    fn entering_column(&self, bland: bool) -> Option<usize> {
        if bland {
            (0..self.total).find(|&c| self.obj[c] > EPS)
        } else {
            let mut best = None;
            let mut best_val = EPS;
            for c in 0..self.total {
                if self.obj[c] > best_val {
                    best_val = self.obj[c];
                    best = Some(c);
                }
            }
            best
        }
    }

    /// Minimum ratio test; Bland tie-break on basis index when requested.
    fn leaving_row(&self, col: usize, bland: bool) -> Option<usize> {
        let rhs_col = self.total;
        let mut best: Option<(usize, f64)> = None;
        for r in 0..self.m {
            let row = self.row(r);
            let a = row[col];
            if a > EPS {
                let ratio = row[rhs_col] / a;
                match best {
                    None => best = Some((r, ratio)),
                    Some((br, bratio)) => {
                        let better = ratio < bratio - EPS
                            || ((ratio - bratio).abs() <= EPS
                                && if bland {
                                    self.basis[r] < self.basis[br]
                                } else {
                                    r < br
                                });
                        if better {
                            best = Some((r, ratio));
                        }
                    }
                }
            }
        }
        best.map(|(r, _)| r)
    }

    /// Gauss-Jordan pivot on `(row, col)`. The pivot row is borrowed
    /// in place beside the rows it eliminates from, never copied.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.total + 1;
        let (before, rest) = self.a.split_at_mut(row * w);
        let (pivot_row, after) = rest.split_at_mut(w);
        let p = pivot_row[col];
        debug_assert!(p.abs() > EPS, "pivot on a (near-)zero element");
        let inv = 1.0 / p;
        for v in pivot_row.iter_mut() {
            *v *= inv;
        }
        let pivot_row = &*pivot_row;
        for other in before.chunks_exact_mut(w).chain(after.chunks_exact_mut(w)) {
            let factor = other[col];
            if factor != 0.0 {
                for (o, pv) in other.iter_mut().zip(pivot_row) {
                    *o -= factor * pv;
                }
                other[col] = 0.0; // kill numerical residue exactly
            }
        }
        let factor = self.obj[col];
        if factor != 0.0 && factor.is_finite() {
            for (o, pv) in self.obj.iter_mut().zip(pivot_row) {
                if o.is_finite() {
                    *o -= factor * pv;
                }
            }
            self.obj[col] = 0.0;
        }
        self.basis[row] = col;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Constraint, Relation};

    fn c(coeffs: &[f64], rel: Relation, rhs: f64) -> Constraint {
        Constraint::new(coeffs.to_vec(), rel, rhs)
    }

    /// One LP's outcome, as a fresh tableau reports it.
    struct Lp {
        status: LpStatus,
        values: Vec<f64>,
        objective: f64,
    }

    fn solve_budgeted(objective: &[f64], constraints: &[Constraint], budget: Option<usize>) -> Lp {
        let rows = Rows {
            base: constraints,
            rhs: None,
            cuts: &[],
        };
        let mut values = Vec::new();
        let (status, objective) = Tableau::new().solve(objective, rows, budget, &mut values);
        Lp {
            status,
            values,
            objective,
        }
    }

    fn solve(objective: &[f64], constraints: &[Constraint]) -> Lp {
        solve_budgeted(objective, constraints, None)
    }

    #[test]
    fn textbook_max() {
        // max 3x+5y; x<=4; 2y<=12; 3x+2y<=18 -> 36 at (2,6)
        let sol = solve(
            &[3.0, 5.0],
            &[
                c(&[1.0, 0.0], Relation::Le, 4.0),
                c(&[0.0, 2.0], Relation::Le, 12.0),
                c(&[3.0, 2.0], Relation::Le, 18.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 36.0).abs() < 1e-6);
    }

    #[test]
    fn ge_constraints_need_phase1() {
        // max -x - y (i.e. min x+y) s.t. x + 2y >= 4, 3x + y >= 6
        // optimum of min at intersection: x = 8/5, y = 6/5 -> x+y = 14/5
        let sol = solve(
            &[-1.0, -1.0],
            &[
                c(&[1.0, 2.0], Relation::Ge, 4.0),
                c(&[3.0, 1.0], Relation::Ge, 6.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective + 14.0 / 5.0).abs() < 1e-6, "{}", sol.objective);
    }

    #[test]
    fn negative_rhs_normalized() {
        // x <= 5 written as -x >= -5.
        let sol = solve(&[1.0], &[c(&[-1.0], Relation::Ge, -5.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn infeasible_system() {
        let sol = solve(
            &[1.0],
            &[
                c(&[1.0], Relation::Le, 1.0),
                c(&[1.0], Relation::Ge, 3.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn unbounded_direction() {
        let sol = solve(&[1.0], &[c(&[0.0], Relation::Le, 1.0)]);
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn equality_only_system() {
        // max x + y s.t. x + y = 3, x - y = 1 -> (2,1), obj 3
        let sol = solve(
            &[1.0, 1.0],
            &[
                c(&[1.0, 1.0], Relation::Eq, 3.0),
                c(&[1.0, -1.0], Relation::Eq, 1.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 3.0).abs() < 1e-6);
        assert!((sol.values[0] - 2.0).abs() < 1e-6);
        assert!((sol.values[1] - 1.0).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows() {
        // x + y = 2 twice: redundant but consistent.
        let sol = solve(
            &[1.0, 0.0],
            &[
                c(&[1.0, 1.0], Relation::Eq, 2.0),
                c(&[1.0, 1.0], Relation::Eq, 2.0),
            ],
        );
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn zero_objective() {
        let sol = solve(&[0.0, 0.0], &[c(&[1.0, 1.0], Relation::Le, 1.0)]);
        assert_eq!(sol.status, LpStatus::Optimal);
        assert_eq!(sol.objective, 0.0);
    }

    #[test]
    fn phase2_budget_exhaustion_reports_feasible_point_not_optimal() {
        // One pivot is not enough to reach the optimum of the textbook
        // problem; the solver must say BudgetExhausted (not Optimal) and
        // still hand back the feasible point it stopped at.
        let constraints = [
            c(&[1.0, 0.0], Relation::Le, 4.0),
            c(&[0.0, 2.0], Relation::Le, 12.0),
            c(&[3.0, 2.0], Relation::Le, 18.0),
        ];
        let sol = solve_budgeted(&[3.0, 5.0], &constraints, Some(1));
        assert_eq!(sol.status, LpStatus::BudgetExhausted);
        assert!(!sol.values.is_empty());
        assert!(sol.objective < 36.0 - 1e-6, "{}", sol.objective);
        for con in &constraints {
            assert!(con.is_satisfied(&sol.values), "point must stay feasible");
        }
        // The untouched budget still reaches the true optimum.
        let full = solve(&[3.0, 5.0], &constraints);
        assert_eq!(full.status, LpStatus::Optimal);
    }

    #[test]
    fn phase1_budget_exhaustion_reports_no_point() {
        // Zero pivots cannot drive the artificials out, so feasibility
        // is never established and no point may be reported.
        let sol = solve_budgeted(
            &[-1.0, -1.0],
            &[
                c(&[1.0, 2.0], Relation::Ge, 4.0),
                c(&[3.0, 1.0], Relation::Ge, 6.0),
            ],
            Some(0),
        );
        assert_eq!(sol.status, LpStatus::BudgetExhausted);
        assert!(sol.values.is_empty());
    }
}
