//! Branch & bound over the LP relaxation for mixed-integer programs.
//!
//! Classic most-fractional branching with depth-first traversal and
//! incumbent-based pruning. A node is the base problem plus its list of
//! bound cuts (`x_i ≤ ⌊v⌋` or `x_i ≥ ⌈v⌉`), appended below the base rows
//! in branching order; the search keeps only the current node's cuts
//! and a stack of `(depth, cut)` entries, never a copy of the problem.
//! Every LP of a solve runs on one [`Workspace`] — tableau, objective,
//! point and incumbent buffers — kept per thread and reused across
//! solves, so a warm solve allocates only the values it returns.

use std::cell::RefCell;

use crate::problem::{Problem, Relation, Sense};
use crate::simplex::{Cut, LpStatus, Rows, Tableau};
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

/// The buffers one solve works in. Each solve overwrites all of them,
/// so what a previous solve left behind — of any shape, or after any
/// error — never reaches the next one's arithmetic.
#[derive(Debug)]
pub(crate) struct Workspace {
    tableau: Tableau,
    /// The problem's objective in maximization form.
    objective: Vec<f64>,
    /// The point of the relaxation just solved.
    values: Vec<f64>,
    /// The incumbent's point.
    best: Vec<f64>,
    /// Nodes still to expand: the node's depth (its number of cuts) and
    /// its own cut, `None` for the root.
    stack: Vec<(usize, Option<Cut>)>,
    /// The cuts of the node being expanded, root-most first.
    path: Vec<Cut>,
}

thread_local! {
    static WORKSPACE: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Runs `f` on this thread's workspace.
pub(crate) fn with_workspace<T>(f: impl FnOnce(&mut Workspace) -> T) -> T {
    WORKSPACE.with(|ws| f(&mut ws.borrow_mut()))
}

impl Workspace {
    /// An empty workspace; its buffers grow on first use.
    pub(crate) const fn new() -> Workspace {
        Workspace {
            tableau: Tableau::new(),
            objective: Vec::new(),
            values: Vec::new(),
            best: Vec::new(),
            stack: Vec::new(),
            path: Vec::new(),
        }
    }

    /// Loads `problem`'s objective in maximization form (negated for
    /// minimization input).
    fn load_objective(&mut self, problem: &Problem) {
        self.objective.clear();
        match problem.sense {
            Sense::Maximize => self.objective.extend_from_slice(&problem.objective),
            Sense::Minimize => self.objective.extend(problem.objective.iter().map(|c| -c)),
        }
    }

    /// The LP relaxation of a validated `problem`, integrality ignored,
    /// with `rhs` overlaying the constraints' right-hand sides.
    pub(crate) fn relax(
        &mut self,
        problem: &Problem,
        rhs: Option<&[f64]>,
    ) -> Result<Solution, SolveError> {
        self.load_objective(problem);
        let rows = Rows {
            base: &problem.constraints,
            rhs,
            cuts: &[],
        };
        let (status, objective) =
            self.tableau
                .solve(&self.objective, rows, None, &mut self.values);
        match status {
            LpStatus::Optimal | LpStatus::BudgetExhausted if !self.values.is_empty() => {
                Ok(Solution {
                    values: self.values.clone(),
                    objective: match problem.sense {
                        Sense::Maximize => objective,
                        Sense::Minimize => -objective,
                    },
                    stats: BranchStats::default(),
                    exact: status == LpStatus::Optimal,
                })
            }
            LpStatus::Infeasible => Err(SolveError::Infeasible),
            LpStatus::Unbounded => Err(SolveError::Unbounded),
            _ => Err(SolveError::BudgetExhausted),
        }
    }

    /// Solves a validated `problem` — plain simplex if no variable is
    /// integral, branch & bound otherwise — with `rhs` overlaying the
    /// constraints' right-hand sides.
    pub(crate) fn solve(
        &mut self,
        problem: &Problem,
        rhs: Option<&[f64]>,
    ) -> Result<Solution, SolveError> {
        if !problem.integer.iter().any(|&b| b) {
            return self.relax(problem, rhs);
        }
        // Work internally in maximization form; flip back at the end.
        self.load_objective(problem);
        let Workspace {
            tableau,
            objective,
            values,
            best,
            stack,
            path,
        } = self;
        stack.clear();
        path.clear();
        stack.push((0, None));

        let mut stats = BranchStats::default();
        // The incumbent's objective (maximization form) and exactness;
        // its point is in `best`.
        let mut incumbent: Option<(f64, bool)> = None;
        let mut root_unbounded = false;
        let mut first_node = true;

        while let Some((depth, cut)) = stack.pop() {
            if stats.nodes >= problem.node_limit {
                return Err(SolveError::NodeLimit);
            }
            stats.nodes += 1;
            // Depth-first: the entries above a node's ancestors on the
            // stack all share its path prefix.
            path.truncate(depth.saturating_sub(1));
            path.extend(cut);
            let rows = Rows {
                base: &problem.constraints,
                rhs,
                cuts: path,
            };
            let (status, relaxed) = tableau.solve(objective, rows, None, values);
            let exact = match status {
                LpStatus::Optimal | LpStatus::BudgetExhausted if !values.is_empty() => {
                    status == LpStatus::Optimal
                }
                LpStatus::Infeasible => {
                    stats.pruned_infeasible += 1;
                    first_node = false;
                    continue;
                }
                LpStatus::Unbounded => {
                    if first_node {
                        root_unbounded = true;
                        break;
                    }
                    // An unbounded child with a bounded integer optimum is
                    // possible only for pathological mixed problems; treat the
                    // direction as unusable and skip.
                    continue;
                }
                _ => return Err(SolveError::BudgetExhausted),
            };
            first_node = false;

            // Bound: relaxation optimum is an upper bound on any integer
            // solution in this subtree — but only when the relaxation was
            // solved to optimality. An inexact (budget-exhausted) value may
            // *under*state the true bound, so pruning on it could discard
            // the optimum; explore such subtrees instead.
            if exact {
                if let Some((best_objective, _)) = incumbent {
                    if relaxed <= best_objective + INT_EPS {
                        stats.pruned_by_bound += 1;
                        continue;
                    }
                }
            }

            // Find the most fractional integral variable.
            let mut branch_var: Option<(usize, f64, f64)> = None; // (idx, value, frac-dist)
            for (i, &v) in values.iter().enumerate() {
                if problem.is_integer(i) {
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
                    if !exact && !rows.admit(values) {
                        continue;
                    }
                    let better = match incumbent {
                        None => true,
                        Some((best_objective, _)) => relaxed > best_objective + INT_EPS,
                    };
                    if better {
                        best.clone_from(values);
                        incumbent = Some((relaxed, exact));
                    }
                }
                Some((var, value, _)) => {
                    // Push the ≥ branch first so the ≤ branch (often tighter
                    // for packing-style problems) is explored first.
                    let depth = path.len() + 1;
                    let ge = Cut {
                        var,
                        rel: Relation::Ge,
                        rhs: value.ceil(),
                    };
                    let le = Cut {
                        var,
                        rel: Relation::Le,
                        rhs: value.floor(),
                    };
                    stack.push((depth, Some(ge)));
                    stack.push((depth, Some(le)));
                }
            }
        }

        if root_unbounded {
            return Err(SolveError::Unbounded);
        }
        let (_, exact) = incumbent.ok_or(SolveError::Infeasible)?;
        let mut values = best.clone();
        // Snap integral variables exactly.
        for (i, v) in values.iter_mut().enumerate() {
            if problem.is_integer(i) {
                *v = v.round();
            }
        }
        Ok(Solution {
            objective: problem.objective_value(&values),
            values,
            stats,
            exact,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

    /// Random problems per reuse test; the `proptest-tests` feature
    /// widens the search.
    const CASES: u64 = if cfg!(feature = "proptest-tests") { 8_000 } else { 600 };

    /// splitmix64: a seeded stream for random problems.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        fn coeff(&mut self) -> f64 {
            match self.below(4) {
                0 => 0.0,
                1 => self.below(9) as f64 - 2.0,
                2 => self.unit() * 10.0 - 3.0 * self.unit(),
                _ => self.below(5) as f64 * 0.5 + self.unit(),
            }
        }
    }

    /// A random problem of 2–20 variables and 1–8 rows: either sense,
    /// `≤`/`=`/`≥` rows, some negative right-hand sides, all, some or no
    /// integer variables, and now and then a node budget of 0–5. Every
    /// outcome occurs: optimal, infeasible, unbounded, node limit.
    fn random_problem(s: &mut Stream) -> Problem {
        let n = 2 + s.below(19) as usize;
        let objective = (0..n).map(|_| s.coeff()).collect();
        let mut p = if s.below(2) == 0 {
            Problem::maximize(objective)
        } else {
            Problem::minimize(objective)
        };
        for _ in 0..1 + s.below(8) {
            let row = (0..n).map(|_| s.coeff()).collect();
            let rel = match s.below(10) {
                0..=5 => Relation::Le,
                6..=8 => Relation::Ge,
                _ => Relation::Eq,
            };
            let rhs = match s.below(6) {
                0 => -(s.below(8) as f64) - s.unit(),
                1 => s.below(20) as f64,
                _ => s.unit() * 30.0,
            };
            p.add_constraint(row, rel, rhs);
        }
        match s.below(3) {
            0 => {}
            1 => {
                p.set_all_integer(true);
            }
            _ => {
                for i in 0..n {
                    p.set_integer(i, s.below(2) == 0);
                }
            }
        }
        // Random integer programs can take very many nodes; bound them.
        p.set_node_limit(if s.below(8) == 0 { s.below(6) as usize } else { 300 });
        p
    }

    /// Everything a solve reports, floats as bits.
    type Bits = Result<(Vec<u64>, u64, BranchStats, bool), SolveError>;

    fn bits(r: Result<Solution, SolveError>) -> Bits {
        r.map(|sol| {
            (
                sol.values.iter().map(|v| v.to_bits()).collect(),
                sol.objective.to_bits(),
                sol.stats,
                sol.exact,
            )
        })
    }

    /// One workspace reused across problems of every shape and outcome
    /// gives the bits a fresh workspace gives, including straight after
    /// a `NodeLimit`, `Infeasible` or `Unbounded` return; so do the
    /// thread's own workspace behind `Problem::solve` and a
    /// right-hand-side overlay.
    #[test]
    fn a_reused_workspace_solves_like_a_fresh_one() {
        let mut s = Stream(43);
        let mut reused = Workspace::new();
        let mut after = [0u32; 4];
        let mut previous: Option<usize> = None;
        for _ in 0..CASES {
            let p = random_problem(&mut s);
            let fresh = bits(Workspace::new().solve(&p, None));
            assert_eq!(bits(reused.solve(&p, None)), fresh, "{p:?}");
            assert_eq!(bits(p.solve()), fresh, "{p:?}");
            let rhs: Vec<f64> = p.constraints().iter().map(|c| c.rhs).collect();
            let mut decoy = p.clone();
            for c in &mut decoy.constraints {
                c.rhs = 7.0 - c.rhs;
            }
            assert_eq!(bits(decoy.solve_with_rhs(&rhs)), fresh, "{p:?}");
            if let Some(k) = previous {
                after[k] += 1;
            }
            previous = match fresh {
                Ok(_) => Some(0),
                Err(SolveError::NodeLimit) => Some(1),
                Err(SolveError::Infeasible) => Some(2),
                Err(SolveError::Unbounded) => Some(3),
                Err(_) => None,
            };
        }
        assert!(after.iter().all(|&n| n > 0), "solves after each outcome: {after:?}");
    }

    #[test]
    fn a_right_hand_side_overlay_is_checked() {
        let mut p = Problem::maximize(vec![1.0, 1.0]);
        p.add_constraint(vec![1.0, 2.0], Relation::Le, 4.0);
        assert!(matches!(p.solve_with_rhs(&[]), Err(SolveError::Malformed(_))));
        assert!(matches!(
            p.solve_with_rhs(&[f64::INFINITY]),
            Err(SolveError::Malformed(_))
        ));
        let sol = p.solve_with_rhs(&[6.0]).unwrap();
        assert!((sol.objective - 6.0).abs() < 1e-9);
    }

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
