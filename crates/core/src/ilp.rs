//! The contention-minimization ILP (§3.2.3, Eq. 3.3–3.7).
//!
//! Decision variable `L_i` counts how many co-run groups use class
//! pattern `p_i`. The solver maximizes `f = Σ e_i L_i` (Eq. 3.3) subject
//! to the class-balance constraints (Eq. 3.6, relaxed to `≤` exactly as
//! the thesis' Appendix A does in Eq. 5.5) and the group-count equality
//! `Σ L_i = L = N_q / NC` (Eq. 3.7).

use crate::classify::AppClass;
use crate::interference::InterferenceMatrix;
use crate::pattern::{enumerate_patterns, Pattern};
use crate::CoreError;
use gcs_milp::{Problem, Relation};

/// Result of the grouping ILP.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupingSolution {
    /// `(pattern, multiplicity)` for every pattern with `L_i > 0`.
    pub multiplicities: Vec<(Pattern, u32)>,
    /// Optimal objective value `f`.
    pub objective: f64,
    /// The full `e` vector in pattern-enumeration order (diagnostics).
    pub e: Vec<f64>,
}

impl GroupingSolution {
    /// Expands the solution into a list of class multisets, one per
    /// group, in enumeration order.
    pub fn groups(&self) -> Vec<Vec<AppClass>> {
        let mut out = Vec::new();
        for (pattern, mult) in &self.multiplicities {
            for _ in 0..*mult {
                out.push(pattern.members());
            }
        }
        out
    }
}

/// The grouping ILP's fixed part for `nc`-application groups: the
/// patterns and the Eq. 3.3–3.7 problem over them, built once with its
/// `e` objective and incidence rows. Only the census changes from one
/// solve to the next, and it enters as right-hand sides, so a
/// [`Pipeline`](crate::runner::Pipeline) builds its model once and
/// solves every census against it; the free functions below build a
/// model per call.
#[derive(Debug)]
pub(crate) struct GroupingModel {
    nc: u32,
    patterns: Vec<Pattern>,
    /// Eq. 3.3–3.7 for an all-zero census; every solve overlays its own
    /// right-hand sides.
    problem: Problem,
}

impl GroupingModel {
    /// The model for measured interference `matrix` (Eq. 3.4's `e`).
    ///
    /// # Panics
    ///
    /// Panics if `nc < 2` (a lone app has no co-run slowdown).
    pub(crate) fn new(nc: u32, matrix: &InterferenceMatrix) -> Self {
        let patterns = enumerate_patterns(nc);
        let e = patterns.iter().map(|p| p.e_coefficient(matrix)).collect();
        Self::from_parts(nc, patterns, e)
    }

    /// The model with an explicit `e` vector in enumeration order.
    ///
    /// # Panics
    ///
    /// Panics unless `e` has one coefficient per pattern.
    fn with_e(nc: u32, e: &[f64]) -> Self {
        let patterns = enumerate_patterns(nc);
        assert_eq!(patterns.len(), e.len(), "one coefficient per pattern");
        Self::from_parts(nc, patterns, e.to_vec())
    }

    fn from_parts(nc: u32, patterns: Vec<Pattern>, e: Vec<f64>) -> Self {
        let mut problem = Problem::maximize(e);
        // Eq. 3.6 (as ≤, following Appendix Eq. 5.5): class usage cannot
        // exceed the queue census.
        for class in AppClass::ALL {
            let row = patterns
                .iter()
                .map(|pat| f64::from(pat.count(class)))
                .collect();
            problem.add_constraint(row, Relation::Le, 0.0);
        }
        // Eq. 3.7: exactly L groups.
        problem.add_constraint(vec![1.0; patterns.len()], Relation::Eq, 0.0);
        problem.set_all_integer(true);
        GroupingModel {
            nc,
            patterns,
            problem,
        }
    }

    /// The right-hand sides of the census `class_counts`: the class
    /// counts (Eq. 3.6), then `L = N_q / NC` (Eq. 3.7).
    fn rhs(&self, class_counts: [u32; AppClass::COUNT]) -> [f64; AppClass::COUNT + 1] {
        let nq: u32 = class_counts.iter().sum();
        let mut rhs = [0.0; AppClass::COUNT + 1];
        for class in AppClass::ALL {
            rhs[class.index()] = f64::from(class_counts[class.index()]);
        }
        rhs[AppClass::COUNT] = f64::from(nq / self.nc);
        rhs
    }

    /// Eq. 3.3–3.7 for the per-class queue census `class_counts`.
    fn problem(&self, class_counts: [u32; AppClass::COUNT]) -> Problem {
        let mut p = Problem::maximize(self.problem.objective().to_vec());
        for (c, rhs) in self.problem.constraints().iter().zip(self.rhs(class_counts)) {
            p.add_constraint(c.coeffs.clone(), c.rel, rhs);
        }
        p.set_all_integer(true);
        p
    }

    /// Solves the census: calls `each(pattern, L_i)` for every pattern
    /// with `L_i > 0`, in enumeration order, and returns the objective
    /// `f`. `node_limit` overrides the branch & bound budget (`None`
    /// keeps the solver's default).
    ///
    /// A census of exactly one group (`N_q = NC`, so `L = 1`) is not
    /// solved: the census's own pattern is the only feasible point, so
    /// it is the answer with `f = e_p`, bit for bit what branch & bound
    /// returns. This closed form counts as the root node, so a zero
    /// node budget still fails.
    ///
    /// # Errors
    ///
    /// [`CoreError::Milp`] if the ILP is infeasible or hits the node
    /// limit.
    pub(crate) fn solve_each(
        &self,
        class_counts: [u32; AppClass::COUNT],
        node_limit: Option<usize>,
        mut each: impl FnMut(&Pattern, u32),
    ) -> Result<f64, CoreError> {
        let e = self.problem.objective();
        if class_counts.iter().sum::<u32>() == self.nc && e.iter().all(|v| v.is_finite()) {
            if node_limit == Some(0) {
                return Err(gcs_milp::SolveError::NodeLimit.into());
            }
            let p = self
                .patterns
                .iter()
                .position(|pat| pat.counts().map(u32::from) == class_counts)
                .expect("every NC-member census is a pattern");
            each(&self.patterns[p], 1);
            // The solver's objective: `e · x` at the one-hot point.
            return Ok(e
                .iter()
                .enumerate()
                .map(|(i, c)| c * if i == p { 1.0 } else { 0.0 })
                .sum());
        }
        let rhs = self.rhs(class_counts);
        let sol = match node_limit {
            None => self.problem.solve_with_rhs(&rhs)?,
            Some(limit) => {
                let mut problem = self.problem.clone();
                problem.set_node_limit(limit);
                problem.solve_with_rhs(&rhs)?
            }
        };
        for (pattern, v) in self.patterns.iter().zip(&sol.values) {
            let mult = u32::try_from(v.round() as i64).unwrap_or(0);
            if mult > 0 {
                each(pattern, mult);
            }
        }
        Ok(sol.objective)
    }

    fn solution(&self, class_counts: [u32; AppClass::COUNT]) -> Result<GroupingSolution, CoreError> {
        let mut multiplicities = Vec::new();
        let objective = self.solve_each(class_counts, None, |p, m| {
            multiplicities.push((p.clone(), m));
        })?;
        Ok(GroupingSolution {
            multiplicities,
            objective,
            e: self.problem.objective().to_vec(),
        })
    }
}

/// Builds the Eq. 3.3–3.7 problem for the given per-class queue census.
///
/// Exposed separately from [`solve_grouping`] so tests and benches can
/// inspect or re-solve the exact formulation.
pub fn build_problem(class_counts: [u32; AppClass::COUNT], nc: u32, e: &[f64]) -> Problem {
    GroupingModel::with_e(nc, e).problem(class_counts)
}

/// Solves the grouping ILP for a queue with `class_counts` applications
/// per class, `nc` concurrent applications per group, and measured
/// interference `matrix`.
///
/// # Errors
///
/// * [`CoreError::BadQueue`] when the queue length is not divisible by
///   `nc` (the thesis assumes divisibility; callers peel off a remainder
///   group first).
/// * [`CoreError::Milp`] if the ILP is infeasible (cannot happen for a
///   consistent census) or hits the node limit.
pub fn solve_grouping(
    class_counts: [u32; AppClass::COUNT],
    nc: u32,
    matrix: &InterferenceMatrix,
) -> Result<GroupingSolution, CoreError> {
    let nq: u32 = class_counts.iter().sum();
    if nq == 0 || nc < 2 {
        return Err(CoreError::BadQueue(format!(
            "need a non-empty queue and nc >= 2 (got nq = {nq}, nc = {nc})"
        )));
    }
    if !nq.is_multiple_of(nc) {
        return Err(CoreError::BadQueue(format!(
            "queue length {nq} is not divisible by nc = {nc}"
        )));
    }
    GroupingModel::new(nc, matrix).solution(class_counts)
}

/// Solves the grouping ILP with an explicit `e` vector (used by the
/// Appendix A reproduction, which quotes the thesis' coefficients).
///
/// # Errors
///
/// Same as [`solve_grouping`].
pub fn solve_with_e(
    class_counts: [u32; AppClass::COUNT],
    nc: u32,
    e: &[f64],
) -> Result<GroupingSolution, CoreError> {
    GroupingModel::with_e(nc, e).solution(class_counts)
}

/// The thesis' Appendix A coefficient vector for two-application
/// patterns, in enumeration order
/// (M-M, M-MC, M-C, M-A, MC-MC, MC-C, MC-A, C-C, C-A, A-A).
pub const PAPER_APPENDIX_E: [f64; 10] = [
    0.0072, 0.0110, 0.0146, 0.03584, 0.0204, 0.0202, 0.0698, 0.0178, 0.0412, 0.166,
];

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_milp::enumerate::solve_by_enumeration;

    /// The thesis' worked example: Nq = 14 with (2 M, 5 MC, 2 C, 5 A)
    /// and the quoted e vector must yield L3 = 2 (M-C), L5 = 2 (MC-MC),
    /// L7 = 1 (MC-A), L10 = 2 (A-A) — Eq. 5.7.
    #[test]
    fn appendix_a_worked_example() {
        let sol = solve_with_e([2, 5, 2, 5], 2, &PAPER_APPENDIX_E).unwrap();
        let mut counts = vec![0u32; 10];
        let patterns = enumerate_patterns(2);
        for (p, m) in &sol.multiplicities {
            let idx = patterns.iter().position(|q| q == p).unwrap();
            counts[idx] = *m;
        }
        assert_eq!(
            counts,
            vec![0, 0, 2, 0, 2, 0, 1, 0, 0, 2],
            "Eq. 5.7 solution vector"
        );
        let expected = 2.0 * 0.0146 + 2.0 * 0.0204 + 0.0698 + 2.0 * 0.166;
        assert!((sol.objective - expected).abs() < 1e-9);
    }

    #[test]
    fn agrees_with_exhaustive_enumeration() {
        let p = build_problem([2, 5, 2, 5], 2, &PAPER_APPENDIX_E);
        let bb = p.solve().unwrap();
        let en = solve_by_enumeration(&p).unwrap();
        assert!((bb.objective - en.objective).abs() < 1e-9);
    }

    #[test]
    fn three_way_grouping() {
        let m = InterferenceMatrix::synthetic_paper_shape();
        let sol = solve_grouping([3, 3, 3, 3], 3, &m).unwrap();
        let groups = sol.groups();
        assert_eq!(groups.len(), 4, "12 apps / 3 = 4 groups");
        // Census adds back up.
        let mut used = [0u32; 4];
        for g in &groups {
            assert_eq!(g.len(), 3);
            for c in g {
                used[c.index()] += 1;
            }
        }
        assert_eq!(used, [3, 3, 3, 3]);
    }

    #[test]
    fn indivisible_queue_rejected() {
        let m = InterferenceMatrix::uniform(2.0);
        assert!(matches!(
            solve_grouping([1, 1, 1, 0], 2, &m),
            Err(CoreError::BadQueue(_))
        ));
    }

    #[test]
    fn degenerate_inputs_rejected() {
        let m = InterferenceMatrix::uniform(2.0);
        assert!(matches!(
            solve_grouping([0, 0, 0, 0], 2, &m),
            Err(CoreError::BadQueue(_))
        ));
        assert!(matches!(
            solve_grouping([2, 0, 0, 0], 1, &m),
            Err(CoreError::BadQueue(_))
        ));
    }

    #[test]
    fn uniform_interference_still_partitions() {
        // With no class preference any grouping is optimal; the census
        // must still be respected.
        let m = InterferenceMatrix::uniform(3.0);
        let sol = solve_grouping([2, 2, 2, 2], 2, &m).unwrap();
        let total: u32 = sol.multiplicities.iter().map(|(_, m)| m).sum();
        assert_eq!(total, 4);
    }

    #[test]
    fn m_apps_paired_away_from_each_other() {
        // With the paper-shaped matrix and enough A apps, no M-M pair
        // should appear: M-M is the worst pattern.
        let m = InterferenceMatrix::synthetic_paper_shape();
        let sol = solve_grouping([2, 2, 2, 6], 2, &m).unwrap();
        for (p, _) in &sol.multiplicities {
            assert!(
                p.count(AppClass::M) <= 1,
                "ILP paired two class-M apps together: {p}"
            );
        }
    }

    #[test]
    fn groups_expand_multiplicities() {
        let sol = solve_with_e([2, 5, 2, 5], 2, &PAPER_APPENDIX_E).unwrap();
        assert_eq!(sol.groups().len(), 7);
    }

    /// `L_i` for every pattern, in enumeration order, and `f`.
    fn counts(
        model: &GroupingModel,
        class_counts: [u32; AppClass::COUNT],
        node_limit: Option<usize>,
    ) -> Result<(Vec<u32>, f64), CoreError> {
        let mut counts = vec![0; model.patterns.len()];
        let f = model.solve_each(class_counts, node_limit, |p, m| {
            counts[model.patterns.iter().position(|q| q == p).unwrap()] = m;
        })?;
        Ok((counts, f))
    }

    #[test]
    fn exhausted_node_budget_surfaces_as_typed_milp_error() {
        let m = InterferenceMatrix::synthetic_paper_shape();
        let model = GroupingModel::new(2, &m);
        let r = counts(&model, [2, 5, 2, 5], Some(0));
        assert!(
            matches!(
                r,
                Err(CoreError::Milp(gcs_milp::SolveError::NodeLimit))
            ),
            "a zero node budget must fail with NodeLimit"
        );
        // The same census solves fine with the default budget.
        assert!(counts(&model, [2, 5, 2, 5], None).is_ok());
    }

    /// Every census of exactly one group — the 10 at NC = 2 and the 20
    /// at NC = 3 — takes the closed form, which must give the counts and
    /// the objective bits branch & bound gives on the same problem, and
    /// must still fail a zero node budget.
    #[test]
    fn one_group_closed_form_matches_branch_and_bound() {
        let mut random = [[0.0; 4]; 4];
        for (i, row) in random.iter_mut().enumerate() {
            for (j, s) in row.iter_mut().enumerate() {
                *s = 1.0 + ((i * 7 + j * 3) % 11) as f64 / 5.0;
            }
        }
        let mut checked = 0;
        for nc in [2, 3] {
            for matrix in [
                InterferenceMatrix::synthetic_paper_shape(),
                InterferenceMatrix::uniform(2.0),
                InterferenceMatrix::from_entries(random),
            ] {
                let model = GroupingModel::new(nc, &matrix);
                for pattern in &model.patterns {
                    let census = pattern.counts().map(u32::from);
                    let (got, f) = counts(&model, census, None).unwrap();
                    let sol = model.problem(census).solve().unwrap();
                    let want: Vec<u32> = sol.rounded().iter().map(|&v| v as u32).collect();
                    assert_eq!(got, want, "census {census:?}");
                    assert_eq!(f.to_bits(), sol.objective.to_bits(), "census {census:?}");
                    assert_eq!(counts(&model, census, Some(1)).unwrap().0, want);
                    assert!(matches!(
                        counts(&model, census, Some(0)),
                        Err(CoreError::Milp(gcs_milp::SolveError::NodeLimit))
                    ));
                    checked += 1;
                }
            }
        }
        assert_eq!(checked, 3 * (10 + 20));
    }

    /// The model's overlaid right-hand sides solve every census exactly
    /// as the problem built for that census alone does.
    #[test]
    fn overlaid_census_matches_a_built_problem() {
        let m = InterferenceMatrix::synthetic_paper_shape();
        for nc in [2, 3] {
            let model = GroupingModel::new(nc, &m);
            for census in [[2, 5, 2, 5], [1, 4, 2, 5], [3, 3, 3, 3], [0, 0, 6, 0], [4, 0, 0, 2]] {
                if !census.iter().sum::<u32>().is_multiple_of(nc) {
                    continue;
                }
                let (got, f) = counts(&model, census, None).unwrap();
                let sol = model.problem(census).solve().unwrap();
                let want: Vec<u32> = sol.rounded().iter().map(|&v| v as u32).collect();
                assert_eq!(got, want, "nc {nc}, census {census:?}");
                assert_eq!(f.to_bits(), sol.objective.to_bits());
            }
        }
    }
}
