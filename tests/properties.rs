//! Property-based tests over the core invariants: the MILP solver
//! against the enumeration oracle, pattern combinatorics, queue
//! construction, classification, and cache behaviour.
//!
//! The harness is deterministic and dependency-free: cases are drawn
//! from [`gcs_sim::rng::SimRng`] with fixed seeds (see
//! `tests/README.md`). `--features proptest-tests` widens the sweep.

use std::sync::Arc;

use gcs_core::classify::{classify, AppClass, Thresholds};
use gcs_core::fault::Degradation;
use gcs_core::ilp::{build_problem, solve_with_e};
use gcs_core::interference::InterferenceMatrix;
use gcs_core::pattern::{enumerate_patterns, num_patterns, Pattern};
use gcs_core::profile::AppProfile;
use gcs_core::queues::{census, queue_with_distribution, Distribution};
use gcs_core::runner::{GroupingPolicy, Pipeline, RunConfig};
use gcs_core::sweep::SweepEngine;
use gcs_milp::enumerate::solve_by_enumeration;
use gcs_milp::{Problem, Relation};
use gcs_sim::cache::{Access, Cache};
use gcs_sim::config::{CacheConfig, GpuConfig};
use gcs_sim::rng::SimRng;
use gcs_workloads::{Benchmark, Scale};

/// Cases per property.
const CASES: usize = if cfg!(feature = "proptest-tests") { 200 } else { 48 };

fn uniform(rng: &mut SimRng, lo: f64, hi: f64) -> f64 {
    lo + rng.gen_f64() * (hi - lo)
}

/// Branch & bound must agree with exhaustive enumeration on random
/// small all-integer maximization problems: nonnegative objectives under
/// random packing rows, and mixed-sign objectives under one budget row
/// (where the optimum leaves the negative-weight variables at zero).
#[test]
fn milp_matches_enumeration() {
    let agree = |p: &Problem, case: &str| {
        let bb = p.solve().expect("bounded feasible problem");
        let oracle = solve_by_enumeration(p).expect("oracle");
        assert!(
            (bb.objective - oracle.objective).abs() < 1e-6,
            "case {case}: b&b {} vs oracle {}",
            bb.objective,
            oracle.objective
        );
        assert!(p.is_feasible(&bb.values), "case {case}");
    };
    let mut rng = SimRng::seed_from_u64(11);
    for case in 0..CASES {
        let n = 2 + rng.gen_range(2) as usize;
        let obj: Vec<f64> = (0..n).map(|_| uniform(&mut rng, 0.0, 10.0)).collect();
        let mut p = Problem::maximize(obj);
        // Guarantee a bounding row so enumeration has finite bounds.
        p.add_constraint(vec![1.0; n], Relation::Le, 12.0);
        for _ in 0..1 + rng.gen_range(3) {
            let coeffs: Vec<f64> = (0..n).map(|_| uniform(&mut rng, 0.0, 5.0)).collect();
            let rhs = uniform(&mut rng, 1.0, 20.0);
            p.add_constraint(coeffs, Relation::Le, rhs);
        }
        p.set_all_integer(true);
        agree(&p, &format!("packing {case}"));
    }
    let mut rng = SimRng::seed_from_u64(15);
    for case in 0..CASES {
        let n = 2 + rng.gen_range(2) as usize;
        let obj: Vec<f64> = (0..n).map(|_| uniform(&mut rng, -5.0, 5.0)).collect();
        let bound = uniform(&mut rng, 1.0, 20.0);
        let mut p = Problem::maximize(obj);
        p.add_constraint(vec![1.0; n], Relation::Le, bound);
        p.set_all_integer(true);
        agree(&p, &format!("mixed-sign {case}"));
    }
}

/// The grouping ILP always covers the census exactly, for any feasible
/// class census divisible by the concurrency.
#[test]
fn grouping_covers_census() {
    let mut rng = SimRng::seed_from_u64(12);
    let mut ran = 0;
    while ran < CASES {
        let nc = 2 + rng.gen_range(2) as u32;
        let mut counts = [0u32; 4];
        let mut total = 0;
        for c in &mut counts {
            *c = rng.gen_range(4) as u32 * nc;
            total += *c;
        }
        if total == 0 {
            continue;
        }
        ran += 1;
        let patterns = enumerate_patterns(nc);
        let e: Vec<f64> = (0..patterns.len()).map(|i| 1.0 + i as f64 * 0.1).collect();
        let sol = solve_with_e(counts, nc, &e).expect("feasible");
        let mut used = [0u32; 4];
        for g in sol.groups() {
            assert_eq!(g.len(), nc as usize);
            for c in g {
                used[c.index()] += 1;
            }
        }
        assert_eq!(used, counts);
    }
}

/// Pattern enumeration size always matches the closed form Eq. 3.2,
/// every pattern sums to NC, and patterns are unique.
#[test]
fn pattern_enumeration_invariants() {
    for nc in 1u32..6 {
        let pats = enumerate_patterns(nc);
        assert_eq!(pats.len() as u64, num_patterns(4, nc));
        for p in &pats {
            assert_eq!(p.size(), nc);
        }
        for (i, a) in pats.iter().enumerate() {
            for b in &pats[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }
}

/// The ILP objective is invariant under scaling all e by a positive
/// constant (the argmax cannot change, so the chosen multiplicities
/// achieve the scaled optimum).
#[test]
fn ilp_scale_invariance() {
    let mut rng = SimRng::seed_from_u64(13);
    let e: Vec<f64> = (1..=10).map(|i| f64::from(i) * 0.01).collect();
    let a = solve_with_e([2, 5, 2, 5], 2, &e).expect("base");
    for _ in 0..CASES.min(24) {
        let k = uniform(&mut rng, 0.1, 10.0);
        let scaled: Vec<f64> = e.iter().map(|v| v * k).collect();
        let b = solve_with_e([2, 5, 2, 5], 2, &scaled).expect("scaled");
        assert!(
            (a.objective * k - b.objective).abs() < 1e-6,
            "k={k}: {} vs {}",
            a.objective * k,
            b.objective
        );
    }
}

/// Queue construction always matches the requested census, for every
/// distribution and a range of lengths.
#[test]
fn queues_honor_distributions() {
    for len in 8u32..40 {
        for dist in Distribution::ALL {
            let q = queue_with_distribution(dist, len);
            assert_eq!(q.len() as u32, len);
            assert_eq!(census(&q), dist.class_counts(len));
        }
    }
}

/// Classification is total and deterministic: any finite profile lands
/// in exactly one class, and raising memory bandwidth can only move the
/// class toward M.
#[test]
fn classification_total_and_monotone() {
    let mut rng = SimRng::seed_from_u64(14);
    let t = Thresholds::paper_gtx480();
    for case in 0..CASES * 4 {
        let p = AppProfile {
            name: "x".into(),
            memory_bw: uniform(&mut rng, 0.0, 200.0),
            l2_l1_bw: uniform(&mut rng, 0.0, 300.0),
            ipc: uniform(&mut rng, 0.0, 2000.0),
            r: rng.gen_f64(),
            utilization: 0.0,
            cycles: 1,
            thread_insts: 1,
            num_sms: 60,
        };
        let c = classify(&p, &t);
        let mut hi = p.clone();
        hi.memory_bw += 150.0;
        let c_hi = classify(&hi, &t);
        assert!(c_hi <= c, "case {case}: raising MB moved {c:?} away from M: {c_hi:?}");
    }
}

/// LRU cache: after accessing a working set no larger than the cache, a
/// second pass hits every line.
#[test]
fn cache_retains_fitting_working_set() {
    for lines in 1u64..32 {
        let mut c = Cache::new(CacheConfig {
            bytes: 32 * 128,
            line_bytes: 128,
            ways: 4,
        });
        for i in 0..lines {
            c.access(i * 128);
        }
        for i in 0..lines {
            assert_eq!(c.access(i * 128), Access::Hit, "line {i} evicted");
        }
    }
}

/// Pattern e-coefficients are antitone in slowdown: uniformly worse
/// interference can only lower e.
#[test]
fn e_antitone_in_slowdown() {
    use gcs_core::interference::InterferenceMatrix;
    let mut rng = SimRng::seed_from_u64(16);
    let p = Pattern::new([1, 1, 0, 0]);
    for _ in 0..CASES {
        let s1 = uniform(&mut rng, 1.0, 5.0);
        let extra = uniform(&mut rng, 0.1, 5.0);
        let low = InterferenceMatrix::uniform(s1);
        let high = InterferenceMatrix::uniform(s1 + extra);
        assert!(p.e_coefficient(&low) > p.e_coefficient(&high));
    }
}

/// The build_problem constraint system always admits the FCFS solution,
/// so the ILP optimum is at least the same-class-pairing objective.
#[test]
fn ilp_never_loses_to_any_feasible_grouping() {
    for seed in 0u64..CASES as u64 {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut rng = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 1000) as f64 / 1000.0
        };
        let e: Vec<f64> = (0..10).map(|_| 0.01 + rng()).collect();
        let census = [2u32, 2, 2, 2];
        let sol = solve_with_e(census, 2, &e).expect("feasible");
        // Greedy feasible point: pair same classes: M-M, MC-MC, C-C, A-A.
        let patterns = enumerate_patterns(2);
        let same_class: f64 = patterns
            .iter()
            .zip(&e)
            .filter(|(p, _)| p.counts().contains(&2))
            .map(|(_, v)| v)
            .sum();
        assert!(
            sol.objective >= same_class - 1e-9,
            "seed {seed}: ILP {} below the same-class grouping {}",
            sol.objective,
            same_class
        );
    }
}

/// `EventCore` plans over the whole pending queue (64 jobs by default,
/// as many as a `repro schedd_client` session submits), so the grouping
/// ILP serves censuses far beyond census 14. At NC ∈ {2, 3}, for queues
/// of 96, 192 and 510 jobs under the paper-shaped and two seeded random
/// interference matrices: the solve succeeds at the default node budget,
/// its groups cover the census, and no exchange of one member between
/// two groups raises the objective by more than 1e-12.
#[test]
fn ilp_solves_large_backlogs_exactly() {
    let mut rng = SimRng::seed_from_u64(19);
    let mut random = || {
        let mut entries = [[0.0; 4]; 4];
        for s in entries.iter_mut().flatten() {
            *s = uniform(&mut rng, 1.0, 3.0);
        }
        InterferenceMatrix::from_entries(entries)
    };
    let matrices = [
        InterferenceMatrix::synthetic_paper_shape(),
        random(),
        random(),
    ];
    for nc in [2, 3] {
        let patterns = enumerate_patterns(nc);
        for matrix in &matrices {
            let e_of = |counts: [u8; 4]| {
                let p = patterns.iter().find(|p| *p.counts() == counts);
                p.expect("a pattern").e_coefficient(matrix)
            };
            let e: Vec<f64> = patterns.iter().map(|p| p.e_coefficient(matrix)).collect();
            for jobs in [96, 192, 510] {
                let mut census = [0u32; 4];
                for _ in 0..jobs {
                    census[rng.gen_range(4) as usize] += 1;
                }
                let case = format!("nc {nc}, census {census:?}");
                let sol =
                    solve_with_e(census, nc, &e).unwrap_or_else(|err| panic!("{case}: {err}"));
                let mut used = [0u32; 4];
                for c in sol.groups().into_iter().flatten() {
                    used[c.index()] += 1;
                }
                assert_eq!(used, census, "{case}: the groups do not cover the census");
                // A class-`a` member of group `p` changes places with a
                // class-`b` member of group `q`.
                for (i, (p, m)) in sol.multiplicities.iter().enumerate() {
                    for (q, _) in &sol.multiplicities[i..] {
                        for (a, b) in AppClass::ALL
                            .iter()
                            .flat_map(|&a| AppClass::ALL.map(|b| (a, b)))
                        {
                            if a == b || p.count(a) == 0 || q.count(b) == 0 || p == q && *m < 2 {
                                continue;
                            }
                            let (mut p2, mut q2) = (*p.counts(), *q.counts());
                            p2[a.index()] -= 1;
                            p2[b.index()] += 1;
                            q2[b.index()] -= 1;
                            q2[a.index()] += 1;
                            let gain = e_of(p2) + e_of(q2) - e_of(*p.counts()) - e_of(*q.counts());
                            assert!(
                                gain <= 1e-12,
                                "{case}: {a:?} of {p} for {b:?} of {q} gains {gain}"
                            );
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn pattern_display_order_is_stable() {
    let pats = enumerate_patterns(2);
    assert_eq!(pats[0].to_string(), "M-M");
    assert_eq!(pats[9].to_string(), "A-A");
}

#[test]
fn class_ordering_reflects_memory_pressure() {
    // AppClass::ALL is ordered M < MC < C < A; the monotone test above
    // leans on this.
    assert!(AppClass::M < AppClass::Mc);
    assert!(AppClass::Mc < AppClass::C);
    assert!(AppClass::C < AppClass::A);
}

/// Every integer point of a grouping ILP: `L_i ≥ 0` with `Σ L_i = l`
/// and per-class usage within `census`, as `(point, objective)`.
fn grouping_points(census: [u32; 4], nc: u32, e: &[f64]) -> Vec<(Vec<u32>, f64)> {
    fn fill(i: usize, left: u32, cur: &mut Vec<u32>, pats: &[Pattern], out: &mut Vec<Vec<u32>>) {
        if i + 1 == pats.len() {
            cur.push(left);
            out.push(cur.clone());
            cur.pop();
            return;
        }
        for take in 0..=left {
            cur.push(take);
            fill(i + 1, left - take, cur, pats, out);
            cur.pop();
        }
    }
    let pats = enumerate_patterns(nc);
    let l = census.iter().sum::<u32>() / nc;
    let mut all = Vec::new();
    fill(0, l, &mut Vec::new(), &pats, &mut all);
    all.into_iter()
        .filter(|point| {
            AppClass::ALL.iter().all(|&c| {
                let used: u32 = pats
                    .iter()
                    .zip(point)
                    .map(|(p, &m)| u32::from(p.count(c)) * m)
                    .sum();
                used <= census[c.index()]
            })
        })
        .map(|point| {
            let f = point.iter().zip(e).map(|(&m, v)| f64::from(m) * v).sum();
            (point, f)
        })
        .collect()
}

/// Branch & bound against exhaustive enumeration on the grouping ILP's
/// own pattern-incidence form (`build_problem`): NC ∈ {2, 3}, random
/// censuses, random `e`. Objectives must agree; where one point alone
/// attains the optimum, the solution vectors must too.
#[test]
fn pattern_incidence_milp_matches_enumeration() {
    let mut rng = SimRng::seed_from_u64(17);
    let mut unique = 0;
    for case in 0..CASES {
        let nc = 2 + rng.gen_range(2) as u32;
        let groups = 1 + rng.gen_range(if nc == 2 { 4 } else { 3 }) as u32;
        let mut census = [0u32; 4];
        for _ in 0..groups * nc {
            census[rng.gen_range(4) as usize] += 1;
        }
        let e: Vec<f64> = (0..num_patterns(4, nc))
            .map(|_| uniform(&mut rng, 0.0, 1.0))
            .collect();
        let p = build_problem(census, nc, &e);
        let bb = p.solve().expect("a divisible census is feasible");
        let oracle = solve_by_enumeration(&p).expect("oracle");
        assert!(
            (bb.objective - oracle.objective).abs() < 1e-9,
            "case {case} (nc {nc}, census {census:?}): b&b {} vs oracle {}",
            bb.objective,
            oracle.objective
        );
        let points = grouping_points(census, nc, &e);
        let best = points.iter().map(|(_, f)| *f).fold(f64::MIN, f64::max);
        assert!((best - oracle.objective).abs() < 1e-9, "case {case}");
        let optima: Vec<&Vec<u32>> = points
            .iter()
            .filter(|(_, f)| *f > best - 1e-9)
            .map(|(pt, _)| pt)
            .collect();
        if let [only] = optima[..] {
            unique += 1;
            let as_i64: Vec<i64> = only.iter().map(|&m| i64::from(m)).collect();
            assert_eq!(bb.rounded(), as_i64, "case {case}: b&b vector");
            assert_eq!(oracle.rounded(), as_i64, "case {case}: oracle vector");
        }
    }
    assert!(
        unique > CASES / 2,
        "random e should make most optima unique ({unique})"
    );
}

/// The grouping `Pipeline::group_with_degradations(.., Ilp)` did before
/// the pipeline kept one ILP model: enumerate the patterns, derive `e`,
/// build and solve the problem, expand each pattern's members FCFS
/// within their class, and fall back to greedy on a solver error.
fn per_call_ilp_grouping(
    p: &Pipeline,
    queue: &[Benchmark],
    node_limit: Option<usize>,
) -> (Vec<Vec<Benchmark>>, Vec<Degradation>) {
    let nc = p.config().concurrency;
    let usable = queue.len() / nc as usize * nc as usize;
    let (head, tail) = queue.split_at(usable);
    if head.is_empty() {
        let groups = if tail.is_empty() {
            Vec::new()
        } else {
            vec![tail.to_vec()]
        };
        return (groups, Vec::new());
    }
    let patterns = enumerate_patterns(nc);
    let e: Vec<f64> = patterns
        .iter()
        .map(|pat| pat.e_coefficient(p.matrix()))
        .collect();
    let mut census = [0u32; 4];
    for &b in head {
        census[p.class_of(b).index()] += 1;
    }
    let mut problem = Problem::maximize(e);
    for class in AppClass::ALL {
        let row = patterns
            .iter()
            .map(|pat| f64::from(pat.count(class)))
            .collect();
        problem.add_constraint(row, Relation::Le, f64::from(census[class.index()]));
    }
    let l = census.iter().sum::<u32>() / nc;
    problem.add_constraint(vec![1.0; patterns.len()], Relation::Eq, f64::from(l));
    problem.set_all_integer(true);
    if let Some(limit) = node_limit {
        problem.set_node_limit(limit);
    }
    let (mut groups, degradations) = match problem.solve() {
        Ok(sol) => {
            let mut pools: [Vec<Benchmark>; 4] = Default::default();
            for &b in head.iter().rev() {
                pools[p.class_of(b).index()].push(b);
            }
            let mut groups = Vec::new();
            for (pat, m) in patterns.iter().zip(sol.rounded()) {
                for _ in 0..m {
                    groups.push(
                        pat.members()
                            .into_iter()
                            .map(|c| pools[c.index()].pop().expect("census"))
                            .collect(),
                    );
                }
            }
            (groups, Vec::new())
        }
        Err(e) => (
            p.group_greedy_class(head),
            vec![Degradation::IlpGreedyFallback {
                reason: e.to_string(),
            }],
        ),
    };
    if !tail.is_empty() {
        groups.push(tail.to_vec());
    }
    (groups, degradations)
}

/// The pipeline's one ILP model groups 200 seeded queues exactly as the
/// per-call derivation did — NC ∈ {2, 3}, the paper-shaped and a random
/// interference matrix — with the default node budget and with a zero
/// budget that forces the greedy fallback.
#[test]
fn pipeline_ilp_model_matches_the_per_call_derivation() {
    let mut rng = SimRng::seed_from_u64(18);
    let engine = Arc::new(SweepEngine::sequential());
    let mut random = [[0.0; 4]; 4];
    for row in &mut random {
        for s in row.iter_mut() {
            *s = uniform(&mut rng, 1.0, 3.0);
        }
    }
    let mut checked = 0;
    for nc in [2, 3] {
        for matrix in [
            InterferenceMatrix::synthetic_paper_shape(),
            InterferenceMatrix::from_entries(random),
        ] {
            let cfg = RunConfig {
                gpu: GpuConfig::test_small(),
                scale: Scale::TEST,
                concurrency: nc,
            };
            let mut p = Pipeline::with_matrix_and_engine(cfg, matrix, Arc::clone(&engine))
                .expect("pipeline");
            for _ in 0..50 {
                let len = rng.gen_range(17) as usize;
                let queue: Vec<Benchmark> = (0..len)
                    .map(|_| Benchmark::ALL[rng.gen_range(14) as usize])
                    .collect();
                for limit in [None, Some(0)] {
                    p.set_ilp_node_limit(limit);
                    let got = p
                        .group_with_degradations(&queue, GroupingPolicy::Ilp)
                        .expect("grouping degrades, never fails");
                    assert_eq!(
                        got,
                        per_call_ilp_grouping(&p, &queue, limit),
                        "nc {nc}, limit {limit:?}, queue {queue:?}"
                    );
                }
                checked += 1;
            }
        }
    }
    assert_eq!(checked, 200);
}
