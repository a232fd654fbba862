//! `compare A B`: two result files of one line per run, A the parent
//! and B the change (or two sets of runs of one commit).
//!
//! For every workload and metric the median over each file's runs of
//! the value a run reports (its best sample) is compared. A metric with
//! no layer prefix is end-to-end and gated: it fails the comparison when
//! B is worse than A by more than its bound (`BENCHMARK.json`'s, else
//! [`DEFAULT_BOUND`]). A count the program
//! makes must be identical. A metric whose spread exceeds its bound is
//! reported as *unresolved*, not as unchanged, unless every run of B
//! reads better than every run of A.

use std::collections::BTreeMap;

use crate::harness::is_end_to_end;
use crate::json::{self, Value};
use crate::report::Manifest;
use crate::stats::summarize;

/// Bound for timings `BENCHMARK.json` gives none for.
pub const DEFAULT_BOUND: f64 = 0.10;

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Verdict {
    Same,
    /// An exact count differs between runs of one seed.
    Changed,
    /// An exact count, but the files share no seed to hold it to.
    NoCommonSeed,
    Unchanged,
    Improved,
    Unresolved,
    /// Worse by more than the bound; fails when the metric is gated.
    Worse,
}

/// One metric of one workload across the runs of a file.
#[derive(Debug, Default, Clone)]
pub struct Series {
    /// The value each run reports.
    pub values: Vec<f64>,
    /// Each run's seed: exact counts are a function of it.
    pub seeds: Vec<u64>,
    /// Each run's own quartile spread, for files with too few runs to
    /// take a spread across them.
    pub spreads: Vec<f64>,
    pub exact: bool,
}

impl Series {
    /// Spread across runs from three runs up, else the widest spread
    /// inside a run.
    fn spread(&self) -> f64 {
        if self.values.len() >= 3 {
            summarize(&self.values).map_or(0.0, |s| s.spread())
        } else {
            self.spreads.iter().copied().fold(0.0, f64::max)
        }
    }

    fn median(&self) -> f64 {
        summarize(&self.values).map_or(0.0, |s| s.median)
    }
}

pub fn judge(a: &Series, b: &Series, higher_is_better: bool, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (a.median(), b.median());
    if a.exact && b.exact {
        // Runs of one seed must agree exactly, within and across files.
        let mut by_seed = BTreeMap::<u64, Vec<f64>>::new();
        for (seed, v) in a
            .seeds
            .iter()
            .zip(&a.values)
            .chain(b.seeds.iter().zip(&b.values))
        {
            by_seed.entry(*seed).or_default().push(*v);
        }
        let verdict = if by_seed.values().any(|vs| vs.iter().any(|v| *v != vs[0])) {
            Verdict::Changed
        } else if a.seeds.iter().any(|s| b.seeds.contains(s)) {
            Verdict::Same
        } else {
            Verdict::NoCommonSeed
        };
        return (verdict, mb - ma);
    }
    // Positive = worse, as a share of A's median.
    let worse_by = if ma == 0.0 {
        0.0
    } else if higher_is_better {
        (ma - mb) / ma.abs()
    } else {
        (mb - ma) / ma.abs()
    };
    let better = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    let all_better = b
        .values
        .iter()
        .all(|&x| a.values.iter().all(|&y| better(x, y)));
    let verdict = if worse_by > bound {
        Verdict::Worse
    } else if all_better && worse_by < -bound {
        Verdict::Improved
    } else if a.spread().max(b.spread()) > bound {
        Verdict::Unresolved
    } else if worse_by < -bound {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

/// workload → metric → series, and the failure count. The output
/// digest rides along as the exact metric [`DIGEST`].
#[derive(Default)]
pub struct ResultFile {
    pub series: BTreeMap<String, BTreeMap<String, Series>>,
    pub failed: u64,
}

/// The output digest as a metric: its top 53 bits, which an `f64` holds
/// exactly.
const DIGEST: &str = "digest";

pub fn read_results(text: &str) -> Result<ResultFile, String> {
    let mut out = ResultFile::default();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let v = json::parse(line).map_err(|e| format!("line {}: {e}", i + 1))?;
        let field = |k: &str| v.get(k).ok_or_else(|| format!("line {}: no {k}", i + 1));
        let workload = field("workload")?.str().unwrap_or_default().to_string();
        out.failed += field("failed")?.num().unwrap_or(0.0) as u64;
        let seed = field("seed")?.num().unwrap_or(0.0) as u64;
        let digest = u64::from_str_radix(field("digest")?.str().unwrap_or_default(), 16)
            .map_err(|e| format!("line {}: digest: {e}", i + 1))?;
        let of_workload = out.series.entry(workload).or_default();
        let d = of_workload.entry(DIGEST.to_string()).or_default();
        d.values.push((digest >> 11) as f64);
        d.seeds.push(seed);
        d.spreads.push(0.0);
        d.exact = true;
        let Value::Obj(metrics) = field("metrics")? else {
            return Err(format!("line {}: metrics is not an object", i + 1));
        };
        for (name, m) in metrics {
            let num = |k: &str| m.get(k).and_then(Value::num).unwrap_or(0.0);
            let s = of_workload.entry(name.clone()).or_default();
            s.values.push(num("value"));
            s.seeds.push(seed);
            let spread = if num("median") == 0.0 {
                0.0
            } else {
                (num("q3") - num("q1")).abs() / num("median").abs()
            };
            s.spreads.push(spread);
            s.exact = m.get("exact") == Some(&Value::Bool(true));
        }
    }
    Ok(out)
}

/// Prints the comparison; `true` when nothing gated got worse and
/// nothing exact changed.
pub fn compare(a: &ResultFile, b: &ResultFile, m: &Manifest) -> bool {
    let mut ok = a.failed == 0 && b.failed == 0;
    if !ok {
        println!("FAILED operations: {} in A, {} in B", a.failed, b.failed);
    }
    for workload in &m.workloads {
        let (Some(sa), Some(sb)) = (a.series.get(workload), b.series.get(workload)) else {
            println!("\n== {workload}: not in both files ==");
            continue;
        };
        println!("\n== {workload} ==");
        if judge(&sa[DIGEST], &sb[DIGEST], false, 0.0).0 == Verdict::Changed {
            ok = false;
            println!("  CHANGED    output digest differs between runs of one seed");
        }
        println!(
            "  {:<10} {:<34} {:>14} {:>14} {:>9} {:>8}",
            "verdict", "metric", "A", "B", "worse by", "spread"
        );
        for def in m.end_to_end.iter().chain(&m.per_layer) {
            let (Some(x), Some(y)) = (sa.get(&def.name), sb.get(&def.name)) else {
                continue;
            };
            let gated = is_end_to_end(&def.name);
            let bound = def.bound.unwrap_or(DEFAULT_BOUND);
            let (verdict, worse_by) = judge(x, y, def.higher_is_better, bound);
            let label = match verdict {
                Verdict::Same => "same",
                Verdict::Changed => "CHANGED",
                Verdict::NoCommonSeed => "no seed",
                Verdict::Unchanged => "unchanged",
                Verdict::Improved => "improved",
                Verdict::Unresolved => "unresolved",
                Verdict::Worse if gated => "REGRESSED",
                Verdict::Worse => "worse",
            };
            ok &= !(verdict == Verdict::Changed || (gated && verdict == Verdict::Worse));
            println!(
                "  {label:<10} {:<34} {:>14.6} {:>14.6} {:>+8.1}% {:>7.1}%",
                def.name,
                x.median(),
                y.median(),
                worse_by * if x.exact && y.exact { 1.0 } else { 100.0 },
                x.spread().max(y.spread()) * 100.0
            );
        }
    }
    println!("\n{}", if ok { "compare: ok" } else { "compare: FAILED" });
    ok
}

#[cfg(test)]
mod tests {
    use super::*;

    fn timing(values: &[f64]) -> Series {
        Series {
            values: values.to_vec(),
            seeds: vec![42; values.len()],
            spreads: vec![0.0; values.len()],
            exact: false,
        }
    }

    #[test]
    fn worse_beyond_the_bound_regresses_in_the_metrics_own_direction() {
        let a = timing(&[1.00, 1.01, 0.99]);
        let slow = timing(&[1.20, 1.21, 1.19]);
        assert_eq!(judge(&a, &slow, false, 0.10).0, Verdict::Worse);
        // The same numbers read as a rate are an improvement.
        assert_eq!(judge(&a, &slow, true, 0.10).0, Verdict::Improved);
        assert_eq!(
            judge(&a, &timing(&[1.05, 1.04, 1.06]), false, 0.10).0,
            Verdict::Unchanged
        );
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved_not_unchanged() {
        let a = timing(&[1.0, 1.3, 0.8, 1.1, 0.9]);
        let b = timing(&[1.02, 1.25, 0.85, 1.0, 0.95]);
        assert_eq!(judge(&a, &b, false, 0.10).0, Verdict::Unresolved);
        // ... unless every run of B beats every run of A.
        let clear = timing(&[0.5, 0.6, 0.4, 0.55, 0.45]);
        assert_eq!(judge(&a, &clear, false, 0.10).0, Verdict::Improved);
        // With fewer than three runs the spread inside a run decides.
        let mut one = timing(&[1.0]);
        one.spreads = vec![0.3];
        assert_eq!(
            judge(&one, &timing(&[1.01]), false, 0.10).0,
            Verdict::Unresolved
        );
    }

    #[test]
    fn exact_counts_must_be_identical() {
        let count = |v: &[f64]| Series {
            exact: true,
            ..timing(v)
        };
        assert_eq!(
            judge(&count(&[7.0, 7.0]), &count(&[7.0]), true, 0.0).0,
            Verdict::Same
        );
        assert_eq!(
            judge(&count(&[7.0, 7.0]), &count(&[8.0]), true, 0.0).0,
            Verdict::Changed
        );
        // A count is a function of the seed: other seeds say nothing.
        let other = Series {
            seeds: vec![7],
            ..count(&[8.0])
        };
        assert_eq!(
            judge(&count(&[7.0]), &other, true, 0.0).0,
            Verdict::NoCommonSeed
        );
    }

    #[test]
    fn result_lines_round_trip() {
        let line = "{\"commit\":\"abc\",\"workload\":\"w\",\"seed\":7,\"digest\":\"00ff\",\"failed\":0,\
                    \"metrics\":{\"wall_s\":{\"value\":1.8,\"median\":2.0,\"q1\":1.9,\"q3\":2.1,\"exact\":false},\
                    \"sim.cycles\":{\"value\":5,\"median\":5,\"q1\":5,\"q3\":5,\"exact\":true}}}";
        let f = read_results(&format!("{line}\n\n{line}\n")).unwrap();
        let wall = &f.series["w"]["wall_s"];
        assert_eq!(wall.values, [1.8, 1.8]);
        assert!((wall.spreads[0] - 0.1).abs() < 1e-12 && !wall.exact);
        assert!(f.series["w"]["sim.cycles"].exact);
        assert_eq!(f.series["w"][DIGEST].seeds, [7, 7]);
        assert!(read_results("{\"workload\":\"w\"}").is_err());
    }
}
