//! Sample summaries: n, median, quartiles and the highest percentile
//! that still has at least ten samples beyond it.

/// What a list of samples is reduced to before it is printed, stored
/// or compared.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub min: f64,
    pub max: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` of the highest tail percentile the sample
    /// count supports, `None` below 100 samples.
    pub top: Option<(f64, f64)>,
}

impl Summary {
    /// The best sample: the lowest of a cost, the highest of a rate.
    /// On a shared host other tenants only ever add time, in spells of
    /// 0.1 s to minutes, so the best sample is the steadiest estimate of
    /// the program's own cost and the value every run reports; median
    /// and quartiles go with it to show how disturbed the run was.
    pub fn best(&self, higher_is_better: bool) -> f64 {
        if higher_is_better {
            self.max
        } else {
            self.min
        }
    }

    /// Distance between the quartiles as a share of the median — the
    /// spread `compare` and the acceptance runs gate on.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1).abs() / self.median.abs()
        }
    }
}

/// Tail percentiles tried from the top, each with the `k` of "one
/// sample in `k` lies beyond it"; a percentile is reported only when at
/// least [`MIN_BEYOND`] samples do.
const TAILS: [(f64, usize); 4] = [(99.9, 1000), (99.0, 100), (95.0, 20), (90.0, 10)];
const MIN_BEYOND: usize = 10;

/// The highest percentile of [`TAILS`] with at least ten of `n` samples
/// beyond it.
pub fn top_percentile(n: usize) -> Option<f64> {
    TAILS
        .into_iter()
        .find(|(_, k)| n / k >= MIN_BEYOND)
        .map(|(p, _)| p)
}

/// Quantile `p` in (0, 1) of sorted samples by the exclusive method
/// (position `p * (n + 1)`, linear interpolation, clamped to the ends)
/// — the rule Python's `statistics.quantiles` applies by default, so
/// from three samples up the quartiles here match the ones the
/// acceptance script computes (below that Python extrapolates).
fn quantile(sorted: &[f64], p: f64) -> f64 {
    let n = sorted.len();
    let pos = p * (n as f64 + 1.0);
    let lo = (pos.floor() as usize).clamp(1, n);
    let hi = (lo + 1).min(n);
    let frac = (pos - lo as f64).clamp(0.0, 1.0);
    sorted[lo - 1] + (sorted[hi - 1] - sorted[lo - 1]) * frac
}

/// Nearest-rank percentile `p` in (0, 100] of sorted samples.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Summarizes `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(Summary {
        n: sorted.len(),
        min: sorted[0],
        max: sorted[sorted.len() - 1],
        median: quantile(&sorted, 0.5),
        q1: quantile(&sorted, 0.25),
        q3: quantile(&sorted, 0.75),
        top: top_percentile(sorted.len()).map(|p| (p, percentile(&sorted, p))),
    })
}

/// A distribution kept in constant memory: counts in buckets 1 % apart
/// from 0.1 to 10⁸ (µs: 100 ns to 100 s). Request round trips go here
/// instead of into a list, so that the benchmark's own memory — and
/// with it `peak_rss_mb` — does not grow with the number of requests a
/// run happened to fit in.
pub struct LogHistogram {
    counts: Vec<u32>,
    total: u64,
}

impl LogHistogram {
    const FLOOR: f64 = 0.1;
    const GROWTH: f64 = 1.01;
    const BUCKETS: usize = 2084; // ln(1e9) / ln(1.01), rounded up

    pub fn new() -> LogHistogram {
        LogHistogram {
            counts: vec![0; Self::BUCKETS],
            total: 0,
        }
    }

    pub fn record(&mut self, v: f64) {
        let at = ((v.max(Self::FLOOR) / Self::FLOOR).ln() / Self::GROWTH.ln()) as usize;
        self.counts[at.min(Self::BUCKETS - 1)] += 1;
        self.total += 1;
    }

    pub fn merge(&mut self, other: &LogHistogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
    }

    /// Nearest-rank percentile `p` in (0, 100], as the middle of the
    /// bucket the rank falls in (within 0.5 % of the sample); 0 when
    /// nothing was recorded.
    pub fn percentile(&self, p: f64) -> f64 {
        let rank = ((p / 100.0) * self.total as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += u64::from(c);
            if c > 0 && seen >= rank {
                return Self::FLOOR * Self::GROWTH.powf(i as f64 + 0.5);
            }
        }
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_are_within_a_percent() {
        let mut h = LogHistogram::new();
        let mut other = LogHistogram::new();
        let samples: Vec<f64> = (1..=10_000).map(|i| 10.0 + f64::from(i) * 0.37).collect();
        for (i, &v) in samples.iter().enumerate() {
            if i % 2 == 0 {
                h.record(v)
            } else {
                other.record(v)
            }
        }
        h.merge(&other);
        assert_eq!(h.total, 10_000);
        for p in [50.0, 99.0, 99.9] {
            let exact = percentile(&samples, p);
            assert!((h.percentile(p) / exact - 1.0).abs() < 0.01, "p{p}");
        }
        assert_eq!(LogHistogram::new().percentile(50.0), 0.0);
        // Out-of-range values land in the end buckets instead of panicking.
        h.record(0.0);
        h.record(f64::MAX);
    }

    #[test]
    fn top_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(top_percentile(99), None);
        assert_eq!(top_percentile(100), Some(90.0));
        assert_eq!(top_percentile(199), Some(90.0));
        assert_eq!(top_percentile(200), Some(95.0));
        assert_eq!(top_percentile(999), Some(95.0));
        assert_eq!(top_percentile(1_000), Some(99.0));
        assert_eq!(top_percentile(9_999), Some(99.0));
        assert_eq!(top_percentile(10_000), Some(99.9));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        assert_eq!(s.top, None);
        assert!((s.spread() - 1.0).abs() < 1e-12);
        // statistics.quantiles([3, 1, 2], n=4) == [1, 2, 3]
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        let s = summarize(&[7.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 7.0, 7.0, 7.0));
        assert!(summarize(&[]).is_none());
    }

    #[test]
    fn tail_is_nearest_rank() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = summarize(&v).unwrap();
        assert_eq!(s.top, Some((99.0, 990.0)));
    }
}
