//! Graceful-degradation records and retry policy.
//!
//! The pipeline prefers a degraded-but-correct answer over an error:
//! the ILP grouping stage falls back to greedy class-aware grouping
//! when the solver gives up, and the sweep engine retries transient
//! job failures and quarantines corrupt cache entries instead of
//! aborting the whole sweep. Every such downgrade is recorded as a
//! [`Degradation`] so reports stay honest about how they were produced.

use std::time::Duration;

/// One recorded downgrade: the pipeline did something weaker than
/// asked, on purpose, instead of failing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Degradation {
    /// The ILP grouping solve failed (node budget exhausted, numeric
    /// infeasibility, ...) and the runner fell back to greedy
    /// class-aware grouping.
    IlpGreedyFallback {
        /// Solver error that triggered the fallback.
        reason: String,
    },
    /// A sweep job failed transiently and succeeded only after retry.
    JobRetried {
        /// Index of the retried job.
        job: usize,
        /// Attempts consumed before success (≥ 1 retries).
        attempts: u32,
    },
    /// A corrupt on-disk cache entry was moved aside and re-simulated.
    CacheQuarantined {
        /// File name of the quarantined entry.
        file: String,
    },
    /// The fleet allocator's throughput predictor found one or more
    /// profile curves missing from the memo cache and planning fell
    /// back to the per-device greedy pairing instead of simulating in
    /// the plan path (the same ladder shape as ILP → greedy).
    PredictorColdFallback {
        /// Profile curves that were not yet memo-cached.
        missing: usize,
    },
    /// A scheduler under decision-latency pressure planned with a
    /// weaker strategy than configured (the overload ladder: full
    /// re-solve → cached-plan reuse → greedy grouping).
    OverloadShed {
        /// Strategy that was configured (e.g. `"ilp"`).
        from: &'static str,
        /// Strategy actually used (e.g. `"cached-plan"`, `"greedy"`).
        to: &'static str,
        /// Jobs pending when the shed was taken.
        pending: usize,
    },
}

impl std::fmt::Display for Degradation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Degradation::IlpGreedyFallback { reason } => {
                write!(f, "ilp grouping degraded to greedy: {reason}")
            }
            Degradation::JobRetried { job, attempts } => {
                write!(f, "job {job} succeeded after {attempts} attempts")
            }
            Degradation::CacheQuarantined { file } => {
                write!(f, "quarantined corrupt cache entry {file}")
            }
            Degradation::PredictorColdFallback { missing } => {
                write!(f, "fleet predictor cold ({missing} curves unprofiled); planned greedy")
            }
            Degradation::OverloadShed { from, to, pending } => {
                write!(f, "overload: {from} planning shed to {to} with {pending} pending")
            }
        }
    }
}

/// Bounded-backoff retry policy for transient sweep-job failures.
///
/// Deterministic job errors (the common case: a simulator timeout
/// replays identically) waste `max_retries` attempts and still fail,
/// so the default keeps the budget small. Panics are never retried —
/// they are isolated and reported as [`crate::CoreError::Worker`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Additional attempts after the first failure.
    pub max_retries: u32,
    /// Backoff before retry `k` is `base_backoff_ms << (k - 1)`,
    /// capped at 1 s.
    pub base_backoff_ms: u64,
}

impl RetryPolicy {
    /// Backoff ceiling regardless of attempt count.
    const MAX_BACKOFF_MS: u64 = 1_000;

    /// No retries: every job failure is final.
    pub const NONE: RetryPolicy = RetryPolicy {
        max_retries: 0,
        base_backoff_ms: 0,
    };

    /// Sleep before retry number `retry` (1-based). Zero for
    /// [`RetryPolicy::NONE`] or a nonsensical `retry` of 0.
    pub fn backoff(&self, retry: u32) -> Duration {
        if retry == 0 || self.base_backoff_ms == 0 {
            return Duration::ZERO;
        }
        let shift = (retry - 1).min(10);
        let ms = (self.base_backoff_ms << shift).min(Self::MAX_BACKOFF_MS);
        Duration::from_millis(ms)
    }
}

impl Default for RetryPolicy {
    /// Two retries, 10 ms base backoff.
    fn default() -> Self {
        RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 10,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_caps() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff_ms: 100,
        };
        assert_eq!(p.backoff(0), Duration::ZERO);
        assert_eq!(p.backoff(1), Duration::from_millis(100));
        assert_eq!(p.backoff(2), Duration::from_millis(200));
        assert_eq!(p.backoff(3), Duration::from_millis(400));
        assert_eq!(
            p.backoff(9),
            Duration::from_millis(RetryPolicy::MAX_BACKOFF_MS)
        );
        // Large retry counts must not overflow the shift.
        assert_eq!(
            p.backoff(200),
            Duration::from_millis(RetryPolicy::MAX_BACKOFF_MS)
        );
    }

    #[test]
    fn none_never_sleeps() {
        assert_eq!(RetryPolicy::NONE.backoff(5), Duration::ZERO);
    }

    #[test]
    fn degradations_render() {
        let d = Degradation::IlpGreedyFallback {
            reason: "node limit".into(),
        };
        assert!(d.to_string().contains("greedy"));
        let r = Degradation::JobRetried {
            job: 7,
            attempts: 3,
        };
        assert!(r.to_string().contains("job 7"));
        let q = Degradation::CacheQuarantined {
            file: "ab12.json".into(),
        };
        assert!(q.to_string().contains("ab12.json"));
        let o = Degradation::OverloadShed {
            from: "ilp",
            to: "greedy",
            pending: 31,
        };
        assert!(o.to_string().contains("ilp"));
        assert!(o.to_string().contains("greedy"));
        assert!(o.to_string().contains("31 pending"));
    }
}
