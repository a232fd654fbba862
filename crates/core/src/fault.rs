//! Graceful-degradation records.
//!
//! The pipeline prefers a degraded-but-correct answer over an error:
//! the ILP grouping stage falls back to greedy class-aware grouping
//! when the solver gives up, and the sweep engine quarantines corrupt
//! cache entries instead of aborting the whole sweep. Every such
//! downgrade is recorded as a [`Degradation`] so reports stay honest
//! about how they were produced.

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn degradations_render() {
        let d = Degradation::IlpGreedyFallback {
            reason: "node limit".into(),
        };
        assert!(d.to_string().contains("greedy"));
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
