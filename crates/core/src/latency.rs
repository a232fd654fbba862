//! Wall-clock decision-latency accounting.
//!
//! The online scheduler's canonical reports are *simulated-time* and
//! byte-stable; wall-clock measurements (how long a planning decision
//! actually took on the host) must therefore live beside the report,
//! not inside it. [`NanoStats`] is that sidecar: a nearest-rank
//! percentile summary over nanosecond samples, plus a derived
//! decisions-per-second rate. The daemon collects one sample per
//! [`Policy::plan`] call, and the benchmark's `sched_inproc` workload
//! reports the summary as `sched.decision_p50_ns` /
//! `sched.decision_p99_ns`.
//!
//! [`Policy::plan`]: https://docs.rs/gcs-sched (gcs_sched::Policy::plan)

/// Nearest-rank percentile summary of nanosecond samples.
///
/// Same estimator as the scheduler's cycle-domain `LatencyStats`
/// (nearest-rank, never interpolated), applied to host wall time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NanoStats {
    /// Number of samples summarized.
    pub count: usize,
    /// 50th percentile in nanoseconds (nearest-rank).
    pub p50_ns: u64,
    /// 95th percentile in nanoseconds (nearest-rank).
    pub p95_ns: u64,
    /// 99th percentile in nanoseconds (nearest-rank).
    pub p99_ns: u64,
    /// Arithmetic mean in nanoseconds.
    pub mean_ns: f64,
    /// Maximum sample in nanoseconds.
    pub max_ns: u64,
}

impl NanoStats {
    /// Summarizes `samples_ns` (order irrelevant). All-zero for an
    /// empty set.
    pub fn from_samples(samples_ns: &[u64]) -> NanoStats {
        if samples_ns.is_empty() {
            return NanoStats::default();
        }
        let mut sorted = samples_ns.to_vec();
        sorted.sort_unstable();
        let pct = |p: u64| -> u64 {
            let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
            sorted[rank - 1]
        };
        NanoStats {
            count: sorted.len(),
            p50_ns: pct(50),
            p95_ns: pct(95),
            p99_ns: pct(99),
            mean_ns: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            max_ns: *sorted.last().expect("non-empty"),
        }
    }
}

impl std::fmt::Display for NanoStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} p50={}ns p95={}ns p99={}ns mean={:.0}ns max={}ns",
            self.count, self.p50_ns, self.p95_ns, self.p99_ns, self.mean_ns, self.max_ns
        )
    }
}

/// Sliding-window variant of [`NanoStats`]: a fixed-capacity ring of
/// the most recent samples, summarized on demand with the identical
/// nearest-rank estimator.
///
/// Groundwork for decision-latency SLO enforcement (shed load when the
/// p99 *over a window* exceeds a target, not when the queue is deep):
/// the batch summary answers "how did this session do", the window
/// answers "how are we doing right now". While fewer than `capacity`
/// samples have been pushed the window is exactly the batch set, so
/// [`WindowedNanoStats::stats`] agrees with
/// [`NanoStats::from_samples`] byte-for-byte on identical inputs.
#[derive(Debug, Clone)]
pub struct WindowedNanoStats {
    ring: Vec<u64>,
    capacity: usize,
    /// Next slot to overwrite once the ring is full.
    head: usize,
    /// Lifetime sample count (saturating at usize::MAX).
    pushed: usize,
}

impl WindowedNanoStats {
    /// An empty window keeping the most recent `capacity` samples.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity — a window that can hold nothing can
    /// answer nothing.
    pub fn new(capacity: usize) -> WindowedNanoStats {
        assert!(capacity > 0, "window capacity must be at least 1");
        WindowedNanoStats {
            ring: Vec::with_capacity(capacity),
            capacity,
            head: 0,
            pushed: 0,
        }
    }

    /// Records one sample, evicting the oldest once the ring is full.
    pub fn push(&mut self, sample_ns: u64) {
        if self.ring.len() < self.capacity {
            self.ring.push(sample_ns);
        } else {
            self.ring[self.head] = sample_ns;
            self.head = (self.head + 1) % self.capacity;
        }
        self.pushed = self.pushed.saturating_add(1);
    }

    /// Samples currently in the window (≤ capacity).
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True before the first push.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Lifetime samples pushed, including evicted ones.
    pub fn total_pushed(&self) -> usize {
        self.pushed
    }

    /// Nearest-rank summary over the samples currently in the window —
    /// the same estimator as [`NanoStats::from_samples`], so the two
    /// agree exactly whenever the window still holds every sample.
    pub fn stats(&self) -> NanoStats {
        NanoStats::from_samples(&self.ring)
    }

    /// Windowed p99 in nanoseconds: the SLO-facing number. 0 while
    /// empty.
    pub fn p99_ns(&self) -> u64 {
        self.stats().p99_ns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_nearest_rank() {
        let samples: Vec<u64> = (1..=200).collect();
        let s = NanoStats::from_samples(&samples);
        assert_eq!(s.count, 200);
        assert_eq!(s.p50_ns, 100);
        assert_eq!(s.p95_ns, 190);
        assert_eq!(s.p99_ns, 198);
        assert_eq!(s.max_ns, 200);
        assert!((s.mean_ns - 100.5).abs() < 1e-12);
        // Singleton sets report that sample everywhere.
        let one = NanoStats::from_samples(&[7]);
        assert_eq!((one.p50_ns, one.p99_ns, one.max_ns), (7, 7, 7));
        assert_eq!(NanoStats::from_samples(&[]), NanoStats::default());
    }

    #[test]
    fn display_is_compact() {
        let s = NanoStats::from_samples(&[10, 20, 30]);
        let text = s.to_string();
        assert!(text.contains("n=3"));
        assert!(text.contains("p99=30ns"));
    }

    #[test]
    fn window_matches_batch_until_eviction() {
        // Deterministic but unsorted sample stream.
        let samples: Vec<u64> = (0..128u64).map(|i| (i * 7919) % 1000).collect();
        let mut w = WindowedNanoStats::new(128);
        for (i, &s) in samples.iter().enumerate() {
            w.push(s);
            // Window still holds everything: identical to the batch
            // summary over the same prefix, field for field.
            assert_eq!(w.stats(), NanoStats::from_samples(&samples[..=i]));
        }
        assert_eq!(w.len(), 128);
        assert_eq!(w.total_pushed(), 128);
    }

    #[test]
    fn window_evicts_oldest_first() {
        let mut w = WindowedNanoStats::new(4);
        for s in [100, 200, 300, 400, 500, 600] {
            w.push(s);
        }
        // Only the last 4 samples remain.
        assert_eq!(w.len(), 4);
        assert_eq!(w.total_pushed(), 6);
        assert_eq!(w.stats(), NanoStats::from_samples(&[300, 400, 500, 600]));
        assert_eq!(w.stats().max_ns, 600);
        assert_eq!(w.p99_ns(), 600);
    }

    #[test]
    fn window_p99_tracks_recent_regressions() {
        let mut w = WindowedNanoStats::new(8);
        for _ in 0..64 {
            w.push(10);
        }
        assert_eq!(w.p99_ns(), 10);
        // A burst of slow decisions dominates the window immediately,
        // long before it would move a lifetime percentile.
        for _ in 0..8 {
            w.push(10_000);
        }
        assert_eq!(w.p99_ns(), 10_000);
    }

    #[test]
    #[should_panic(expected = "window capacity")]
    fn zero_capacity_window_is_rejected() {
        let _ = WindowedNanoStats::new(0);
    }
}
