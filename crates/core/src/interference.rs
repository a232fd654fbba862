//! Per-class interference measurement (§3.2.2, Fig 3.4).
//!
//! For every ordered class pair `(i, j)` the matrix stores the average
//! slowdown a class-`i` application suffers when co-running with a
//! class-`j` application on an even split of the device, relative to
//! running alone on the *whole* device:
//!
//! ```text
//! S(i | j) = cycles(i co-run with j, N/2 SMs) / cycles(i alone, N SMs)
//! ```
//!
//! The thesis' qualitative finding — class M slows everyone down
//! (FR-FCFS row-hit priority feeds the streaming apps), class-MC apps
//! suffer the most from class M, and A-A pairs barely interfere — is
//! reproduced by measurement on the simulator.

use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

use crate::classify::AppClass;
use crate::sweep::{CorunMode, SweepEngine, Workload};
use crate::CoreError;

/// The 4×4 class slowdown matrix. `slowdown(i, j)` ≥ 1 means class `i`
/// runs that many times longer next to class `j` than alone.
#[derive(Debug, Clone, PartialEq)]
pub struct InterferenceMatrix {
    s: [[f64; AppClass::COUNT]; AppClass::COUNT],
}

impl InterferenceMatrix {
    /// Builds a matrix from raw entries (`s[i][j]` = slowdown of class
    /// `i` with class `j`).
    ///
    /// # Panics
    ///
    /// Panics if any entry is not finite and ≥ 1 − 1e-6 (co-running
    /// cannot speed an application up in this model).
    pub fn from_entries(s: [[f64; AppClass::COUNT]; AppClass::COUNT]) -> Self {
        for row in &s {
            for &v in row {
                assert!(v.is_finite() && v >= 1.0 - 1e-6, "bad slowdown {v}");
            }
        }
        InterferenceMatrix { s }
    }

    /// Slowdown of `victim` when co-running with `aggressor`.
    pub fn slowdown(&self, victim: AppClass, aggressor: AppClass) -> f64 {
        self.s[victim.index()][aggressor.index()]
    }

    /// All entries.
    pub fn entries(&self) -> &[[f64; AppClass::COUNT]; AppClass::COUNT] {
        &self.s
    }

    /// A uniform matrix (every pair slows down by `s`); useful in tests.
    pub fn uniform(s: f64) -> Self {
        Self::from_entries([[s; AppClass::COUNT]; AppClass::COUNT])
    }

    /// A synthetic matrix with the qualitative shape of Fig 3.4: M hurts
    /// everyone, MC suffers most from M, A pairs are nearly free. Used
    /// by tests and as a documented fallback when measurement is too
    /// expensive.
    pub fn synthetic_paper_shape() -> Self {
        // rows: victim M, MC, C, A; cols: aggressor M, MC, C, A.
        Self::from_entries([
            [5.5, 4.0, 3.0, 2.6],
            [6.5, 4.2, 3.0, 2.5],
            [4.5, 3.5, 2.6, 2.2],
            [3.5, 2.8, 2.3, 2.05],
        ])
    }

    /// Measures the matrix exactly as §3.2.2 prescribes: co-runs **every
    /// unordered benchmark pair** of the 14-app suite on an even split,
    /// records each app's slowdown against its alone run, and averages
    /// the samples into the 4×4 class cells (classes per Table 3.2).
    ///
    /// This is 14 alone runs plus 105 co-runs through `engine`, fanned
    /// out as one parallel batch, and every job is memoized under the
    /// engine's cache. Results are bit-identical at any thread count.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn measure_full_with(
        engine: &SweepEngine,
        cfg: &GpuConfig,
        scale: Scale,
    ) -> Result<Self, CoreError> {
        Self::measure_suite_with(engine, cfg, scale, &Benchmark::ALL)
    }

    /// The §3.2.2 procedure over an arbitrary benchmark subset: all
    /// alone runs and all unordered pairs in one batch, averaged into
    /// class cells. The determinism suite uses small subsets to keep
    /// runtimes down.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn measure_suite_with(
        engine: &SweepEngine,
        cfg: &GpuConfig,
        scale: Scale,
        suite: &[Benchmark],
    ) -> Result<Self, CoreError> {
        // One batch: the alone runs on the whole device, then every
        // unordered pair on an even split. The alone runs are the
        // pipeline's suite profiles, and a lone app's `Even` co-run (the
        // Serial baseline's groups) is served by the same profile job,
        // so all three share one cache entry per app.
        let mut pairs: Vec<(usize, usize)> = Vec::new();
        for i in 0..suite.len() {
            for j in i..suite.len() {
                pairs.push((i, j));
            }
        }
        let ws: Vec<Workload> = suite.iter().map(|&b| Workload::Bench(b)).collect();
        let n_alone = suite.len();
        let cycles = engine.run_parallel(n_alone + pairs.len(), |k| match k.checked_sub(n_alone) {
            None => engine
                .profile(cfg, scale, suite[k], cfg.num_sms)
                .map(|p| [p.cycles.max(1), 0]),
            Some(k) => {
                let (i, j) = pairs[k];
                let group = [&ws[i], &ws[j]].into_iter();
                engine.corun_with(cfg, scale, group, &CorunMode::Even, |o| [o.cycles[0], o.cycles[1]])
            }
        })?;
        let (alone, outcomes) = cycles.split_at(n_alone);

        // Accumulate in job order — the same order the sequential nested
        // loop used, so the averages are bit-identical.
        let mut sum = [[0.0f64; AppClass::COUNT]; AppClass::COUNT];
        let mut n = [[0u32; AppClass::COUNT]; AppClass::COUNT];
        for (&(i, j), out) in pairs.iter().zip(outcomes) {
            let si = (out[0] as f64 / alone[i][0] as f64).max(1.0);
            let sj = (out[1] as f64 / alone[j][0] as f64).max(1.0);
            let ci = crate::queues::paper_class(suite[i]).index();
            let cj = crate::queues::paper_class(suite[j]).index();
            sum[ci][cj] += si;
            n[ci][cj] += 1;
            sum[cj][ci] += sj;
            n[cj][ci] += 1;
        }
        let mut s = [[1.0f64; AppClass::COUNT]; AppClass::COUNT];
        for i in 0..AppClass::COUNT {
            for j in 0..AppClass::COUNT {
                if n[i][j] > 0 {
                    s[i][j] = (sum[i][j] / f64::from(n[i][j])).max(1.0);
                }
            }
        }
        Ok(Self::from_entries(s))
    }
}

impl std::fmt::Display for InterferenceMatrix {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "victim\\aggr    M     MC      C      A")?;
        for victim in AppClass::ALL {
            write!(f, "{:>6}    ", victim.label())?;
            for aggr in AppClass::ALL {
                write!(f, "{:6.2} ", self.slowdown(victim, aggr))?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_matrix() {
        let m = InterferenceMatrix::uniform(2.0);
        for v in AppClass::ALL {
            for a in AppClass::ALL {
                assert_eq!(m.slowdown(v, a), 2.0);
            }
        }
    }

    #[test]
    #[should_panic(expected = "bad slowdown")]
    fn speedups_rejected() {
        InterferenceMatrix::from_entries([[0.5; 4]; 4]);
    }

    #[test]
    fn synthetic_shape_m_dominates() {
        let m = InterferenceMatrix::synthetic_paper_shape();
        for victim in AppClass::ALL {
            assert!(
                m.slowdown(victim, AppClass::M) > m.slowdown(victim, AppClass::A),
                "M must hurt {victim} more than A does"
            );
        }
        // MC suffers more from M than M itself does (§3.2.2).
        assert!(m.slowdown(AppClass::Mc, AppClass::M) > m.slowdown(AppClass::M, AppClass::M));
    }

    #[test]
    fn display_contains_all_labels() {
        let shown = InterferenceMatrix::synthetic_paper_shape().to_string();
        for c in AppClass::ALL {
            assert!(shown.contains(c.label()));
        }
    }

    #[test]
    fn measured_matrix_on_tiny_device_is_sane() {
        // Smoke test: measurement completes and produces slowdowns ≥ 1
        // with the M column dominating the A column on average.
        let cfg = GpuConfig::test_small();
        // One representative per class: BLK (M), FFT (MC), SPMV (C), SAD (A).
        let reps = [Benchmark::Blk, Benchmark::Fft, Benchmark::Spmv, Benchmark::Sad];
        let m = InterferenceMatrix::measure_suite_with(&SweepEngine::sequential(), &cfg, Scale::TEST, &reps)
            .unwrap();
        let col = |a: AppClass| -> f64 {
            AppClass::ALL.iter().map(|&v| m.slowdown(v, a)).sum::<f64>() / 4.0
        };
        assert!(col(AppClass::M) >= 1.0);
        assert!(
            col(AppClass::M) > col(AppClass::A) * 0.8,
            "M column ({}) should not be far below A column ({})\n{m}",
            col(AppClass::M),
            col(AppClass::A)
        );
    }
}
