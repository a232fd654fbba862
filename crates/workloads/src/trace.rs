//! Arrival traces for online (arrival-driven) scheduling.
//!
//! The thesis treats the workload as a static queue solved once; the
//! online scheduler (`gcs-sched`) instead consumes an [`ArrivalTrace`]:
//! a time-ordered list of jobs, each a [`Benchmark`] arriving at a
//! device-cycle timestamp. This module provides seeded generators —
//! [`ArrivalTrace::poisson`] (memoryless traffic),
//! [`ArrivalTrace::poisson_from_queue`] (Poisson timing over an exact
//! benchmark mix) and [`ArrivalTrace::bursty`] (arrival clumps) — all
//! driven by [`SimRng`] so a trace is a pure function of its seed.
//!
//! Exponential inter-arrival gaps are sampled with an in-crate natural
//! logarithm built only from IEEE-754 add/mul/divide (see
//! `deterministic_ln`), not `f64::ln`, so generated timestamps are
//! bit-identical across platforms and libm implementations — the same
//! portability standard the simulator holds itself to.

use gcs_sim::rng::SimRng;

use crate::Benchmark;

/// One job arrival: `bench` enters the admission queue at device cycle
/// `time`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival timestamp in device cycles.
    pub time: u64,
    /// The benchmark the job runs.
    pub bench: Benchmark,
}

/// A time-ordered job arrival sequence.
///
/// Invariant: arrivals are sorted by `time`; ties keep generation order
/// (stable), which is also the admission order schedulers must use.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArrivalTrace {
    arrivals: Vec<Arrival>,
}

impl ArrivalTrace {
    /// A trace from explicit arrivals. Sorts by time (stable, so equal
    /// timestamps keep their given order).
    pub fn new(mut arrivals: Vec<Arrival>) -> Self {
        arrivals.sort_by_key(|a| a.time);
        ArrivalTrace { arrivals }
    }

    /// `n` arrivals with exponential inter-arrival gaps (mean
    /// `mean_gap` cycles — a Poisson process) and benchmarks drawn
    /// uniformly from `pool`. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty or `mean_gap` is not finite and
    /// positive.
    pub fn poisson(pool: &[Benchmark], n: usize, mean_gap: f64, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty benchmark pool");
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7261_6365_706f_6973); // "poisrace"
        let mut t = 0u64;
        let arrivals = (0..n)
            .map(|_| {
                t = t.saturating_add(exp_gap(&mut rng, mean_gap));
                let bench = pool[rng.gen_range(pool.len() as u64) as usize];
                Arrival { time: t, bench }
            })
            .collect();
        ArrivalTrace { arrivals }
    }

    /// Poisson arrival *times* over an exact benchmark sequence: job `i`
    /// runs `queue[i]`, so the trace census equals the queue census
    /// (e.g. the thesis 14-app mix) while timing stays memoryless.
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `mean_gap` is not finite and positive.
    pub fn poisson_from_queue(queue: &[Benchmark], mean_gap: f64, seed: u64) -> Self {
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7175_6575_6500_0000); // "queue"
        let mut t = 0u64;
        let arrivals = queue
            .iter()
            .map(|&bench| {
                t = t.saturating_add(exp_gap(&mut rng, mean_gap));
                Arrival { time: t, bench }
            })
            .collect();
        ArrivalTrace { arrivals }
    }

    /// Bursty traffic: `bursts` clumps at exponentially-spaced starts
    /// (mean `burst_gap` cycles), each an *atomic* batch of `burst_len`
    /// same-timestamp jobs drawn uniformly from `pool` — the arrival
    /// pattern that stresses admission backpressure hardest.
    /// Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty or `burst_gap` is not finite and
    /// positive.
    pub fn bursty(
        pool: &[Benchmark],
        bursts: usize,
        burst_len: usize,
        burst_gap: f64,
        seed: u64,
    ) -> Self {
        assert!(!pool.is_empty(), "empty benchmark pool");
        let mut rng = SimRng::seed_from_u64(seed ^ 0x6275_7273_7479_0000); // "bursty"
        let mut t = 0u64;
        let mut arrivals = Vec::with_capacity(bursts * burst_len);
        for _ in 0..bursts {
            t = t.saturating_add(exp_gap(&mut rng, burst_gap));
            for _ in 0..burst_len {
                let bench = pool[rng.gen_range(pool.len() as u64) as usize];
                arrivals.push(Arrival { time: t, bench });
            }
        }
        ArrivalTrace { arrivals }
    }

    /// Fleet-shaped traffic: `waves` same-timestamp batches of
    /// `wave_len` jobs at fixed `gap`-cycle spacing, benchmarks drawn
    /// uniformly from `pool`. Where [`ArrivalTrace::bursty`] stresses
    /// one queue's backpressure with memoryless clump starts, the fixed
    /// cadence here feeds a multi-device allocator a fresh placement
    /// decision per wave — each wave must be split *across* devices, so
    /// per-wave allocation (and cross-wave churn) is exercised rather
    /// than queue depth. Deterministic in `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is empty or `gap` is 0.
    pub fn waves(pool: &[Benchmark], waves: usize, wave_len: usize, gap: u64, seed: u64) -> Self {
        assert!(!pool.is_empty(), "empty benchmark pool");
        assert!(gap > 0, "wave gap must be at least 1 cycle");
        let mut rng = SimRng::seed_from_u64(seed ^ 0x7761_7665_7300_0000); // "waves"
        let mut arrivals = Vec::with_capacity(waves * wave_len);
        for w in 0..waves {
            let t = (w as u64).saturating_mul(gap);
            for _ in 0..wave_len {
                let bench = pool[rng.gen_range(pool.len() as u64) as usize];
                arrivals.push(Arrival { time: t, bench });
            }
        }
        ArrivalTrace { arrivals }
    }

    /// The arrivals, sorted by time (ties in admission order).
    pub fn arrivals(&self) -> &[Arrival] {
        &self.arrivals
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.arrivals.is_empty()
    }
}

/// Replays a trace against the wall clock in *open-loop* mode.
///
/// Arrival cycles map to wall time through a `cycles_per_sec` rate;
/// [`Iterator::next`] sleeps until the arrival is due, then yields it
/// together with how late it is being delivered (zero when the driver
/// kept up). Open-loop means submission timing is dictated by the
/// trace, never by how fast the consumer answers — the pacing that
/// exposes queue growth and backpressure in a scheduler daemon, where
/// closed-loop (wait-then-send) load generation would hide overload by
/// slowing down with the server.
#[derive(Debug)]
pub struct OpenLoopDriver<'a> {
    arrivals: std::slice::Iter<'a, Arrival>,
    cycles_per_sec: f64,
    started: std::time::Instant,
}

impl<'a> OpenLoopDriver<'a> {
    /// Paces `trace` at `rate` simulated cycles per wall second. The
    /// clock starts now.
    ///
    /// # Panics
    ///
    /// If `cycles_per_sec` is not finite and positive.
    pub fn new(trace: &'a ArrivalTrace, cycles_per_sec: f64) -> Self {
        assert!(
            cycles_per_sec.is_finite() && cycles_per_sec > 0.0,
            "cycles_per_sec must be finite and positive (got {cycles_per_sec})"
        );
        OpenLoopDriver {
            arrivals: trace.arrivals().iter(),
            cycles_per_sec,
            started: std::time::Instant::now(),
        }
    }

    /// Wall-clock offset from the start at which `time` cycles are due.
    fn due(&self, time: u64) -> std::time::Duration {
        std::time::Duration::from_secs_f64(time as f64 / self.cycles_per_sec)
    }
}

impl<'a> Iterator for OpenLoopDriver<'a> {
    /// The arrival plus its delivery lateness (zero when on time).
    type Item = (&'a Arrival, std::time::Duration);

    fn next(&mut self) -> Option<Self::Item> {
        let a = self.arrivals.next()?;
        let due = self.due(a.time);
        let elapsed = self.started.elapsed();
        if due > elapsed {
            std::thread::sleep(due - elapsed);
            Some((a, std::time::Duration::ZERO))
        } else {
            Some((a, elapsed - due))
        }
    }
}

/// One exponential inter-arrival gap with the given mean, rounded to
/// whole cycles. Uses [`deterministic_ln`], so the draw is
/// platform-independent.
fn exp_gap(rng: &mut SimRng, mean: f64) -> u64 {
    assert!(
        mean.is_finite() && mean > 0.0,
        "mean inter-arrival gap must be finite and positive (got {mean})"
    );
    // 1 - U is in (0, 1]; ln of it is <= 0, so the gap is >= 0.
    let u = rng.gen_f64();
    let gap = -deterministic_ln(1.0 - u) * mean;
    // Cap at u64::MAX rather than wrapping (astronomical draws only).
    if gap >= u64::MAX as f64 {
        u64::MAX
    } else {
        gap.round() as u64
    }
}

/// Natural logarithm from IEEE-754 primitives only.
///
/// `f64::ln` routes to the platform libm, which is deterministic on one
/// machine but not guaranteed bit-identical *across* platforms. This
/// implementation uses only add/sub/mul/div — operations IEEE 754
/// requires to be correctly rounded — so traces generated from a seed
/// are bit-identical everywhere.
///
/// Method: decompose `x = m·2^e` with `m ∈ [√2/2, √2)`, then
/// `ln m = 2·atanh(t)` for `t = (m−1)/(m+1)` via its odd Taylor series.
/// With `|t| ≤ 0.1716` the truncation error of the 8-term series is
/// below 1e-16 relative — beyond double precision.
///
/// Domain: finite `x > 0` (callers feed `1 - U ∈ (0, 1]`); returns NaN
/// for zero, negatives and non-finite inputs.
fn deterministic_ln(x: f64) -> f64 {
    // NaN falls through the first comparison and is caught by the
    // finiteness check.
    if x <= 0.0 || !x.is_finite() {
        return f64::NAN;
    }
    const SQRT2: f64 = std::f64::consts::SQRT_2;
    const LN2: f64 = std::f64::consts::LN_2;

    // Normalize subnormals by scaling up 2^64 (exact).
    let (x, bias) = if x < f64::MIN_POSITIVE {
        (x * 18_446_744_073_709_551_616.0, -64i64)
    } else {
        (x, 0i64)
    };
    let bits = x.to_bits();
    let mut e = ((bits >> 52) & 0x7ff) as i64 - 1023 + bias;
    // Mantissa in [1, 2).
    let mut m = f64::from_bits((bits & 0x000f_ffff_ffff_ffff) | (1023u64 << 52));
    if m >= SQRT2 {
        m *= 0.5;
        e += 1;
    }

    let t = (m - 1.0) / (m + 1.0);
    let t2 = t * t;
    // atanh series, Horner form: t + t^3/3 + t^5/5 + ... + t^15/15.
    let series = t
        * (1.0
            + t2 * (1.0 / 3.0
                + t2 * (1.0 / 5.0
                    + t2 * (1.0 / 7.0
                        + t2 * (1.0 / 9.0
                            + t2 * (1.0 / 11.0 + t2 * (1.0 / 13.0 + t2 * (1.0 / 15.0))))))));
    2.0 * series + e as f64 * LN2
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_ln_matches_libm() {
        // Not bit-equality (libm varies); agreement to ~2 ulps over the
        // whole domain the generators use is the correctness bar.
        let mut worst = 0.0f64;
        for i in 1..=100_000u64 {
            let x = i as f64 / 100_000.0; // (0, 1]
            let got = deterministic_ln(x);
            let want = x.ln();
            let tol = want.abs().max(1.0) * 5e-14;
            assert!((got - want).abs() <= tol, "ln({x}) = {got}, libm {want}");
            worst = worst.max((got - want).abs());
        }
        // Spot checks outside (0, 1].
        assert_eq!(deterministic_ln(1.0), 0.0);
        assert!((deterministic_ln(std::f64::consts::E) - 1.0).abs() < 1e-14);
        assert!((deterministic_ln(1e300) - 690.7755278982137).abs() < 1e-9);
        assert!((deterministic_ln(1e-300) + 690.7755278982137).abs() < 1e-9);
        assert!(deterministic_ln(0.0).is_nan());
        assert!(deterministic_ln(-1.0).is_nan());
        assert!(deterministic_ln(f64::INFINITY).is_nan());
        // Subnormal inputs still resolve.
        let sub = f64::from_bits(1); // smallest positive subnormal
        assert!(deterministic_ln(sub) < -744.0 && deterministic_ln(sub) > -746.0);
        let _ = worst;
    }

    #[test]
    fn poisson_is_deterministic_and_sorted() {
        let a = ArrivalTrace::poisson(&Benchmark::ALL, 100, 5_000.0, 7);
        let b = ArrivalTrace::poisson(&Benchmark::ALL, 100, 5_000.0, 7);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(a.arrivals().windows(2).all(|w| w[0].time <= w[1].time));
        let c = ArrivalTrace::poisson(&Benchmark::ALL, 100, 5_000.0, 8);
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn poisson_mean_gap_is_plausible() {
        let n = 4000;
        let mean = 10_000.0;
        let t = ArrivalTrace::poisson(&Benchmark::ALL, n, mean, 3);
        let last = t.arrivals().last().unwrap().time as f64;
        let got = last / n as f64;
        assert!(
            (got / mean - 1.0).abs() < 0.10,
            "empirical mean gap {got} vs requested {mean}"
        );
    }

    /// Golden pin: the first 20 arrivals of the canonical seeded trace.
    /// If this changes, every committed `results/sched/*.json` and the
    /// determinism guarantees of `tests/sched.rs` silently shift — bump
    /// them together, deliberately.
    #[test]
    fn golden_first_20_arrivals_seed_42() {
        let t = ArrivalTrace::poisson(&Benchmark::ALL, 20, 10_000.0, 42);
        let got: Vec<(u64, &str)> = t
            .arrivals()
            .iter()
            .map(|a| (a.time, a.bench.name()))
            .collect();
        let want: Vec<(u64, &str)> = vec![
            (9027, "LPS"),
            (10615, "LUD"),
            (24844, "GUPS"),
            (35925, "BLK"),
            (45003, "3DS"),
            (46671, "3DS"),
            (60334, "HS"),
            (65603, "BLK"),
            (101224, "BP"),
            (107612, "BFS2"),
            (124866, "BLK"),
            (125341, "LUD"),
            (131899, "BLK"),
            (132729, "BLK"),
            (135720, "BP"),
            (138532, "LPS"),
            (144930, "3DS"),
            (155630, "SAD"),
            (155675, "BLK"),
            (158475, "RAY"),
        ];
        assert_eq!(got, want, "golden arrival pin moved");
    }

    #[test]
    fn bursty_produces_atomic_same_time_clumps() {
        let t = ArrivalTrace::bursty(&Benchmark::ALL, 5, 4, 50_000.0, 11);
        assert_eq!(t.len(), 20);
        let times: Vec<u64> = t.arrivals().iter().map(|a| a.time).collect();
        // Exactly 5 distinct burst timestamps, each shared by 4 jobs.
        let mut distinct = times.clone();
        distinct.dedup();
        assert_eq!(distinct.len(), 5, "bursts must not interleave: {times:?}");
        for w in times.chunks(4) {
            assert!(w.iter().all(|&x| x == w[0]));
        }
        assert_eq!(t, ArrivalTrace::bursty(&Benchmark::ALL, 5, 4, 50_000.0, 11));
    }

    #[test]
    fn waves_arrive_on_a_fixed_cadence() {
        let t = ArrivalTrace::waves(&Benchmark::ALL, 4, 3, 10_000, 7);
        assert_eq!(t.len(), 12);
        let times: Vec<u64> = t.arrivals().iter().map(|a| a.time).collect();
        // Wave w lands exactly at w * gap, all members together.
        for (w, chunk) in times.chunks(3).enumerate() {
            assert!(chunk.iter().all(|&x| x == w as u64 * 10_000), "{times:?}");
        }
        assert_eq!(t, ArrivalTrace::waves(&Benchmark::ALL, 4, 3, 10_000, 7));
        // A different seed reshuffles benches but keeps the cadence.
        let u = ArrivalTrace::waves(&Benchmark::ALL, 4, 3, 10_000, 8);
        assert_eq!(
            u.arrivals().iter().map(|a| a.time).collect::<Vec<_>>(),
            times
        );
    }

    #[test]
    fn poisson_from_queue_preserves_census_exactly() {
        let queue = vec![
            Benchmark::Gups,
            Benchmark::Gups,
            Benchmark::Sad,
            Benchmark::Lud,
        ];
        let t = ArrivalTrace::poisson_from_queue(&queue, 1_000.0, 5);
        let order: Vec<Benchmark> = t.arrivals().iter().map(|a| a.bench).collect();
        assert_eq!(order, queue, "bench order must be the queue");
        assert!(t.arrivals().windows(2).all(|w| w[0].time <= w[1].time));
    }

    #[test]
    fn exp_gap_handles_extremes() {
        let mut rng = SimRng::seed_from_u64(1);
        for _ in 0..1000 {
            let g = exp_gap(&mut rng, 1.0);
            assert!(g < 100, "mean-1 draws stay tiny (got {g})");
        }
    }

    #[test]
    fn open_loop_driver_yields_all_arrivals_in_order() {
        let trace = ArrivalTrace::poisson(&[Benchmark::Gups, Benchmark::Hs], 10, 5_000.0, 3);
        // An astronomically fast clock: everything is already due, so
        // the iterator never sleeps and reports lateness instead.
        let out: Vec<u64> = OpenLoopDriver::new(&trace, 1e18)
            .map(|(a, _late)| a.time)
            .collect();
        let expect: Vec<u64> = trace.arrivals().iter().map(|a| a.time).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn open_loop_driver_paces_to_wall_clock() {
        // Two arrivals 10_000 cycles apart at 1e6 cycles/sec = 10 ms.
        let trace = ArrivalTrace::new(vec![
            Arrival {
                time: 0,
                bench: Benchmark::Gups,
            },
            Arrival {
                time: 10_000,
                bench: Benchmark::Hs,
            },
        ]);
        let start = std::time::Instant::now();
        let n = OpenLoopDriver::new(&trace, 1e6).count();
        assert_eq!(n, 2);
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(9),
            "second arrival must wait for its wall-clock due time"
        );
    }
}
