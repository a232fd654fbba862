//! Per-device throughput prediction from memo-cached profile curves.
//!
//! For every distinct device capacity `n` in the fleet and every
//! benchmark in play, the predictor holds a normalized-throughput
//! curve over SM budgets: `rate(s) = cycles(n) / cycles(s)` from the
//! existing alone-run profiles (`profile_with_sms` through the sweep
//! engine's memo cache), sampled on the same six-point grid the
//! pipeline's scalability curves use and linearly interpolated between
//! samples ([`gcs_core::runner::interpolate`]). `rate` is 1.0 at the
//! full device by construction and the marginal gain
//! `rate(s+1) − rate(s)` is what the allocator maximizes. The curves
//! never change once loaded, so each one stores its interpolated rate
//! for every budget from 0 to one past its capacity, and a rate read
//! is an index.
//!
//! Two ways in, walking the same grid points in the same order:
//!
//! * [`FleetPredictor::warm`] simulates (or replays from cache) every
//!   curve point up front — the runner's path. Points the engine's
//!   in-process memo already holds are answered in one serial pass, a
//!   batched probe per curve; only the rest go to the worker pool.
//!   Warm starts replay with zero newly simulated jobs; `tests/fleet.rs`
//!   pins this.
//! * [`FleetPredictor::probe_merge`] is **cache-only**
//!   ([`SweepEngine::profile_workload_cached`]): the plan-path entry
//!   point, which must never hide a simulation inside a scheduling
//!   decision. Missing curves are reported so the caller can degrade
//!   to greedy planning, mirroring the ILP → greedy ladder.

use std::collections::{BTreeMap, BTreeSet};

use gcs_core::runner::{budget_grid, interpolate};
use gcs_core::{CoreError, SweepEngine, Workload};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

use crate::spec::FleetSpec;

/// One `(device capacity, benchmark)` scalability record.
#[derive(Debug, Clone)]
pub(crate) struct Curve {
    /// Ascending `(budget_sms, rate)` samples; last point is
    /// `(capacity, 1.0)`.
    points: Vec<(u32, f64)>,
    /// `interpolate(points, s)` for every `s` in `0..=capacity + 1`:
    /// every budget the allocator reads, computed once.
    rates: Vec<f64>,
    /// Alone-run cycles on the full device — the STP/ANTT reference.
    full_cycles: u64,
}

impl Curve {
    /// Predicted normalized throughput at `budget_sms`: the dense
    /// table inside it, `interpolate` beyond (bit-identical either way).
    pub(crate) fn rate(&self, budget_sms: u32) -> f64 {
        match self.rates.get(budget_sms as usize) {
            Some(&r) => r,
            None => interpolate(&self.points, budget_sms),
        }
    }
}

/// Normalized-throughput curves for every `(capacity, benchmark)` pair
/// the fleet can schedule.
#[derive(Debug, Clone, Default)]
pub struct FleetPredictor {
    curves: BTreeMap<(u32, Benchmark), Curve>,
}

/// Visits every curve of `spec` × `benches` in one fixed order —
/// distinct capacities ascending, then `benches` in order — with the
/// base config resized to that capacity and the curve's budget grid.
/// `warm` and `probe_merge` both walk the grid points through it.
fn for_each_curve(
    base: &GpuConfig,
    spec: &FleetSpec,
    benches: &[Benchmark],
    mut visit: impl FnMut(&GpuConfig, u32, Benchmark, &[u32]),
) {
    let caps: BTreeSet<u32> = spec.devices().iter().map(|d| d.num_sms).collect();
    for cap in caps {
        let mut cfg = base.clone();
        cfg.num_sms = cap;
        let grid = budget_grid(cap);
        for &bench in benches {
            visit(&cfg, cap, bench, &grid);
        }
    }
}

impl FleetPredictor {
    /// An empty predictor (no curves; every probe reports misses).
    pub fn new() -> FleetPredictor {
        FleetPredictor::default()
    }

    /// Profiles every `(capacity, bench)` curve for `spec` ×
    /// `benches`. One serial pass answers every grid point the
    /// engine's in-process memo holds, one batched probe per curve
    /// ([`SweepEngine::profile_cycles_memo`], each hit counted as a
    /// cache hit); only the rest fan out across the engine's workers
    /// through the memo cache (disk, then simulation). A second warm on
    /// the same engine therefore spawns nothing, and one with the same
    /// cache directory replays without simulating.
    ///
    /// # Errors
    ///
    /// Propagates the first profiling failure (by grid point).
    pub fn warm(
        engine: &SweepEngine,
        base: &GpuConfig,
        scale: Scale,
        spec: &FleetSpec,
        benches: &[Benchmark],
    ) -> Result<FleetPredictor, CoreError> {
        let mut cycles: Vec<Option<u64>> = Vec::new();
        let mut misses: Vec<(usize, GpuConfig, Benchmark, u32)> = Vec::new();
        for_each_curve(base, spec, benches, |cfg, _, bench, grid| {
            let at = cycles.len();
            engine.profile_cycles_memo(cfg, scale, &Workload::Bench(bench), grid, &mut cycles);
            for (k, &sms) in grid.iter().enumerate() {
                if cycles[at + k].is_none() {
                    misses.push((at + k, cfg.clone(), bench, sms));
                }
            }
        });
        let filled: Vec<u64> = engine.run_parallel(misses.len(), |i| {
            let (_, cfg, bench, sms) = &misses[i];
            engine
                .profile_workload(cfg, scale, &Workload::Bench(*bench), *sms)
                .map(|p| p.cycles)
        })?;
        for ((at, ..), c) in misses.iter().zip(filled) {
            cycles[*at] = Some(c);
        }
        let mut predictor = FleetPredictor::new();
        let mut points = cycles.into_iter().map(|c| c.expect("every point answered"));
        for_each_curve(base, spec, benches, |_, cap, bench, grid| {
            let sampled: Vec<(u32, u64)> = grid
                .iter()
                .map(|&sms| (sms, points.next().expect("one per point")))
                .collect();
            predictor.insert(cap, bench, &sampled);
        });
        Ok(predictor)
    }

    /// Cache-only completion: for every `(capacity, bench)` curve of
    /// `spec` × `benches` not yet held, probes the memo cache for all
    /// its grid points ([`SweepEngine::profile_workload_cached`] —
    /// never simulates, moves no counter) and merges complete curves
    /// in. Returns how many curves are still missing; 0 means the
    /// predictor can serve every rate the allocator will ask for.
    pub fn probe_merge(
        &mut self,
        engine: &SweepEngine,
        base: &GpuConfig,
        scale: Scale,
        spec: &FleetSpec,
        benches: &[Benchmark],
    ) -> usize {
        let mut missing = 0usize;
        for_each_curve(base, spec, benches, |cfg, cap, bench, grid| {
            if self.curves.contains_key(&(cap, bench)) {
                return;
            }
            let sampled: Option<Vec<(u32, u64)>> = grid
                .iter()
                .map(|&sms| {
                    engine
                        .profile_workload_cached(cfg, scale, &Workload::Bench(bench), sms)
                        .map(|p| (sms, p.cycles))
                })
                .collect();
            match sampled {
                Some(s) => self.insert(cap, bench, &s),
                None => missing += 1,
            }
        });
        missing
    }

    /// Builds and stores the rate curve from `(sms, cycles)` samples.
    /// Crate-visible so allocator unit tests can install synthetic
    /// curves.
    pub(crate) fn insert(&mut self, cap: u32, bench: Benchmark, sampled: &[(u32, u64)]) {
        let full_cycles = sampled.last().expect("non-empty grid").1;
        let points: Vec<(u32, f64)> = sampled
            .iter()
            .map(|&(sms, cycles)| (sms, full_cycles as f64 / cycles.max(1) as f64))
            .collect();
        let rates = (0..=cap + 1).map(|s| interpolate(&points, s)).collect();
        self.curves.insert((cap, bench), Curve { points, rates, full_cycles });
    }

    /// Whether the curve for (`capacity`, `bench`) is loaded.
    pub fn has(&self, capacity: u32, bench: Benchmark) -> bool {
        self.curves.contains_key(&(capacity, bench))
    }

    /// Curves currently loaded.
    pub fn len(&self) -> usize {
        self.curves.len()
    }

    /// True while no curve is loaded.
    pub fn is_empty(&self) -> bool {
        self.curves.is_empty()
    }

    /// The loaded curve for (`capacity`, `bench`).
    ///
    /// # Panics
    ///
    /// Panics when the curve was never loaded — allocation must only
    /// run over a complete predictor (that is what
    /// [`FleetPredictor::probe_merge`]'s missing count gates).
    pub(crate) fn curve(&self, capacity: u32, bench: Benchmark) -> &Curve {
        self.curves
            .get(&(capacity, bench))
            .unwrap_or_else(|| panic!("no curve for {bench} at {capacity} SMs"))
    }

    /// Predicted normalized throughput of `bench` with a `budget_sms`
    /// budget on a `capacity`-SM device: exact at grid points, linear
    /// between them, 1.0 at the full device.
    ///
    /// # Panics
    ///
    /// Panics when the curve was never loaded (see
    /// [`FleetPredictor::curve`]).
    pub fn rate(&self, capacity: u32, bench: Benchmark, budget_sms: u32) -> f64 {
        self.curve(capacity, bench).rate(budget_sms)
    }

    /// Alone-run cycles of `bench` on the full `capacity`-SM device —
    /// the reference for STP and ANTT on that device.
    ///
    /// # Panics
    ///
    /// Panics when the curve was never loaded (see
    /// [`FleetPredictor::curve`]).
    pub fn full_cycles(&self, capacity: u32, bench: Benchmark) -> u64 {
        self.curve(capacity, bench).full_cycles
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_ascending_deduped_and_ends_at_capacity() {
        assert_eq!(budget_grid(30), vec![5, 10, 15, 20, 25, 30]);
        assert_eq!(budget_grid(8), vec![1, 2, 4, 5, 6, 8]);
        assert_eq!(budget_grid(1), vec![1]);
        for cap in 1..64 {
            let g = budget_grid(cap);
            assert_eq!(*g.last().unwrap(), cap);
            assert!(g.windows(2).all(|w| w[0] < w[1]));
        }
    }

    #[test]
    fn rate_is_one_at_full_device_and_interpolates_between() {
        let mut p = FleetPredictor::new();
        // Synthetic cycles: halving the SMs doubles the runtime up to a
        // knee, then saturates.
        p.insert(8, Benchmark::Gups, &[(1, 800), (2, 400), (4, 200), (8, 100)]);
        assert!((p.rate(8, Benchmark::Gups, 8) - 1.0).abs() < 1e-12);
        assert!((p.rate(8, Benchmark::Gups, 4) - 0.5).abs() < 1e-12);
        // Linear between samples: rate(6) = midpoint of 0.5 and 1.0.
        assert!((p.rate(8, Benchmark::Gups, 6) - 0.75).abs() < 1e-12);
        assert_eq!(p.full_cycles(8, Benchmark::Gups), 100);
        assert!(p.has(8, Benchmark::Gups));
        assert!(!p.has(15, Benchmark::Gups));
    }

    #[test]
    #[should_panic(expected = "no curve")]
    fn missing_curve_is_a_loud_bug_not_a_guess() {
        FleetPredictor::new().rate(8, Benchmark::Gups, 4);
    }

    /// The dense table is `interpolate` itself: for every capacity
    /// 1–64 and every budget up to two past it (one past the table),
    /// `rate` returns the same bits as interpolating the curve's points.
    #[test]
    fn dense_rates_equal_interpolate_bit_for_bit() {
        let mut rng = gcs_sim::rng::SimRng::seed_from_u64(0x7AB1E);
        let mut p = FleetPredictor::new();
        for cap in 1..=64u32 {
            let samples: Vec<(u32, u64)> = budget_grid(cap)
                .into_iter()
                .map(|s| (s, 1 + rng.gen_range(100_000)))
                .collect();
            p.insert(cap, Benchmark::Gups, &samples);
            let curve = p.curve(cap, Benchmark::Gups);
            assert_eq!(curve.rates.len(), cap as usize + 2);
            for s in 0..=cap + 2 {
                assert_eq!(
                    p.rate(cap, Benchmark::Gups, s).to_bits(),
                    interpolate(&curve.points, s).to_bits(),
                    "capacity {cap}, budget {s}"
                );
            }
        }
    }
}
