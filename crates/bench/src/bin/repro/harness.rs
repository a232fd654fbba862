//! Plumbing every subcommand shares: the sweep engine and measurement
//! pipeline built from the `GCS_*` knobs, the phase-profile line and
//! the table-printing helpers.

use std::collections::BTreeMap;
use std::sync::Arc;

use gcs_core::runner::{Pipeline, QueueReport, RunConfig};
use gcs_core::sweep::{SweepEngine, SweepStats};
use gcs_sim::config::GpuConfig;
use gcs_workloads::Benchmark;

use crate::env::{cache_enabled, env_count, scale_from_env};

/// Directory where the sweep engine persists memoized simulation
/// results (one small JSON file per profile/co-run job).
const SWEEP_CACHE_DIR: &str = "results/cache";

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio as a percent delta against a baseline of 1.0
/// (`1.36` → `"+36.0%"`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// A machine-sized [`SweepEngine`] persisting its memo cache under
/// `SWEEP_CACHE_DIR` — the engine every subcommand shares. Delete the
/// cache directory after changing the simulator or the workload models,
/// or set `GCS_CACHE=off` to bypass it for one run (`scripts/bench.sh`
/// times truly cold sweeps that way). With `profile` the engine also
/// collects per-phase device cycles for every job it simulates; cached
/// jobs contribute no cycles, so profile a cold sweep (`GCS_CACHE=off`)
/// to see the full picture. `GCS_THREADS=n` pins the worker count (the
/// profile line is byte-stable at any value; `scripts/ci.sh
/// --profile-smoke` sweeps it to prove that). Parallelism is across
/// jobs only: each simulation steps on one thread.
pub fn engine(profile: bool) -> SweepEngine {
    let engine = match env_count("GCS_THREADS") {
        Some(n) => SweepEngine::new(n),
        None => SweepEngine::auto(),
    };
    let engine = if cache_enabled() {
        engine.with_cache_dir(SWEEP_CACHE_DIR)
    } else {
        engine
    };
    engine.with_phase_profiling(profile)
}

/// Prints the deterministic phase-cycle line of `stats` when `profile`
/// is set. Call it last so the line covers every job the run simulated;
/// it is byte-stable at any worker thread count (pure cycle counters,
/// no wall-clock).
pub fn report_profile(stats: &SweepStats, profile: bool) {
    if profile {
        println!("{}", stats.profile_report());
    }
}

/// Builds the full measurement pipeline (suite profiling + interference
/// matrix) for `concurrency` co-running applications on the GTX 480
/// model at the environment-selected scale.
///
/// This is the expensive, shared prologue of every chapter-4 figure;
/// each subcommand builds it once and reuses it across policies. The
/// sweep (14 alone profiles + 105 pair co-runs) fans out across the
/// machine's cores and every simulation is memoized under
/// `SWEEP_CACHE_DIR` keyed by device config, scale and workload, so
/// repeated invocations re-simulate nothing — the printed `[setup]`
/// sweep line shows exactly how many jobs came from the cache.
///
/// # Panics
///
/// Panics if profiling or interference measurement fails — the harness
/// has no useful way to continue.
pub fn build_pipeline(concurrency: u32, profile: bool) -> Pipeline {
    let cfg = RunConfig {
        gpu: GpuConfig::gtx480(),
        scale: scale_from_env(),
        concurrency,
    };
    let engine = Arc::new(engine(profile));
    println!(
        "[setup] profiling suite + measuring interference (scale {:?}; {} threads; cache {}) ...",
        cfg.scale,
        engine.threads(),
        SWEEP_CACHE_DIR,
    );
    let pipeline = Pipeline::new_with_engine(cfg, engine).expect("pipeline construction");
    println!("[setup] {}", pipeline.sweep_stats());
    pipeline
}

/// The 12-application queue of §4.2 (three-application execution):
/// the suite minus RAY and NN, matching the groups shown in Fig 4.10.
pub fn queue_12() -> Vec<Benchmark> {
    gcs_core::queues::thesis_queue_14()
        .into_iter()
        .filter(|b| !matches!(b, Benchmark::Ray | Benchmark::Nn))
        .collect()
}

/// Average IPC per benchmark over a queue run.
pub fn per_bench(report: &QueueReport) -> BTreeMap<Benchmark, f64> {
    report.per_bench_ipc().into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_deltas() {
        assert_eq!(pct(1.36), "+36.0%");
        assert_eq!(pct(0.9), "-10.0%");
    }
}
