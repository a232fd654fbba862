//! # gcs-bench — figure/table regeneration harness
//!
//! One binary per table/figure of the thesis (see `DESIGN.md` §4 for the
//! index). Every binary prints the rows/series the corresponding figure
//! plots, alongside the paper's reference values where the thesis
//! reports them.
//!
//! Shared plumbing lives here: workload-scale selection via the
//! `GCS_SCALE` environment variable (`full`, `small`, `test`) and tiny
//! table-printing helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::Arc;

use gcs_core::runner::{Pipeline, RunConfig};
use gcs_core::sweep::SweepEngine;
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

pub mod timing;

/// Resolves the workload scale from `GCS_SCALE` (default: `small`).
///
/// `full` runs the exact experiment sizes, `small` quarters the work,
/// `test` is only meant for smoke-testing the binaries.
pub fn scale_from_env() -> Scale {
    match std::env::var("GCS_SCALE").as_deref() {
        Ok("full") => Scale::FULL,
        Ok("test") => Scale::TEST,
        _ => Scale::SMALL,
    }
}

/// Prints a section header.
pub fn header(title: &str) {
    println!("\n=== {title} ===");
}

/// Formats a ratio as a percent delta against a baseline of 1.0
/// (`1.36` → `"+36.0%"`).
pub fn pct(ratio: f64) -> String {
    format!("{:+.1}%", (ratio - 1.0) * 100.0)
}

/// Directory where the sweep engine persists memoized simulation
/// results (one small JSON file per profile/co-run job).
pub const SWEEP_CACHE_DIR: &str = "results/cache";

/// Whether the invocation asked for a phase-cycle profile: the
/// `--profile` command-line flag on any fig binary, or `GCS_PROFILE=1`
/// in the environment (for harnesses that cannot pass arguments
/// through).
pub fn profile_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--profile")
        || std::env::var("GCS_PROFILE").as_deref() == Ok("1")
}

/// A machine-sized [`SweepEngine`] persisting its memo cache under
/// [`SWEEP_CACHE_DIR`] — the engine every harness binary should share.
/// Delete the cache directory after changing the simulator or the
/// workload models, or set `GCS_CACHE=off` to bypass it for one run
/// (used by `scripts/bench.sh` to time truly cold sweeps). With
/// `--profile` (or `GCS_PROFILE=1`) the engine also collects per-phase
/// device cycles for every job it simulates; note cached jobs
/// contribute no cycles, so profile a cold sweep (`GCS_CACHE=off`) to
/// see the full picture. `GCS_THREADS=n` pins the worker count (the
/// profile line is byte-stable at any value; `scripts/ci.sh
/// --profile-smoke` sweeps it to prove that). Parallelism is across
/// jobs only: each simulation steps on one thread.
pub fn default_engine() -> SweepEngine {
    let engine = match std::env::var("GCS_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        Some(n) => SweepEngine::new(n),
        None => SweepEngine::auto(),
    };
    let engine = if std::env::var("GCS_CACHE").as_deref() == Ok("off") {
        engine
    } else {
        engine.with_cache_dir(SWEEP_CACHE_DIR)
    };
    engine.with_phase_profiling(profile_requested())
}

/// Prints the deterministic phase-cycle report when profiling was
/// requested; a no-op otherwise. Call at the end of a fig binary so the
/// report covers every job the run simulated. The line is byte-stable
/// at any worker thread count (pure cycle counters, no wall-clock).
pub fn report_profile(pipeline: &Pipeline) {
    if profile_requested() {
        println!("{}", pipeline.sweep_stats().profile_report());
    }
}

/// Builds the full measurement pipeline (suite profiling + interference
/// matrix) for `concurrency` co-running applications on the GTX 480
/// model at the environment-selected scale.
///
/// This is the expensive, shared prologue of every chapter-4 figure;
/// each binary builds it once and reuses it across policies. The sweep
/// (14 alone profiles + 105 pair co-runs) fans out across the machine's
/// cores and every simulation is memoized under [`SWEEP_CACHE_DIR`]
/// keyed by device config, scale and workload, so repeated harness
/// invocations re-simulate nothing — the printed [`gcs_core::SweepStats`] line
/// shows exactly how many jobs came from the cache.
///
/// # Panics
///
/// Panics if profiling or interference measurement fails — the harness
/// has no useful way to continue.
pub fn build_pipeline(concurrency: u32) -> Pipeline {
    let cfg = RunConfig {
        gpu: GpuConfig::gtx480(),
        scale: scale_from_env(),
        concurrency,
    };
    let engine = Arc::new(default_engine());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pct_formats_deltas() {
        assert_eq!(pct(1.36), "+36.0%");
        assert_eq!(pct(0.9), "-10.0%");
    }

    #[test]
    fn default_scale_is_small() {
        // Do not mutate the environment (tests run in parallel); only
        // check the default path when the variable is absent.
        if std::env::var("GCS_SCALE").is_err() {
            assert_eq!(scale_from_env(), Scale::SMALL);
        }
    }
}
