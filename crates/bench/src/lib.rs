//! # gcs-bench — figure/table regeneration harness
//!
//! One binary per table/figure of the thesis (see `DESIGN.md` §4 for the
//! index). Every binary prints the rows/series the corresponding figure
//! plots, alongside the paper's reference values where the thesis
//! reports them.
//!
//! Shared plumbing lives here: the one parser for the `GCS_*`
//! environment variables (`parse_env`: workload scale, worker threads,
//! memo cache, profiling and the `schedd` knobs) and tiny
//! table-printing helpers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::sync::Arc;

use gcs_core::runner::{Pipeline, RunConfig};
use gcs_core::sweep::SweepEngine;
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

pub mod timing;

/// A `GCS_*` variable set to a value its reader does not accept.
#[derive(Debug, PartialEq)]
struct EnvError {
    /// The variable.
    name: String,
    /// The rejected value.
    value: String,
    /// The values the variable accepts.
    accepted: &'static str,
}

impl fmt::Display for EnvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}={:?} is not accepted; expected {}", self.name, self.value, self.accepted)
    }
}

/// A parsed `GCS_*` setting (see [`parse_env`]).
#[derive(Debug, PartialEq)]
enum EnvValue {
    /// `GCS_SCALE`.
    Scale(Scale),
    /// `GCS_CACHE` and `GCS_PROFILE`: whether the feature is on.
    Switch(bool),
    /// A count; `None` when the variable is unset and the reader's
    /// default applies.
    Count(Option<usize>),
}

/// Parses `value`, the content of environment variable `name` (`None`
/// when unset). Unset always yields the default:
///
/// * `GCS_SCALE`: `full` | `small` | `test` (default `small`);
/// * `GCS_CACHE`: `off` disables the memo cache (default on);
/// * `GCS_PROFILE`: `1` turns phase profiling on (default off);
/// * `GCS_THREADS`, `GCS_SCHED_GPUS`: a positive integer;
/// * `GCS_SCHED_CAPACITY`, `GCS_SCHED_READ_MS`, `GCS_SCHED_REPLAN_SHED`,
///   `GCS_SCHED_ILP_SHED`: a non-negative integer.
///
/// # Errors
///
/// [`EnvError`] naming the variable and what it accepts when `value` is
/// anything else; a malformed value never falls back to the default.
///
/// # Panics
///
/// Panics if `name` is not one of the variables above.
fn parse_env(name: &str, value: Option<&str>) -> Result<EnvValue, EnvError> {
    let count = |min: usize| match value {
        None => Some(EnvValue::Count(None)),
        Some(v) => v.parse().ok().filter(|&n| n >= min).map(|n| EnvValue::Count(Some(n))),
    };
    let (accepted, parsed) = match name {
        "GCS_SCALE" => (
            "full, small or test",
            match value.unwrap_or("small") {
                "full" => Some(EnvValue::Scale(Scale::FULL)),
                "small" => Some(EnvValue::Scale(Scale::SMALL)),
                "test" => Some(EnvValue::Scale(Scale::TEST)),
                _ => None,
            },
        ),
        "GCS_CACHE" => (
            "off, or unset for the cache",
            match value {
                None => Some(EnvValue::Switch(true)),
                Some("off") => Some(EnvValue::Switch(false)),
                Some(_) => None,
            },
        ),
        "GCS_PROFILE" => (
            "1, or unset for no profile",
            match value {
                None => Some(EnvValue::Switch(false)),
                Some("1") => Some(EnvValue::Switch(true)),
                Some(_) => None,
            },
        ),
        "GCS_THREADS" | "GCS_SCHED_GPUS" => ("a positive integer", count(1)),
        "GCS_SCHED_CAPACITY" | "GCS_SCHED_READ_MS" | "GCS_SCHED_REPLAN_SHED"
        | "GCS_SCHED_ILP_SHED" => ("a non-negative integer", count(0)),
        _ => panic!("{name} is not a GCS_* variable parse_env knows"),
    };
    parsed.ok_or_else(|| EnvError {
        name: name.to_string(),
        value: value.unwrap_or_default().to_string(),
        accepted,
    })
}

/// Reads `name` from the environment through [`parse_env`]. A malformed
/// value prints the [`EnvError`] and exits with status 2.
fn env_value(name: &str) -> EnvValue {
    let raw = std::env::var_os(name);
    let value = raw.as_ref().map(|v| v.to_string_lossy());
    parse_env(name, value.as_deref()).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(2)
    })
}

/// Reads count variable `name` (see `parse_env`): `None` when unset.
/// A malformed value exits with status 2.
pub fn env_count(name: &str) -> Option<usize> {
    match env_value(name) {
        EnvValue::Count(n) => n,
        other => unreachable!("{name} parsed as {other:?}"),
    }
}

fn env_switch(name: &str) -> bool {
    match env_value(name) {
        EnvValue::Switch(on) => on,
        other => unreachable!("{name} parsed as {other:?}"),
    }
}

/// Resolves the workload scale from `GCS_SCALE` (default: `small`).
///
/// `full` runs the exact experiment sizes, `small` quarters the work,
/// `test` is only meant for smoke-testing the binaries. Any other value
/// exits with status 2.
pub fn scale_from_env() -> Scale {
    match env_value("GCS_SCALE") {
        EnvValue::Scale(scale) => scale,
        other => unreachable!("GCS_SCALE parsed as {other:?}"),
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
const SWEEP_CACHE_DIR: &str = "results/cache";

/// Whether the invocation asked for a phase-cycle profile: the
/// `--profile` command-line flag on any fig binary, or `GCS_PROFILE=1`
/// in the environment (for harnesses that cannot pass arguments
/// through).
fn profile_requested() -> bool {
    std::env::args().skip(1).any(|a| a == "--profile") || env_switch("GCS_PROFILE")
}

/// A machine-sized [`SweepEngine`] persisting its memo cache under
/// `SWEEP_CACHE_DIR` — the engine every harness binary should share.
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
    let engine = match env_count("GCS_THREADS") {
        Some(n) => SweepEngine::new(n),
        None => SweepEngine::auto(),
    };
    let engine = if env_switch("GCS_CACHE") {
        engine.with_cache_dir(SWEEP_CACHE_DIR)
    } else {
        engine
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
/// cores and every simulation is memoized under `SWEEP_CACHE_DIR`
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
        assert_eq!(parse_env("GCS_SCALE", None), Ok(EnvValue::Scale(Scale::SMALL)));
        assert_eq!(parse_env("GCS_SCALE", Some("test")), Ok(EnvValue::Scale(Scale::TEST)));
    }

    #[test]
    fn unset_variables_keep_their_defaults() {
        assert_eq!(parse_env("GCS_CACHE", None), Ok(EnvValue::Switch(true)));
        assert_eq!(parse_env("GCS_CACHE", Some("off")), Ok(EnvValue::Switch(false)));
        assert_eq!(parse_env("GCS_PROFILE", None), Ok(EnvValue::Switch(false)));
        assert_eq!(parse_env("GCS_THREADS", None), Ok(EnvValue::Count(None)));
        assert_eq!(parse_env("GCS_THREADS", Some("3")), Ok(EnvValue::Count(Some(3))));
        assert_eq!(parse_env("GCS_SCHED_READ_MS", Some("0")), Ok(EnvValue::Count(Some(0))));
    }

    #[test]
    fn malformed_values_are_rejected_not_defaulted() {
        for (name, value) in [
            ("GCS_SCALE", "Test"),
            ("GCS_THREADS", "x"),
            ("GCS_THREADS", "0"),
            ("GCS_CACHE", "of"),
            ("GCS_PROFILE", "yes"),
            ("GCS_SCHED_GPUS", "two"),
            ("GCS_SCHED_GPUS", "0"),
            ("GCS_SCHED_ILP_SHED", "-1"),
        ] {
            let err = parse_env(name, Some(value)).expect_err(value);
            assert_eq!((err.name.as_str(), err.value.as_str()), (name, value));
            let shown = err.to_string();
            assert!(shown.starts_with(&format!("{name}=\"{value}\"")), "{shown}");
            assert!(shown.contains(err.accepted), "{shown}");
        }
    }
}
