//! # gcs-core — throughput optimization and resource allocation on GPUs
//! under multi-application execution
//!
//! A faithful reproduction of Punyala's methodology (SIU M.S. thesis,
//! Dec 2017 / DATE 2018): pick *which* applications co-run on a
//! spatially-partitioned GPU, and *how many* SMs each gets, so device
//! throughput is maximized.
//!
//! The pipeline has four stages, one module each:
//!
//! 1. [`profile`] — run each application alone, measure DRAM bandwidth,
//!    L2→L1 bandwidth, IPC and memory-to-compute ratio (§3.2.1).
//! 2. [`classify()`] — bin applications into classes M / MC / C / A
//!    (Table 3.1).
//! 3. [`interference`] + [`pattern`] + [`ilp`] — measure per-class co-run
//!    slowdowns (Fig 3.4), enumerate class patterns, and solve the ILP of
//!    Eq. 3.3–3.7 for the pattern multiplicities that minimize contention
//!    (§3.2.3).
//! 4. [`smra`] — the dynamic SM reallocation controller of Algorithm 1
//!    (§3.2.4).
//!
//! [`runner`] executes whole application queues under every policy the
//! evaluation compares (Even / FCFS / Profile-based / ILP / ILP+SMRA) and
//! is what the figure-regeneration harness in `gcs-bench` drives. All
//! measurement runs flow through [`sweep`], which fans the independent
//! simulations across worker threads (deterministically — results are
//! keyed by job index) and memoizes them in memory and on disk.
//!
//! ## Quick start
//!
//! ```no_run
//! use gcs_core::runner::{run_queue, AllocationPolicy, GroupingPolicy, RunConfig};
//! use gcs_sim::config::GpuConfig;
//! use gcs_workloads::{Benchmark, Scale};
//!
//! # fn main() -> Result<(), gcs_core::CoreError> {
//! let queue: Vec<Benchmark> = Benchmark::ALL.to_vec();
//! let cfg = RunConfig {
//!     gpu: GpuConfig::gtx480(),
//!     scale: Scale::SMALL,
//!     concurrency: 2,
//! };
//! let report = run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Smra, &cfg)?;
//! println!("device throughput: {:.1} IPC", report.device_throughput);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod classify;
pub mod fault;
pub mod ilp;
pub mod interference;
pub mod latency;
pub mod pattern;
pub mod profile;
pub mod queues;
pub mod runner;
pub mod smra;
pub mod sweep;

pub use classify::{classify, classify_suite, AppClass, Thresholds};
pub use fault::Degradation;
pub use interference::InterferenceMatrix;
pub use latency::{NanoStats, WindowedNanoStats};
pub use profile::AppProfile;
pub use sweep::{SweepEngine, SweepStats, Workload};

use std::error::Error;
use std::fmt;

/// Errors surfaced by the scheduling pipeline.
#[derive(Debug)]
pub enum CoreError {
    /// The underlying simulator failed.
    Sim(gcs_sim::SimError),
    /// The ILP solver failed.
    Milp(gcs_milp::SolveError),
    /// The queue cannot be grouped as requested (length, classes, ...).
    BadQueue(String),
    /// A sweep worker died (panicked) while simulating a job.
    Worker {
        /// Index of the job whose worker died.
        job: usize,
        /// Panic payload (or a placeholder for non-string payloads).
        message: String,
    },
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Sim(e) => write!(f, "simulation failed: {e}"),
            CoreError::Milp(e) => write!(f, "ilp solve failed: {e}"),
            CoreError::BadQueue(why) => write!(f, "bad queue: {why}"),
            CoreError::Worker { job, message } => {
                write!(f, "worker for job {job} panicked: {message}")
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Sim(e) => Some(e),
            CoreError::Milp(e) => Some(e),
            CoreError::BadQueue(_) => None,
            CoreError::Worker { .. } => None,
        }
    }
}

impl From<gcs_sim::SimError> for CoreError {
    fn from(e: gcs_sim::SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<gcs_milp::SolveError> for CoreError {
    fn from(e: gcs_milp::SolveError) -> Self {
        CoreError::Milp(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_chain() {
        let e = CoreError::from(gcs_sim::SimError::Timeout {
            cycle: 1,
            diag: Default::default(),
        });
        assert!(e.to_string().contains("simulation failed"));
        assert!(e.source().is_some());
        let b = CoreError::BadQueue("x".into());
        assert!(b.source().is_none());
        let w = CoreError::Worker {
            job: 3,
            message: "boom".into(),
        };
        assert!(w.to_string().contains("job 3"));
        assert!(w.source().is_none());
    }
}
