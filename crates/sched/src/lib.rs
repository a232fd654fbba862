//! # gcs-sched — online arrival-driven scheduling
//!
//! The thesis (and [`gcs_core::runner::Pipeline::run_queue`]) solves a
//! *static* queue once: all `Nq` applications are known up front, the
//! ILP partitions them into co-run groups, and the groups execute
//! back-to-back. Production GPU clusters do not work like that — jobs
//! arrive continuously, the queue composition changes while groups are
//! mid-flight, and tail latency matters as much as raw throughput.
//!
//! This crate lifts the paper's one-shot batch formulation into a
//! discrete-event, arrival-driven scheduler:
//!
//! * **Arrival traces** ([`gcs_workloads::ArrivalTrace`]) feed jobs into
//!   a bounded [`AdmissionQueue`]; arrivals that would overflow it are
//!   rejected with a typed [`Rejection`] (backpressure, never silent
//!   drops).
//! * At each **epoch** — a group completion freeing a device, or an
//!   optional fixed re-plan interval — the scheduler consults a
//!   pluggable [`Policy`] ([`Fcfs`], [`GreedyClass`], [`IlpEpoch`]) to
//!   form the next co-run group(s) over the *current* queue census.
//!   [`IlpEpoch`] re-solves the paper's grouping ILP (degrading to the
//!   class-aware greedy pairing exactly as the batch pipeline does);
//!   plans are re-derived whenever admissions change the census.
//! * Groups dispatch onto `num_gpus` simulated devices through the
//!   existing memoized [`SweepEngine`](gcs_core::SweepEngine) path, so
//!   every co-run is bit-identical to what the batch pipeline would
//!   measure — and the degenerate trace (everything at `t = 0`, one
//!   GPU, [`IlpEpoch`]) reproduces [`Pipeline::run_queue`] exactly
//!   (`tests/sched.rs` pins this).
//! * The run produces a [`SchedReport`]: per-job queueing delay and
//!   completion time, p50/p95/p99 latency, makespan, STP and ANTT —
//!   the numbers `schedd_sim` compares across policies.
//!
//! ## Quick start
//!
//! ```no_run
//! use gcs_core::interference::InterferenceMatrix;
//! use gcs_core::runner::{AllocationPolicy, Pipeline, RunConfig};
//! use gcs_sched::{OnlineScheduler, PolicyKind, SchedConfig};
//! use gcs_sim::config::GpuConfig;
//! use gcs_workloads::{ArrivalTrace, Benchmark, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let cfg = RunConfig { gpu: GpuConfig::gtx480(), scale: Scale::SMALL, concurrency: 2 };
//! let mut pipeline = Pipeline::with_matrix(cfg, InterferenceMatrix::synthetic_paper_shape())?;
//! let trace = ArrivalTrace::poisson(&Benchmark::ALL, 20, 50_000.0, 42);
//! let mut policy = PolicyKind::IlpEpoch.build();
//! let report = OnlineScheduler::new(&mut pipeline, SchedConfig::default())?
//!     .run(&trace, policy.as_mut())?;
//! println!("p99 queue delay: {} cycles, STP {:.2}", report.queue_delay_stats().p99, report.stp());
//! # Ok(())
//! # }
//! ```
//!
//! [`Pipeline::run_queue`]: gcs_core::runner::Pipeline::run_queue

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod client;
pub mod daemon;
pub mod policy;
pub mod proto;
pub mod queue;
pub mod report;
pub mod scheduler;
pub mod transport;

pub use client::{RetryConfig, SchedClient};
pub use daemon::{DaemonConfig, DaemonCore, EventCore, Measure, OverloadPolicy, Split};
pub use policy::{Fcfs, GreedyClass, IlpEpoch, Placement, Plan, Policy, PolicyKind};
pub use proto::{ProtoError, Request, Response};
pub use queue::{AdmissionQueue, Job, JobId, Rejection};
pub use report::{GroupDispatch, JobFailure, JobOutcome, LatencyStats, SchedReport};
pub use scheduler::{OnlineScheduler, SchedConfig};
pub use transport::{
    virtual_link, virtual_pair, FaultSpec, FaultyTransport, Listener, TcpAcceptor, TcpTransport,
    Transport, TransportError, VirtualConnector, VirtualListener, VirtualSocket,
};

use gcs_core::CoreError;

/// Errors surfaced by the online scheduler.
#[derive(Debug)]
pub enum SchedError {
    /// The underlying measurement pipeline failed.
    Core(CoreError),
    /// The scheduler configuration is unusable (zero devices, ...).
    BadConfig(String),
    /// Jobs are waiting but no policy plan can dispatch them and no
    /// future event exists to change that — the run would hang.
    Stalled {
        /// Jobs stuck in the admission queue.
        waiting: usize,
        /// Simulated cycle at which progress stopped.
        at: u64,
    },
}

impl std::fmt::Display for SchedError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedError::Core(e) => write!(f, "pipeline failed: {e}"),
            SchedError::BadConfig(why) => write!(f, "bad scheduler config: {why}"),
            SchedError::Stalled { waiting, at } => {
                write!(f, "scheduler stalled at cycle {at} with {waiting} jobs waiting")
            }
        }
    }
}

impl std::error::Error for SchedError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SchedError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for SchedError {
    fn from(e: CoreError) -> Self {
        SchedError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_display_and_chain() {
        let e = SchedError::from(CoreError::BadQueue("x".into()));
        assert!(e.to_string().contains("pipeline failed"));
        assert!(std::error::Error::source(&e).is_some());
        let s = SchedError::Stalled { waiting: 3, at: 17 };
        assert!(s.to_string().contains("3 jobs"));
        assert!(std::error::Error::source(&s).is_none());
        let b = SchedError::BadConfig("no gpus".into());
        assert!(b.to_string().contains("no gpus"));
    }
}
