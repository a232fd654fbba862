//! # gcs-sim — a cycle-level GPU simulator for spatial multitasking
//!
//! This crate stands in for the modified GPGPU-Sim the thesis evaluated
//! on (repro substitution documented in `DESIGN.md`). It models a GTX
//! 480-class device — streaming multiprocessors with GTO/LRR warp
//! scheduling and private L1s, a banked shared L2, and FR-FCFS memory
//! controllers — with first-class support for the experiments the paper
//! runs:
//!
//! * **Spatial partitioning**: SMs are assigned to applications; all
//!   partitions share the L2 and the DRAM channels, which is where
//!   inter-application interference arises.
//! * **Drain-based SM migration**: an SM can be handed to another app
//!   once its resident blocks finish — the third (cheapest) reallocation
//!   mechanism of §3.2.4, which the SMRA controller relies on.
//! * **Per-application profiling**: thread-IPC, DRAM bandwidth, L2→L1
//!   bandwidth and memory-to-compute ratio, the four signals of the
//!   classifier (Table 3.1).
//!
//! Kernels are synthetic ([`kernel::KernelDesc`]): a loop body of ALU /
//! SFU / load / store ops plus parameterized address patterns. The
//! companion `gcs-workloads` crate provides fourteen models calibrated
//! to the Rodinia profile table of the thesis.
//!
//! ## Quick start
//!
//! ```
//! use gcs_sim::config::GpuConfig;
//! use gcs_sim::gpu::Gpu;
//! use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId};
//!
//! # fn main() -> Result<(), gcs_sim::gpu::SimError> {
//! let mut gpu = Gpu::new(GpuConfig::test_small())?;
//! let app = gpu.launch(KernelDesc {
//!     name: "stream".into(),
//!     grid_blocks: 16,
//!     warps_per_block: 2,
//!     iters_per_warp: 32,
//!     body: vec![Op::Load(PatternId(0)), Op::Alu { latency: 4 }],
//!     patterns: vec![AccessPattern::streaming(4 << 20)],
//!     active_lanes: 32,
//! })?;
//! gpu.partition_even();
//! gpu.run(10_000_000)?;
//! let stats = gpu.stats().app(app);
//! println!("IPC = {:.1}", stats.thread_ipc());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod fault;
pub mod gpu;
pub mod kernel;
pub mod memsys;
pub mod rng;
pub mod sched;
pub mod shard;
pub mod sm;
pub mod stats;
pub mod trace;
pub mod trace_fmt;
pub mod warp;
pub mod wire;

pub use config::GpuConfig;
pub use fault::{FaultEvent, FaultKind, FaultPlan};
pub use gpu::{Gpu, SimError, StepMode};
pub use shard::ShardPlan;
pub use kernel::{AccessPattern, AppId, KernelDesc, Op, PatternId, PatternKind};
pub use trace_fmt::{KernelTrace, TraceBuilder, TraceFmtError, TraceRecorder};
pub use stats::{AppStats, DiagSnapshot, SimStats, SliceDiag, SmDiag};
