//! Heterogeneous multi-GPU fleet allocation with marginal-gain SM
//! budgeting.
//!
//! The fleet runs on `gcs_sched`'s one event loop, `EventCore`, over its
//! devices; this crate supplies what makes them differ:
//!
//! * [`FleetSpec`] / [`DeviceProfile`] — a typed, validated fleet
//!   description with JSON round-trip ([`FleetError`] instead of
//!   panics).
//! * [`FleetPredictor`] — normalized-throughput curves per
//!   `(device capacity, benchmark)` from the memo-cached alone profiles.
//! * [`allocate`] — the Optimus-style marginal-gain allocator: seed
//!   every job at one SM, grant each next SM to the largest predicted
//!   STP gain, deterministic tie-breaking.
//! * [`FleetPolicy`] — the allocator as the epoch policy: *placed*
//!   plans that name each group's device and budgets and may leave jobs
//!   pending for the next round; per-epoch churn; greedy on a cold
//!   predictor cache, `IlpEpoch` on a 1-device fleet.
//! * [`FleetMeasure`] — runs each group on its own device's config.
//! * [`run_fleet`] / [`FleetReport`] — a trace through the loop and its
//!   canonical byte-stable report (per-device utilization, cross-device
//!   STP/ANTT, allocation churn).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod policy;
pub mod predict;
pub mod report;
pub mod run;
pub mod spec;

pub use alloc::{allocate, DeviceAssignment, FleetPlan};
pub use policy::{FleetPolicy, FleetPolicyStats};
pub use predict::FleetPredictor;
pub use report::{FleetDevice, FleetGroup, FleetJob, FleetReport};
pub use run::{run_fleet, FleetMeasure, FleetMode, FleetRunConfig};
pub use spec::{DeviceProfile, FleetError, FleetSpec};
