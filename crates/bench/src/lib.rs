//! # gcs-bench — figure/table regeneration harness
//!
//! One binary, `repro`, regenerates every table and figure of the thesis
//! as a subcommand (`repro fig41_two_app`; `DESIGN.md` §4 has the index)
//! and runs the scheduler, fleet and trace tools. Every figure prints the
//! rows/series it plots, alongside the paper's reference values where the
//! thesis reports them. Its plumbing — the `GCS_*` environment reader,
//! the argv reader, the shared sweep engine — lives inside the binary.
//!
//! The library holds only [`timing`], the micro-benchmark harness of the
//! `benches/` targets.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod timing;
