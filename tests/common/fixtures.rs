//! Pipeline and profile fixtures shared by the integration suites
//! (pulled in with `#[path]`; test-only, nothing here ships in product
//! code): the small-device run configuration, a pipeline over the
//! paper-shaped synthetic matrix, one such pipeline a suite's tests
//! share, and an `AppProfile` as raw bits.
#![allow(dead_code)]

use std::sync::{Arc, OnceLock};

use gcs_core::interference::InterferenceMatrix;
use gcs_core::profile::AppProfile;
use gcs_core::runner::{Pipeline, RunConfig};
use gcs_core::SweepEngine;
use gcs_sim::config::GpuConfig;
use gcs_workloads::Scale;

/// `test_small` at `Scale::TEST`, `concurrency` apps per group.
pub fn run_config(concurrency: u32) -> RunConfig {
    RunConfig {
        gpu: GpuConfig::test_small(),
        scale: Scale::TEST,
        concurrency,
    }
}

/// A pipeline over [`run_config`] and the paper-shaped synthetic
/// interference matrix, simulating through `engine`.
pub fn pipeline_with_engine(concurrency: u32, engine: Arc<SweepEngine>) -> Pipeline {
    Pipeline::with_matrix_and_engine(
        run_config(concurrency),
        InterferenceMatrix::synthetic_paper_shape(),
        engine,
    )
    .expect("pipeline")
}

/// [`pipeline_with_engine`] on the sequential engine.
pub fn pipeline(concurrency: u32) -> Pipeline {
    pipeline_with_engine(concurrency, Arc::new(SweepEngine::sequential()))
}

/// The one pipeline the tests of a suite share, over the parallel
/// engine: a job one of them simulated is a memo hit for the rest, so
/// the suite simulates each job once. Its counters move with every test
/// that runs, so a test asserting engine counters builds its own.
pub fn shared_pipeline() -> &'static Pipeline {
    static SHARED: OnceLock<Pipeline> = OnceLock::new();
    SHARED.get_or_init(|| pipeline_with_engine(2, Arc::new(SweepEngine::auto())))
}

/// Every field of `p` as raw bits, for exact comparisons.
pub fn profile_bits(p: &AppProfile) -> (String, [u64; 5], u64, u64, u32) {
    (
        p.name.clone(),
        [
            p.memory_bw.to_bits(),
            p.l2_l1_bw.to_bits(),
            p.ipc.to_bits(),
            p.r.to_bits(),
            p.utilization.to_bits(),
        ],
        p.cycles,
        p.thread_insts,
        p.num_sms,
    )
}
