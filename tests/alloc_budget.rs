//! Allocation budgets of the warm decision path, counted by a
//! `#[global_allocator]` that tallies allocations per thread (the test
//! harness runs tests on parallel threads; each counts only its own).
//!
//! * A warm memo hit allocates only the value it returns: the two
//!   `Vec`s of a `GroupOutcome`, the name `String` of an `AppProfile`.
//!   No key is formatted, hashed as a string or cloned.
//! * One `IlpEpoch::plan` over the thesis' 14-job census stays within
//!   [`PLAN_BUDGET`] allocations.
//!
//! Counts, not times: the suite is deterministic on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use gcs_core::interference::InterferenceMatrix;
use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::{Pipeline, RunConfig};
use gcs_core::smra::SmraParams;
use gcs_core::sweep::{CorunMode, SweepEngine, Workload};
use gcs_sched::{Job, PolicyKind};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

/// Allocations (and reallocations) one `IlpEpoch::plan` over census-14
/// may make: the census `Vec`, the ILP problem and its branch & bound
/// nodes, the tableau, and the plan's groups.
const PLAN_BUDGET: u64 = 38;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every call forwards to `System` unchanged; the counter is a
// const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f` and returns its value with the allocations it made on this
/// thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let v = f();
    (v, ALLOCS.with(Cell::get) - before)
}

fn pipeline() -> Pipeline {
    let cfg = RunConfig {
        gpu: GpuConfig::test_small(),
        scale: Scale::TEST,
        concurrency: 2,
    };
    Pipeline::with_matrix_and_engine(
        cfg,
        InterferenceMatrix::synthetic_paper_shape(),
        Arc::new(SweepEngine::sequential()),
    )
    .expect("pipeline")
}

#[test]
fn warm_corun_hit_allocates_only_the_outcome() {
    let p = pipeline();
    let (cfg, scale) = (&p.config().gpu, p.config().scale);
    let group = [
        Workload::Bench(Benchmark::Gups),
        Workload::Bench(Benchmark::Sad),
    ];
    for mode in [
        CorunMode::Even,
        CorunMode::Counts(vec![3, 5]),
        CorunMode::Smra(SmraParams::for_device(cfg.num_sms, 2)),
    ] {
        let cold = p
            .engine()
            .corun_workloads(cfg, scale, &group, &mode)
            .unwrap();
        let (warm, allocs) = counted(|| p.engine().corun_workloads(cfg, scale, &group, &mode));
        assert_eq!(warm.unwrap(), cold, "{mode:?}");
        assert_eq!(
            allocs, 2,
            "{mode:?}: a hit allocates `cycles` and `thread_insts` only"
        );
    }
}

#[test]
fn warm_profile_hit_allocates_only_the_name() {
    let p = pipeline();
    let (cfg, scale) = (&p.config().gpu, p.config().scale);
    let w = Workload::Bench(Benchmark::Lud);
    // The pipeline profiled every benchmark on the full device.
    let (warm, allocs) = counted(|| p.engine().profile_workload(cfg, scale, &w, cfg.num_sms));
    assert_eq!(&warm.unwrap(), p.profile(Benchmark::Lud));
    assert_eq!(allocs, 1, "a hit allocates the profile's name only");
    let stats = p.sweep_stats();
    assert_eq!(stats.jobs_total, stats.jobs_simulated + stats.jobs_cached);
}

#[test]
fn ilp_plan_over_census_14_stays_within_budget() {
    let p = pipeline();
    let pending: Vec<Job> = thesis_queue_14()
        .into_iter()
        .enumerate()
        .map(|(id, bench)| Job {
            id,
            bench,
            arrival: id as u64,
        })
        .collect();
    let mut policy = PolicyKind::IlpEpoch.build();
    let first = policy.plan(&p, &pending).unwrap();
    let (plan, allocs) = counted(|| policy.plan(&p, &pending));
    let plan = plan.unwrap();
    assert_eq!(plan.groups, first.groups, "planning is deterministic");
    assert_eq!(plan.groups.len(), 7);
    assert!(
        allocs <= PLAN_BUDGET,
        "IlpEpoch::plan over census-14 made {allocs} allocations, budget {PLAN_BUDGET}"
    );
}
