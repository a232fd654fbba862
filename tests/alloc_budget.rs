//! Allocation budgets of the warm decision path, counted by a
//! `#[global_allocator]` that tallies allocations per thread (the test
//! harness runs tests on parallel threads; each counts only its own).
//!
//! * A warm memo hit allocates only the value it returns: the two
//!   `Vec`s of a `GroupOutcome`, the name `String` of an `AppProfile`.
//!   No key is formatted, hashed as a string or cloned. A batched
//!   `cycles` probe hit returns no owned value and allocates nothing.
//! * One `IlpEpoch::plan` over the thesis' 14-job census stays within
//!   [`PLAN_BUDGET`] allocations.
//! * One fleet `allocate` over the same census on an 8/15/30-SM fleet
//!   makes exactly [`FLEET_ALLOC_COUNT`] allocations, all outside the
//!   grant loop.
//! * One warm `run_fleet` of the benchmark's `fleet_loop` shape makes
//!   exactly [`FLEET_RUN_COUNT`] allocations.
//!
//! Counts, not times: the suite is deterministic on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::OnceLock;

use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::Pipeline;
use gcs_core::smra::SmraParams;
use gcs_core::sweep::{CorunMode, Workload};
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMode, FleetPredictor, FleetReport, FleetRunConfig,
    FleetSpec,
};
use gcs_sched::{Job, PolicyKind};
use gcs_workloads::{ArrivalTrace, Benchmark};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::{pipeline, shared_pipeline};

/// Allocations (and reallocations) one `IlpEpoch::plan` over census-14
/// may make: the census `Vec`, the ILP problem and its branch & bound
/// nodes, the tableau, and the plan's groups.
const PLAN_BUDGET: u64 = 38;

/// Allocations one fleet `allocate` over census-14 makes on the
/// 8/15/30-SM fleet with groups of two: the per-device SM pools and job
/// counts, the slot table, the deferred list, the device order, and the
/// plan's assignments. The grant loop itself allocates nothing, so
/// this count does not grow with the number of SMs granted. (It was 16
/// while each assignment also listed its jobs' benchmarks.)
const FLEET_ALLOC_COUNT: u64 = 13;

/// Allocations one warm `run_fleet` of the benchmark's `fleet_loop`
/// run makes in a debug build. 330 of them are the `debug_assert_eq!`
/// that re-allocates each of the 30 reused shadow plans; a release
/// build makes 1 504. Before the run moved onto `EventCore` it made
/// 2 119 (1 669 in release), and 2 659 in either build before the
/// first dispatch of an all-free epoch reused the shadow plan, the
/// churn map was made dense, the predictor's probe was batched and
/// group dispatch stopped cloning.
const FLEET_RUN_COUNT: u64 = 1_834;

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

#[test]
fn warm_corun_hit_allocates_only_the_outcome() {
    let p = pipeline(2);
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
    let p = pipeline(2);
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
fn batched_memo_probe_hit_allocates_nothing() {
    let p = pipeline(2);
    let (cfg, scale) = (&p.config().gpu, p.config().scale);
    let w = Workload::Bench(Benchmark::Lud);
    // The pipeline profiled every benchmark on the full device.
    let sms = [cfg.num_sms; 4];
    let mut out = Vec::with_capacity(sms.len());
    let ((), allocs) = counted(|| p.engine().profile_cycles_memo(cfg, scale, &w, &sms, &mut out));
    assert_eq!(out, [Some(p.profile(Benchmark::Lud).cycles); 4]);
    assert_eq!(allocs, 0, "a batched hit reads the stored profile in place");
}

fn census_14_jobs() -> Vec<Job> {
    thesis_queue_14()
        .into_iter()
        .enumerate()
        .map(|(id, bench)| Job {
            id,
            bench,
            arrival: id as u64,
        })
        .collect()
}

/// The benchmark's heterogeneous fleet: 8, 15 and 30 SMs.
fn hetero_8_15_30() -> FleetSpec {
    FleetSpec::new(
        [("gpu8", 8), ("gpu15", 15), ("gpu30", 30)]
            .into_iter()
            .map(|(id, num_sms)| DeviceProfile { id: id.into(), num_sms })
            .collect(),
    )
    .expect("spec")
}

/// The benchmark's `fleet_loop` run: every benchmark, 40 waves of 5
/// every 40 000 cycles, seed 42, the queue as long as the trace.
fn fleet_loop_run() -> (ArrivalTrace, FleetRunConfig) {
    let trace = ArrivalTrace::waves(&Benchmark::ALL, 40, 5, 40_000, 42);
    let cfg = FleetRunConfig {
        queue_capacity: trace.len(),
        mode: FleetMode::MarginalGain,
    };
    (trace, cfg)
}

/// The suite's shared pipeline, with the report of the cold
/// [`fleet_loop_run`] that filled its memo: every curve point of every
/// benchmark on the 8/15/30-SM fleet and every group that run
/// dispatches. Shared so the suite simulates them once; after the cold
/// run every job the pins ask for is a memo hit, so neither changes
/// what the other counts (counts are per thread, and a hit inserts
/// nothing).
fn warm_fleet() -> (&'static Pipeline, &'static FleetReport) {
    static COLD: OnceLock<FleetReport> = OnceLock::new();
    let p = shared_pipeline();
    let cold = COLD.get_or_init(|| {
        let (trace, cfg) = fleet_loop_run();
        run_fleet(p, &hetero_8_15_30(), &cfg, &trace).expect("cold run")
    });
    (p, cold)
}

#[test]
fn ilp_plan_over_census_14_stays_within_budget() {
    let p = pipeline(2);
    let pending = census_14_jobs();
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

#[test]
fn fleet_allocate_over_census_14_allocates_outside_the_grant_loop() {
    let (p, _) = warm_fleet();
    let spec = hetero_8_15_30();
    let pending = census_14_jobs();
    let benches: Vec<Benchmark> = pending.iter().map(|j| j.bench).collect();
    let rc = p.config();
    let predictor =
        FleetPredictor::warm(p.engine(), &rc.gpu, rc.scale, &spec, &benches).expect("warm");
    let free = [0, 1, 2];
    let first = allocate(&predictor, &spec, &pending, &free, 2);
    let (plan, allocs) = counted(|| allocate(&predictor, &spec, &pending, &free, 2));
    assert_eq!(plan, first, "allocation is deterministic");
    assert_eq!(plan.placed(), 6, "three devices, two jobs each");
    let granted: u32 = plan.assignments.iter().flat_map(|a| &a.budgets).sum();
    assert_eq!(
        allocs, FLEET_ALLOC_COUNT,
        "allocate over census-14 made {allocs} allocations ({granted} SMs granted)"
    );
}

#[test]
fn warm_fleet_run_allocations_are_pinned() {
    let (p, cold) = warm_fleet();
    let (trace, cfg) = fleet_loop_run();
    let spec = hetero_8_15_30();
    let (warm, allocs) = counted(|| run_fleet(p, &spec, &cfg, &trace));
    assert_eq!(&warm.expect("warm run"), cold, "a warm run replays the cold one");
    assert_eq!(
        allocs, FLEET_RUN_COUNT,
        "a warm fleet_loop run_fleet made {allocs} allocations"
    );
}
