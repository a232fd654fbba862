//! Allocation budgets of the warm decision path, counted by a
//! `#[global_allocator]` that tallies allocations per thread (the test
//! harness runs tests on parallel threads; each counts only its own).
//!
//! * A warm memo hit allocates only the value it returns: the two
//!   `Vec`s of a `GroupOutcome`, the name `String` of an `AppProfile`.
//!   No key is formatted, hashed as a string or cloned. A co-run hit
//!   read in place (`corun_with`, `Pipeline::run_group_into`) and a
//!   batched `cycles` probe hit return no owned value and allocate
//!   nothing, with a trace member too: a seen trace interns by pointer,
//!   not by re-encoding and fingerprinting its payload. So does a
//!   one-app `Even` group, read from the outcome its full-device
//!   profile entry keeps.
//! * One `IlpEpoch::plan` over the thesis' 14-job census stays within
//!   [`PLAN_BUDGET`] allocations; one over a single group's census
//!   (no solve) allocates only its `Plan`.
//! * A warm grouping solve that branches allocates only the values it
//!   returns: the solver's tableau, node stack and incumbent live in a
//!   reused per-thread workspace.
//! * A warm 200-arrival `EventCore` session under `IlpEpoch`, on a stub
//!   `Measure` that simulates nothing, makes exactly
//!   [`SESSION_COUNT`] allocations; on the real `Pipeline` over two
//!   devices, exactly [`PIPELINE_SESSION_COUNT`], none of them per
//!   group.
//! * One fleet `allocate` over the same census on an 8/15/30-SM fleet
//!   makes exactly [`FLEET_ALLOC_COUNT`] allocations, all outside the
//!   grant loop.
//! * One warm `run_fleet` of the benchmark's `fleet_loop` shape makes
//!   exactly [`FLEET_RUN_COUNT`] allocations.
//!
//! Counts, not times: the suite is deterministic on any host.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, OnceLock};

use gcs_core::ilp::build_problem;
use gcs_core::pattern::enumerate_patterns;
use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::{AllocationPolicy, AppRun, GroupResult, Pipeline};
use gcs_core::CoreError;
use gcs_core::smra::SmraParams;
use gcs_core::sweep::{CorunMode, GroupOutcome, Workload};
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMode, FleetPredictor, FleetReport, FleetRunConfig,
    FleetSpec,
};
use gcs_sched::{
    AdmissionQueue, EventCore, Job, Measure, OverloadPolicy, Plan, Policy, PolicyKind,
    SchedConfig, SchedReport, Split,
};
use gcs_workloads::{ArrivalTrace, Benchmark};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::{pipeline, pipeline_with_engine, shared_pipeline};

/// Allocations (and reallocations) one `IlpEpoch::plan` over census-14
/// may make: the solver's returned values and the plan's groups. It was
/// 38 while each plan built its ILP problem, cloned it per branch & bound
/// node, allocated a tableau per node and mapped benchmark groups back
/// to job ids.
const PLAN_BUDGET: u64 = 9;

/// Allocations of one warm 200-arrival `EventCore` + `IlpEpoch` session
/// on [`StubMeasure`]: admissions, plans, dispatch and the drained
/// report, in either build. It was 508 while the stub answered each of
/// the session's 110 groups with a fresh `Vec` of runs (the kept result
/// allocates once), and 617 while each group was also taken out of the
/// queue into a fresh `Vec`.
const SESSION_COUNT: u64 = 399;

/// Allocations of the same session shape on the real `Pipeline` over
/// two devices, in either build: 129 groups, none of which allocates.
/// It was 882 while each group allocated four times — the member
/// `Vec<Workload>`, the memo hit's cloned `GroupOutcome` (two `Vec`s)
/// and the returned `GroupResult`'s runs — less the one allocation of
/// the kept result.
const PIPELINE_SESSION_COUNT: u64 = 367;

/// Allocations one fleet `allocate` over census-14 makes on the
/// 8/15/30-SM fleet with groups of two: the per-device SM pools and job
/// counts, the slot table, the deferred list, the device order, and the
/// plan's assignments. The grant loop itself allocates nothing, so
/// this count does not grow with the number of SMs granted. (It was 16
/// while each assignment also listed its jobs' benchmarks.)
const FLEET_ALLOC_COUNT: u64 = 13;

/// Allocations one warm `run_fleet` of the benchmark's `fleet_loop`
/// run makes, per build: a debug build adds 330, the `debug_assert_eq!`
/// that re-allocates each of the 30 reused shadow plans. It was 1 666
/// (1 336 in release) while each of the run's 120 groups allocated
/// three times — the memo hit's cloned `GroupOutcome` (two `Vec`s) and
/// the returned `GroupResult`'s runs — less the one allocation of the
/// kept result. It was 1 785 (1 455) while each dispatched group was
/// taken out of the queue into a fresh `Vec`, and 1 834 (1 504) while
/// every plan copied the pending queue into a fresh `Vec`. Before the
/// run moved onto `EventCore` it made 2 119 (1 669), and 2 659 in
/// either build before the first dispatch of an all-free epoch reused
/// the shadow plan, the churn map was made dense, the predictor's probe
/// was batched and group dispatch stopped cloning.
const FLEET_RUN_COUNT: u64 = if cfg!(debug_assertions) { 1_307 } else { 977 };

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
        let corun = || {
            p.engine()
                .corun_with(cfg, scale, group.iter(), &mode, GroupOutcome::clone)
        };
        let cold = corun().unwrap();
        let (warm, allocs) = counted(corun);
        assert_eq!(warm.unwrap(), cold, "{mode:?}");
        assert_eq!(
            allocs, 2,
            "{mode:?}: a hit allocates `cycles` and `thread_insts` only"
        );
    }
}

/// The same hits read in place, through the engine and through the
/// pipeline's Even and SMRA groups: a warm hit fills a kept result and
/// allocates nothing, and is counted as one cached job.
#[test]
fn warm_corun_hit_read_in_place_allocates_nothing() {
    let mut p = pipeline(2);
    let (cfg, scale) = (p.config().gpu.clone(), p.config().scale);
    let group = [Benchmark::Gups, Benchmark::Sad];
    let ws = group.map(Workload::Bench);
    let mut out = GroupResult {
        apps: Vec::with_capacity(group.len()),
        makespan: 0,
    };
    let cached = |p: &Pipeline| {
        let s = p.sweep_stats();
        (s.jobs_total, s.jobs_cached, s.jobs_simulated)
    };
    for mode in [
        CorunMode::Even,
        CorunMode::Counts(vec![3, 5]),
        CorunMode::Smra(SmraParams::for_device(cfg.num_sms, 2)),
    ] {
        let cold = p
            .engine()
            .corun_with(&cfg, scale, ws.iter(), &mode, GroupOutcome::clone)
            .unwrap();
        let before = cached(&p);
        let (makespan, allocs) = counted(|| {
            p.engine().corun_with(&cfg, scale, ws.iter(), &mode, |o| {
                out.assign(&group, o);
                o.makespan
            })
        });
        assert_eq!(makespan.unwrap(), cold.makespan, "{mode:?}");
        assert_eq!(out.apps[1].cycles, cold.cycles[1], "{mode:?}");
        assert_eq!(allocs, 0, "{mode:?}: an in-place hit allocates nothing");
        let after = cached(&p);
        assert_eq!(after, (before.0 + 1, before.1 + 1, before.2), "{mode:?}");
    }
    for alloc in [AllocationPolicy::Even, AllocationPolicy::Smra] {
        let cold = p.run_group(&group, alloc).unwrap();
        let (ran, allocs) = counted(|| p.run_group_into(&group, alloc, &mut out));
        ran.unwrap();
        assert_eq!(out, cold, "{alloc:?}");
        assert_eq!(allocs, 0, "{alloc:?}: a warm pipeline group allocates nothing");
    }
}

/// A one-app `Even` group is its app's full-device profile job, whose
/// entry keeps the derived outcome beside the profile: once the
/// pipeline has profiled the suite, the group is a memo hit read in
/// place, allocates nothing and counts as one cached job.
#[test]
fn warm_single_member_even_hit_allocates_nothing() {
    let mut p = pipeline(2);
    let group = [Benchmark::Lud];
    let mut out = GroupResult {
        apps: Vec::with_capacity(group.len()),
        makespan: 0,
    };
    let before = p.sweep_stats();
    let (ran, allocs) = counted(|| p.run_group_into(&group, AllocationPolicy::Even, &mut out));
    ran.unwrap();
    assert_eq!(allocs, 0, "a warm one-app Even group allocates nothing");
    let prof = p.profile(Benchmark::Lud);
    assert_eq!(
        (out.apps[0].cycles, out.apps[0].thread_insts, out.makespan),
        (prof.cycles, prof.thread_insts, prof.cycles + 1)
    );
    let after = p.sweep_stats();
    assert_eq!(
        (after.jobs_total, after.jobs_cached, after.jobs_simulated),
        (before.jobs_total + 1, before.jobs_cached + 1, before.jobs_simulated)
    );
}

/// Warm hits with a trace member — a co-run read in place and a batched
/// profile probe — allocate nothing: the trace's `Arc` interns by
/// pointer, so neither hit re-encodes or fingerprints the trace.
#[test]
fn warm_hits_with_a_trace_member_allocate_nothing() {
    let p = pipeline(2);
    let (cfg, scale) = (&p.config().gpu, p.config().scale);
    let trace = Workload::Trace(Arc::new(gcs_workloads::phase_shift_trace(cfg)));
    let ws = [trace.clone(), Workload::Bench(Benchmark::Gups)];
    let mode = CorunMode::Even;
    let cold = p
        .engine()
        .corun_with(cfg, scale, ws.iter(), &mode, GroupOutcome::clone)
        .unwrap();
    let (makespan, allocs) =
        counted(|| p.engine().corun_with(cfg, scale, ws.iter(), &mode, |o| o.makespan));
    assert_eq!(makespan.unwrap(), cold.makespan);
    assert_eq!(allocs, 0, "a warm co-run hit with a trace member allocates nothing");

    let alone = p.engine().profile_workload(cfg, scale, &trace, cfg.num_sms).unwrap();
    let mut out = Vec::with_capacity(1);
    let ((), allocs) =
        counted(|| p.engine().profile_memo(cfg, scale, &trace, &[cfg.num_sms], |p| p.cycles, &mut out));
    assert_eq!(out, [Some(alone.cycles)]);
    assert_eq!(allocs, 0, "a batched trace probe hit allocates nothing");
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
    let ((), allocs) = counted(|| p.engine().profile_memo(cfg, scale, &w, &sms, |p| p.cycles, &mut out));
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
    let p = shared_pipeline();
    let pending = census_14_jobs();
    let mut policy = PolicyKind::IlpEpoch.build();
    let first = policy.plan(p, &pending).unwrap();
    let (plan, allocs) = counted(|| policy.plan(p, &pending));
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

/// Census `[1, 4, 2, 5]` in groups of two branches (three nodes); warm,
/// its solve allocates one buffer, the values it returns.
#[test]
fn warm_branching_grouping_solve_allocates_only_its_values() {
    let p = shared_pipeline();
    let e: Vec<f64> = enumerate_patterns(2)
        .iter()
        .map(|pat| pat.e_coefficient(p.matrix()))
        .collect();
    let problem = build_problem([1, 4, 2, 5], 2, &e);
    let first = problem.solve().expect("feasible census");
    assert_eq!(first.stats.nodes, 3, "the census branches once");
    let (sol, allocs) = counted(|| problem.solve());
    assert_eq!(sol.expect("feasible census"), first);
    assert_eq!(allocs, 1, "a warm solve allocates only its values");
}

/// A census of one group (`L = 1`) is not solved: the plan allocates
/// its group list and its groups, nothing else.
#[test]
fn one_group_ilp_plan_allocates_only_its_plan() {
    let p = shared_pipeline();
    let mut policy = PolicyKind::IlpEpoch.build();
    for (benches, groups) in [
        (&[Benchmark::Gups, Benchmark::Sad][..], 1),
        (&[Benchmark::Lud, Benchmark::Hs, Benchmark::Spmv][..], 2),
    ] {
        let pending: Vec<Job> = benches
            .iter()
            .enumerate()
            .map(|(id, &bench)| Job {
                id,
                bench,
                arrival: 0,
            })
            .collect();
        let (plan, allocs) = counted(|| policy.plan(p, &pending));
        let plan = plan.expect("plan");
        assert!(plan.degradations.is_empty());
        assert_eq!(plan.groups.len(), groups, "{benches:?}");
        assert_eq!(
            allocs,
            1 + groups as u64,
            "{benches:?}: the plan's group list and groups only"
        );
    }
}

/// A `Measure` that plans through the pipeline and answers every group
/// with made-up cycles: no simulation, so the session's allocations are
/// the scheduler's own.
struct StubMeasure<'a> {
    pipeline: &'a Pipeline,
}

impl Measure for StubMeasure<'_> {
    fn plan(
        &mut self,
        policy: &mut dyn Policy,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError> {
        policy.plan_over(self.pipeline, pending, free)
    }

    fn epoch(&mut self, policy: &mut dyn Policy, queue: &AdmissionQueue) -> Result<(), CoreError> {
        policy.epoch(self.pipeline, queue)
    }

    fn run_group(
        &mut self,
        _device: usize,
        benches: &[Benchmark],
        _split: Split<'_>,
        out: &mut GroupResult,
    ) -> Result<(), CoreError> {
        out.apps.clear();
        out.apps.extend(benches.iter().map(|&bench| AppRun {
            bench,
            cycles: 15_000 + 1_000 * bench as u64,
            thread_insts: 1_000_000,
            ipc: 1.0,
        }));
        out.makespan = out.apps.iter().map(|a| a.cycles).max().unwrap_or(0);
        Ok(())
    }

    fn alone_cycles(&self, _device: usize, bench: Benchmark) -> u64 {
        10_000 + 500 * bench as u64
    }
}

/// One `IlpEpoch` session over `trace` on `num_gpus` devices under
/// Even allocation, every arrival admitted.
fn ilp_session(measure: &mut dyn Measure, trace: &ArrivalTrace, num_gpus: u32) -> SchedReport {
    let mut policy = PolicyKind::IlpEpoch.build();
    let cfg = SchedConfig {
        num_gpus,
        queue_capacity: trace.len(),
        alloc: AllocationPolicy::Even,
        replan_interval: None,
    };
    let mut core = EventCore::new(cfg, OverloadPolicy::default()).expect("core");
    for (id, a) in trace.arrivals().iter().enumerate() {
        let job = Job {
            id,
            bench: a.bench,
            arrival: a.time,
        };
        assert!(core.submit(measure, policy.as_mut(), job).expect("submit"));
    }
    core.drain(measure, policy.as_mut()).expect("drain")
}

#[test]
fn warm_ilp_event_core_session_allocations_are_pinned() {
    let p = shared_pipeline();
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, 200, 13_000.0, 42);
    let session = || ilp_session(&mut StubMeasure { pipeline: p }, &trace, 1);
    let cold = session();
    assert_eq!(cold.jobs.len(), 200);
    assert!(
        cold.groups.iter().any(|g| g.jobs.len() == 2),
        "the session pairs jobs"
    );
    let (warm, allocs) = counted(session);
    assert_eq!(warm.to_json(), cold.to_json(), "a warm session replays the cold one");
    assert_eq!(
        allocs, SESSION_COUNT,
        "a warm 200-arrival IlpEpoch session made {allocs} allocations"
    );
}

/// The same session shape on the real `Pipeline` measure over two
/// devices (the benchmark's `sched_inproc` set-up on a shorter trace):
/// after a cold session has simulated every group, each group is a
/// memo hit read in place into the `EventCore`'s kept result.
#[test]
fn warm_ilp_session_on_the_pipeline_allocates_nothing_per_group() {
    let mut p = pipeline_with_engine(2, Arc::clone(shared_pipeline().engine()));
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, 200, 13_000.0, 42);
    let cold = ilp_session(&mut p, &trace, 2);
    assert_eq!(cold.jobs.len(), 200);
    let (warm, allocs) = counted(|| ilp_session(&mut p, &trace, 2));
    assert_eq!(warm.to_json(), cold.to_json(), "a warm session replays the cold one");
    assert_eq!(
        allocs, PIPELINE_SESSION_COUNT,
        "a warm 200-arrival IlpEpoch session on the pipeline made {allocs} allocations \
         over {} groups",
        warm.groups.len()
    );
}
