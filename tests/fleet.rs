//! Integration pins for the heterogeneous fleet allocator
//! (`gcs_fleet`).
//!
//! The load-bearing guarantees:
//!
//! * **Degenerate equivalence** — a homogeneous 1-device
//!   [`FleetPolicy`] run through [`OnlineScheduler`] renders the exact
//!   same report bytes as a plain `IlpEpoch` run. The fleet path is
//!   a strict generalization of the single-GPU scheduler, not a fork.
//! * **One event loop** — a [`DaemonCore`] session over the fleet
//!   policy and [`FleetMeasure`] makes every placement [`run_fleet`]
//!   makes: device, dispatch, completion and SM budget of every job.
//! * **Budget conservation & monotonicity** — per-device granted SM
//!   budgets never exceed capacity, and adding a device never lowers
//!   the predicted fleet STP.
//! * **Thread-count determinism** — [`run_fleet`] report JSON is
//!   byte-identical on 1, 2 and 8 sweep threads.
//! * **Warm replay** — a second run against the same cache directory
//!   simulates zero new jobs, and the engine counts exactly the jobs it
//!   counted before the predictor answered memo hits itself.
//! * **Fleet beats FCFS** — marginal-gain budgeting on a heterogeneous
//!   3-device fleet beats the whole-device FCFS baseline on
//!   cross-device STP.
//!
//! Tests that assert no engine counter share one warmed pipeline
//! ([`shared_pipeline`]); the counter pins and the cold 1/2/8-thread
//! runs build their own engines.

use std::sync::Arc;

use gcs_core::runner::AllocationPolicy;
use gcs_core::SweepEngine;
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMeasure, FleetMode, FleetPolicy, FleetPredictor,
    FleetReport, FleetRunConfig, FleetSpec,
};
use gcs_sched::{
    DaemonConfig, DaemonCore, EventCore, GroupDispatch, Job, JobOutcome, OnlineScheduler,
    OverloadPolicy, Policy, PolicyKind, Request, Response, SchedConfig, SchedReport,
};
use gcs_workloads::{ArrivalTrace, Benchmark, Scale};

#[path = "common/hostile.rs"]
mod hostile;
#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::{pipeline_with_engine, shared_pipeline};

/// Small, fast census for TEST-scale simulation.
const POOL: [Benchmark; 3] = [Benchmark::Gups, Benchmark::Hs, Benchmark::Lud];

/// The heterogeneous 3-device fleet the acceptance pins use:
/// `test_small` at 8, 15 and 30 SMs.
fn hetero3() -> FleetSpec {
    FleetSpec::new(vec![
        DeviceProfile { id: "gpu8".into(), num_sms: 8 },
        DeviceProfile { id: "gpu15".into(), num_sms: 15 },
        DeviceProfile { id: "gpu30".into(), num_sms: 30 },
    ])
    .expect("spec")
}

fn wave_trace() -> ArrivalTrace {
    ArrivalTrace::waves(&POOL, 3, 5, 40_000, 42)
}

fn jobs(benches: &[Benchmark]) -> Vec<Job> {
    benches
        .iter()
        .enumerate()
        .map(|(id, &bench)| Job { id, bench, arrival: 0 })
        .collect()
}

/// Homogeneous 1-device fleet == the single-GPU scheduler, down to the
/// report bytes (policy name included).
#[test]
fn one_device_fleet_reproduces_single_gpu_report_bytes() {
    let trace = ArrivalTrace::poisson(&POOL, 8, 30_000.0, 7);
    let cfg = SchedConfig {
        num_gpus: 1,
        queue_capacity: 8,
        alloc: AllocationPolicy::Even,
        replan_interval: None,
    };

    let engine = shared_pipeline().engine();
    let mut ilp_p = pipeline_with_engine(2, Arc::clone(engine));
    let mut ilp = PolicyKind::IlpEpoch.build();
    let ilp_report = OnlineScheduler::new(&mut ilp_p, cfg)
        .unwrap()
        .run(&trace, ilp.as_mut())
        .expect("ilp run");

    let base_sms = ilp_p.config().gpu.num_sms;
    let mut fleet_p = pipeline_with_engine(2, Arc::clone(engine));
    let mut fleet = FleetPolicy::new(FleetSpec::homogeneous(1, base_sms).expect("spec"));
    let stats = fleet.stats_handle();
    let fleet_report = OnlineScheduler::new(&mut fleet_p, cfg)
        .unwrap()
        .run(&trace, &mut fleet)
        .expect("fleet run");

    assert_eq!(
        fleet_report.to_json(),
        ilp_report.to_json(),
        "degenerate fleet must be byte-identical to the single-GPU scheduler"
    );
    let s = stats.lock().unwrap();
    assert!(s.plans > 0, "delegated plans still counted");
    assert_eq!(s.cold_fallbacks, 0, "delegation never consults the predictor");
}

/// Granted budgets stay inside every device's SM pool and every placed
/// job holds at least the minimum budget.
#[test]
fn allocation_conserves_per_device_sm_budgets() {
    let spec = hetero3();
    let p = shared_pipeline();
    let predictor =
        FleetPredictor::warm(p.engine(), &p.config().gpu, Scale::TEST, &spec, &POOL)
            .expect("warm");

    let pending = jobs(&[
        Benchmark::Gups,
        Benchmark::Hs,
        Benchmark::Lud,
        Benchmark::Gups,
        Benchmark::Hs,
        Benchmark::Lud,
    ]);
    let plan = allocate(&predictor, &spec, &pending, &[0, 1, 2], 2);
    assert_eq!(plan.placed() + plan.deferred.len(), pending.len());
    for a in &plan.assignments {
        let cap = spec.devices()[a.device].num_sms;
        let total: u32 = a.budgets.iter().sum();
        assert!(total <= cap, "device {} over budget: {total} > {cap}", a.device);
        assert!(a.budgets.iter().all(|&b| b >= 1), "minimum budget is 1 SM");
        assert!(a.jobs.len() <= 2, "max_group respected");
    }
}

/// Adding a device never lowers the predicted fleet STP: every job
/// keeps at least the allocation it had, so the objective is monotone
/// in fleet size.
#[test]
fn adding_a_device_never_lowers_predicted_stp() {
    let p = shared_pipeline();
    let pending = jobs(&[
        Benchmark::Gups,
        Benchmark::Hs,
        Benchmark::Lud,
        Benchmark::Gups,
    ]);

    let fleets: [&[u32]; 3] = [&[30], &[30, 15], &[30, 15, 8]];
    let mut last = 0.0;
    for sizes in fleets {
        let spec = FleetSpec::new(
            sizes
                .iter()
                .enumerate()
                .map(|(i, &n)| DeviceProfile { id: format!("gpu{i}"), num_sms: n })
                .collect(),
        )
        .expect("spec");
        let predictor =
            FleetPredictor::warm(p.engine(), &p.config().gpu, Scale::TEST, &spec, &POOL)
                .expect("warm");
        let all: Vec<usize> = (0..spec.len()).collect();
        let plan = allocate(&predictor, &spec, &pending, &all, 2);
        assert!(
            plan.predicted_stp >= last - 1e-12,
            "fleet {sizes:?} predicted {} < previous {last}",
            plan.predicted_stp
        );
        last = plan.predicted_stp;
    }
}

/// The full heterogeneous run renders byte-identical reports on 1, 2
/// and 8 sweep threads — allocation order, measured cycles, churn and
/// all.
#[test]
fn fleet_run_is_bit_identical_across_thread_counts() {
    let spec = hetero3();
    let trace = wave_trace();
    let cfg = FleetRunConfig {
        queue_capacity: 16,
        mode: FleetMode::MarginalGain,
    };
    let render = |threads: usize| {
        let pipeline = pipeline_with_engine(2, Arc::new(SweepEngine::new(threads)));
        run_fleet(&pipeline, &spec, &cfg, &trace)
            .expect("fleet run")
            .to_json()
    };
    let one = render(1);
    assert_eq!(one, render(2), "1 vs 2 threads");
    assert_eq!(one, render(8), "1 vs 8 threads");
}

/// Marginal-gain budgeting beats whole-device FCFS on cross-device STP
/// for the heterogeneous 3-device fleet (the FCFS baseline scores
/// exactly 1.0 per group by construction).
#[test]
fn hetero_fleet_beats_whole_device_fcfs_on_stp() {
    let spec = hetero3();
    let trace = wave_trace();
    let p = shared_pipeline();

    let fleet = run_fleet(
        p,
        &spec,
        &FleetRunConfig { queue_capacity: 16, mode: FleetMode::MarginalGain },
        &trace,
    )
    .expect("fleet run");

    let fcfs = run_fleet(
        p,
        &spec,
        &FleetRunConfig { queue_capacity: 16, mode: FleetMode::WholeDeviceFcfs },
        &trace,
    )
    .expect("fcfs run");

    assert!(
        (fcfs.stp() - 1.0).abs() < 1e-12,
        "whole-device FCFS scores exactly 1.0 per group, got {}",
        fcfs.stp()
    );
    assert!(
        fleet.stp() > fcfs.stp(),
        "marginal-gain STP {} must beat FCFS {}",
        fleet.stp(),
        fcfs.stp()
    );
    assert_eq!(
        fleet.jobs.len(),
        trace.len(),
        "every admitted job completes"
    );
}

/// A second run against the same cache directory replays entirely from
/// the memo cache: zero newly simulated jobs, identical bytes.
#[test]
fn warm_cache_replays_fleet_run_without_simulating() {
    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = TempDir(
        std::env::temp_dir().join(format!("gcs-fleet-cache-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);

    let spec = hetero3();
    let trace = wave_trace();
    let cfg = FleetRunConfig {
        queue_capacity: 16,
        mode: FleetMode::MarginalGain,
    };

    let cold_engine = Arc::new(SweepEngine::sequential().with_cache_dir(&dir.0));
    let cold_p = pipeline_with_engine(2, Arc::clone(&cold_engine));
    let cold = run_fleet(&cold_p, &spec, &cfg, &trace).expect("cold run");
    let stats = cold_engine.stats();
    assert!(stats.jobs_simulated > 0, "cold run must simulate");
    // The suite's 14 profiles at set-up, the predictor's 54 curve
    // points and 9 groups; 4 of them repeat an earlier job.
    assert_eq!(
        (stats.jobs_total, stats.jobs_simulated, stats.jobs_cached),
        (77, 73, 4)
    );

    let warm_engine = Arc::new(SweepEngine::sequential().with_cache_dir(&dir.0));
    let warm_p = pipeline_with_engine(2, Arc::clone(&warm_engine));
    let warm = run_fleet(&warm_p, &spec, &cfg, &trace).expect("warm run");
    let stats = warm_engine.stats();
    assert_eq!(
        stats.jobs_simulated, 0,
        "warm start must serve the predictor and every group from cache"
    );
    assert_eq!(
        (stats.jobs_total, stats.jobs_cached),
        (77, 77),
        "a warm run counts every job it asks for as a cache hit"
    );
    assert_eq!(warm.to_json(), cold.to_json(), "replay is bit-identical");

    // A second run on the same engine is served by the in-process memo
    // (the predictor's points by the probe-first pass) and counts the
    // same way.
    let again = run_fleet(&warm_p, &spec, &cfg, &trace).expect("second run");
    let after = warm_engine.stats();
    assert_eq!(after.jobs_simulated, 0, "a second run simulates nothing");
    assert_eq!(
        (after.jobs_total - stats.jobs_total, after.jobs_cached - stats.jobs_cached),
        (63, 63)
    );
    assert_eq!(again.to_json(), cold.to_json());
}

/// `GCS_SCALE=test repro fleet_sim`'s marginal-gain report, regenerated
/// and byte-compared with `tests/golden/fleet/fleet_test_fleet.json`:
/// `test_small` at 8, 15 and 30 SMs, a six-benchmark census in four
/// waves of six, one wave per half of the census' mean alone runtime,
/// seed 42. The golden file was written by an earlier build, so churn
/// accounting, allocation, dispatch and the report encoder are pinned
/// against output they did not produce.
#[test]
fn fleet_report_matches_the_golden_file() {
    const CENSUS: [Benchmark; 6] = [
        Benchmark::Gups,
        Benchmark::Hs,
        Benchmark::Lud,
        Benchmark::Sad,
        Benchmark::Fft,
        Benchmark::Spmv,
    ];
    let pipeline = shared_pipeline();
    let mean_alone: f64 = CENSUS
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / CENSUS.len() as f64;
    let gap = (mean_alone / 2.0).max(1.0) as u64;
    let trace = ArrivalTrace::waves(&CENSUS, 4, 6, gap, 42);
    let cfg = FleetRunConfig {
        queue_capacity: trace.len(),
        mode: FleetMode::MarginalGain,
    };
    let report = run_fleet(pipeline, &hetero3(), &cfg, &trace).expect("fleet run");
    let golden = include_str!("golden/fleet/fleet_test_fleet.json");
    assert!(
        report.to_json() == golden,
        "fleet report drifted from the golden file:\n{}",
        report.to_json()
    );
}

/// The fleet's [`SchedConfig`] for `capacity` queue slots.
fn hetero3_sched(queue_capacity: usize) -> SchedConfig {
    SchedConfig {
        num_gpus: 3,
        queue_capacity,
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    }
}

/// `fleet` rendered as the daemon's report: its jobs and groups, each
/// group with its members' budgets.
fn as_sched_report(fleet: &FleetReport) -> SchedReport {
    let budget = |id| {
        let k = fleet.jobs.binary_search_by_key(&id, |j| j.id).expect("job ran");
        fleet.jobs[k].budget_sms
    };
    SchedReport {
        policy: "fleet".into(),
        num_gpus: fleet.devices.len() as u32,
        queue_capacity: fleet.queue_capacity,
        jobs: fleet
            .jobs
            .iter()
            .map(|j| JobOutcome {
                id: j.id,
                bench: j.bench,
                arrival: j.arrival,
                dispatch: j.dispatch,
                completion: j.completion,
                gpu: j.device as u32,
                alone_cycles: j.alone_cycles,
                corun_cycles: j.corun_cycles,
            })
            .collect(),
        rejections: fleet.rejections.clone(),
        failed: Vec::new(),
        groups: fleet
            .groups
            .iter()
            .map(|g| GroupDispatch {
                gpu: g.device as u32,
                start: g.start,
                end: g.end,
                jobs: g.jobs.clone(),
                budgets: g.jobs.iter().map(|&id| budget(id)).collect(),
                stp: g.stp,
            })
            .collect(),
        degradations: fleet.degradations.clone(),
        makespan: fleet.makespan,
    }
}

/// A `DaemonCore` session over the 8/15/30-SM [`FleetPolicy`] and the
/// fleet measure makes `run_fleet`'s placements on the same trace: the
/// drained report is `run_fleet`'s, byte for byte — device, dispatch,
/// completion, cycles and SM budget of every job, STP of every group —
/// and the policy counts the same churn. The fleet counterpart of the
/// session ≡ batch pin in `tests/daemon.rs`.
#[test]
fn daemon_session_makes_run_fleets_placements() {
    let p = shared_pipeline();
    let spec = hetero3();
    let trace = wave_trace();
    let cfg = FleetRunConfig {
        queue_capacity: 16,
        mode: FleetMode::MarginalGain,
    };
    let fleet = run_fleet(p, &spec, &cfg, &trace).expect("fleet run");

    let mut measure = FleetMeasure::new(p, &spec);
    let policy = FleetPolicy::new(spec.clone());
    let stats = policy.stats_handle();
    let daemon_cfg = DaemonConfig {
        sched: hetero3_sched(cfg.queue_capacity),
        overload: OverloadPolicy::default(),
    };
    let mut d = DaemonCore::new(&mut measure, Box::new(policy), daemon_cfg).expect("daemon");
    for (i, a) in trace.arrivals().iter().enumerate() {
        let r = d.handle(Request::Submit {
            id: i as u64,
            bench: a.bench,
            at: a.time,
        });
        assert_eq!(r, Response::Submitted { id: i as u64 });
    }
    let Response::Drained { json } = d.handle(Request::Drain) else {
        panic!("the session must drain");
    };
    assert_eq!(json, as_sched_report(&fleet).to_json());
    assert!(json.contains("\"budgets\":["), "placed groups show their budgets");
    assert_eq!(stats.lock().unwrap().churn, fleet.churn);
}

/// In a fleet run a job never leaves the shadow plan before it is
/// dispatched: the shadow places a fixed-length prefix of the FIFO
/// census. A daemon client can bring a job id back, though, by
/// submitting it again. Here job 0 runs alone on the 30-SM device, job
/// 1 is planned in the epoch after, and job 0 returns third in a wave of
/// three, which the shadow puts on the 15-SM device. The previous epoch
/// did not plan job 0, so its return is not churn; a churn map that
/// compared it with its older placement would count one move.
#[test]
fn a_job_back_on_another_device_is_not_churn() {
    let p = shared_pipeline();
    let spec = hetero3();
    // Fill the memo with the curves the policy reads from it.
    FleetPredictor::warm(p.engine(), &p.config().gpu, Scale::TEST, &spec, &POOL).expect("warm");
    let mut measure = FleetMeasure::new(p, &spec);
    let mut policy = FleetPolicy::new(spec);
    let stats = policy.stats_handle();
    let mut core = EventCore::new(hetero3_sched(8), OverloadPolicy::default()).expect("core");
    let submissions = [
        (0, Benchmark::Gups, 0),
        (1, Benchmark::Hs, 1_000_000),
        (5, Benchmark::Lud, 2_000_000),
        (6, Benchmark::Gups, 2_000_000),
        (0, Benchmark::Hs, 2_000_000),
    ];
    for (id, bench, arrival) in submissions {
        let job = Job { id, bench, arrival };
        assert!(core.submit(&mut measure, &mut policy, job).expect("submit"));
    }
    let report = core.drain(&mut measure, &mut policy).expect("drain");
    assert!(report.failed.is_empty() && report.degradations.is_empty());
    let mut job0: Vec<(u64, u32)> = report
        .jobs
        .iter()
        .filter(|j| j.id == 0)
        .map(|j| (j.dispatch, j.gpu))
        .collect();
    job0.sort_unstable();
    assert_eq!(job0, [(0, 2), (2_000_000, 1)], "job 0 returns on another device");
    let s = stats.lock().unwrap();
    assert_eq!(s.cold_fallbacks, 0);
    assert_eq!(s.churn, 0, "a job the previous epoch did not plan never moved");
}

/// `repro schedd` builds its fleet policy with [`FleetPolicy::warmed`],
/// which profiles every benchmark's curves before the first request. On
/// a fresh engine over an empty cache directory a session planned by it
/// therefore never degrades for a cold curve, and places every group.
#[test]
fn a_warmed_fleet_policy_never_plans_cold() {
    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = TempDir(
        std::env::temp_dir().join(format!("gcs-fleet-warmed-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);
    // Two devices of the pipeline's 8 SMs: the smallest non-degenerate
    // fleet, so the warm-up profiles each benchmark's one curve.
    let spec = FleetSpec::homogeneous(2, 8).expect("spec");
    let engine = Arc::new(SweepEngine::auto().with_cache_dir(&dir.0));
    let p = pipeline_with_engine(2, engine);
    let mut measure = FleetMeasure::new(&p, &spec);
    let policy = FleetPolicy::warmed(&p, spec).expect("warm-up");
    let stats = policy.stats_handle();
    let daemon_cfg = DaemonConfig {
        sched: SchedConfig {
            num_gpus: 2,
            queue_capacity: 16,
            alloc: AllocationPolicy::Smra,
            replan_interval: None,
        },
        overload: OverloadPolicy::default(),
    };
    let mut d = DaemonCore::new(&mut measure, Box::new(policy), daemon_cfg).expect("daemon");
    let trace = ArrivalTrace::waves(&POOL, 2, 3, 40_000, 7);
    for (i, a) in trace.arrivals().iter().enumerate() {
        let r = d.handle(Request::Submit {
            id: i as u64,
            bench: a.bench,
            at: a.time,
        });
        assert_eq!(r, Response::Submitted { id: i as u64 });
    }
    let Response::Drained { json } = d.handle(Request::Drain) else {
        panic!("the session must drain");
    };
    assert!(json.contains("\"degradations\": []\n"), "{json}");
    assert!(!json.contains("\"budgets\":[]"), "every group is placed: {json}");
    let s = stats.lock().unwrap();
    assert!(s.plans > 0);
    assert_eq!(s.cold_fallbacks, 0);
}

/// On a cold memo cache the fleet policy degrades to greedy grouping —
/// recording the degradation — and still covers every pending job.
#[test]
fn cold_predictor_cache_degrades_to_greedy_and_covers_pending() {
    let engine = Arc::new(SweepEngine::sequential());
    let pipeline = pipeline_with_engine(2, Arc::clone(&engine));
    let mut policy = FleetPolicy::new(hetero3());
    let stats = policy.stats_handle();

    // Pipeline construction profiles the suite; only growth past this
    // baseline would mean the *plan* simulated.
    let baseline = engine.stats().jobs_simulated;
    let pending = jobs(&[Benchmark::Gups, Benchmark::Hs, Benchmark::Lud]);
    let plan = policy.plan(&pipeline, &pending).expect("plan");

    assert_eq!(policy.name(), "fleet");
    assert_eq!(
        plan.degradations.len(),
        1,
        "cold cache must record a PredictorColdFallback"
    );
    assert!(
        plan.degradations[0].to_string().contains("predictor cold"),
        "unexpected degradation: {}",
        plan.degradations[0]
    );
    let mut covered: Vec<usize> = plan.groups.iter().flatten().copied().collect();
    covered.sort_unstable();
    assert_eq!(covered, vec![0, 1, 2], "every pending job grouped exactly once");
    assert_eq!(
        engine.stats().jobs_simulated,
        baseline,
        "planning must never simulate"
    );
    let s = stats.lock().unwrap();
    assert_eq!(s.cold_fallbacks, 1);
}

/// Spec validation errors are typed, and the JSON round-trip is exact.
#[test]
fn fleet_spec_round_trips_and_rejects_garbage() {
    let spec = hetero3();
    let json = spec.to_json();
    let back = FleetSpec::from_json(&json).expect("round trip");
    assert_eq!(back.to_json(), json);
    assert_eq!(back.devices(), spec.devices());

    assert!(FleetSpec::from_json("{").is_err());
    // No truncation prefix parses; bit flips and garbage never panic.
    hostile::assault(
        &[hostile::Target {
            name: "fleet-spec",
            valid: json.into_bytes(),
            checksummed: false,
            accepts: &|b| std::str::from_utf8(b).is_ok_and(|t| FleetSpec::from_json(t).is_ok()),
        }],
        1,
        64,
    );
    assert!(FleetSpec::new(vec![]).is_err());
    assert!(FleetSpec::new(vec![DeviceProfile { id: "a".into(), num_sms: 0 }]).is_err());
}
