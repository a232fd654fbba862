//! Integration pins for the heterogeneous fleet allocator
//! (`gcs_fleet`).
//!
//! The load-bearing guarantees:
//!
//! * **Degenerate equivalence** — a homogeneous 1-device
//!   [`FleetPolicy`] run through [`OnlineScheduler`] renders the exact
//!   same report bytes as a plain `IlpEpoch` run. The fleet path is
//!   a strict generalization of the single-GPU scheduler, not a fork.
//! * **Budget conservation & monotonicity** — per-device granted SM
//!   budgets never exceed capacity, and adding a device never lowers
//!   the predicted fleet STP.
//! * **Thread-count determinism** — [`run_fleet`] report JSON is
//!   byte-identical on 1, 2 and 8 sweep threads.
//! * **Warm replay** — a second run against the same cache directory
//!   simulates zero new jobs.
//! * **Fleet beats FCFS** — marginal-gain budgeting on a heterogeneous
//!   3-device fleet beats the whole-device FCFS baseline on
//!   cross-device STP.

use std::sync::Arc;

use gcs_core::runner::AllocationPolicy;
use gcs_core::SweepEngine;
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMode, FleetPolicy, FleetPredictor, FleetRunConfig,
    FleetSpec,
};
use gcs_sched::{Job, OnlineScheduler, Policy, PolicyKind, SchedConfig};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{ArrivalTrace, Benchmark, Scale};

#[path = "common/hostile.rs"]
mod hostile;
#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::pipeline_with_engine;

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

    let engine = Arc::new(SweepEngine::sequential());
    let mut ilp_p = pipeline_with_engine(2, Arc::clone(&engine));
    let mut ilp = PolicyKind::IlpEpoch.build();
    let ilp_report = OnlineScheduler::new(&mut ilp_p, cfg)
        .unwrap()
        .run(&trace, ilp.as_mut())
        .expect("ilp run");

    let base_sms = GpuConfig::test_small().num_sms;
    let mut fleet_p = pipeline_with_engine(2, Arc::clone(&engine));
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
    let engine = SweepEngine::sequential();
    let base = GpuConfig::test_small();
    let predictor =
        FleetPredictor::warm(&engine, &base, Scale::TEST, &spec, &POOL).expect("warm");

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
    let engine = SweepEngine::sequential();
    let base = GpuConfig::test_small();
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
            FleetPredictor::warm(&engine, &base, Scale::TEST, &spec, &POOL).expect("warm");
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
    let engine = Arc::new(SweepEngine::sequential());

    let fleet_p = pipeline_with_engine(2, Arc::clone(&engine));
    let fleet = run_fleet(
        &fleet_p,
        &spec,
        &FleetRunConfig { queue_capacity: 16, mode: FleetMode::MarginalGain },
        &trace,
    )
    .expect("fleet run");

    let fcfs_p = pipeline_with_engine(2, Arc::clone(&engine));
    let fcfs = run_fleet(
        &fcfs_p,
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
    assert!(cold_engine.stats().jobs_simulated > 0, "cold run must simulate");

    let warm_engine = Arc::new(SweepEngine::sequential().with_cache_dir(&dir.0));
    let warm_p = pipeline_with_engine(2, Arc::clone(&warm_engine));
    let warm = run_fleet(&warm_p, &spec, &cfg, &trace).expect("warm run");
    let stats = warm_engine.stats();
    assert_eq!(
        stats.jobs_simulated, 0,
        "warm start must serve the predictor and every group from cache"
    );
    assert!(stats.jobs_cached > 0, "warm run actually hit the cache");
    assert_eq!(warm.to_json(), cold.to_json(), "replay is bit-identical");
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
