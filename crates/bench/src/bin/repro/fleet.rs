//! `fleet_sim` — heterogeneous multi-GPU fleet allocation versus
//! whole-device FCFS (DESIGN.md §14).
//!
//! Drives a fleet-shaped wave trace through [`run_fleet`] twice on the
//! same memoized engine — once under marginal-gain SM budgeting, once
//! under the naive one-job-per-device FCFS baseline — on a 3-device
//! heterogeneous fleet (`test_small` at 8, 15 and 30 SMs), and prints
//! cross-device STP, ANTT, churn and per-device utilization for both.
//! The FCFS baseline's per-group STP is exactly 1.0 by construction,
//! so the STP delta is the headline number.
//!
//! Also runs the degenerate-fleet equivalence pair: the same Poisson
//! trace through [`OnlineScheduler`] under a homogeneous 1-device
//! [`FleetPolicy`] and under plain `IlpEpoch`. The two reports must be
//! byte-identical (`scripts/ci.sh --fleet-smoke` diffs the files).
//!
//! Writes to `results/fleet/`:
//!
//! ```text
//! results/fleet/fleet_{scale}_fleet.json
//! results/fleet/fleet_{scale}_fcfs.json
//! results/fleet/fleet_hom_{scale}_fleetpolicy.json
//! results/fleet/fleet_hom_{scale}_ilp.json
//! ```
//!
//! Scale comes from `GCS_SCALE` as usual; the committed results are the
//! SMALL-scale run, while the CI smoke replays TEST scale (gitignored
//! here) and compares it with `tests/golden/fleet/`.

use std::fs;
use std::sync::Arc;

use gcs_core::interference::InterferenceMatrix;
use gcs_core::runner::{AllocationPolicy, Pipeline, RunConfig};
use gcs_fleet::{
    run_fleet, DeviceProfile, FleetMode, FleetPolicy, FleetReport, FleetRunConfig, FleetSpec,
};
use gcs_sched::{OnlineScheduler, PolicyKind, SchedConfig};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{ArrivalTrace, Benchmark};

use crate::env::{scale_from_env, scale_tag};
use crate::harness::{engine, header, report_profile};

const SEED: u64 = 42;

/// Census for the fleet runs: a compute/memory mix that gives the
/// marginal-gain loop real scalability knees to exploit.
const POOL: [Benchmark; 6] = [
    Benchmark::Gups,
    Benchmark::Hs,
    Benchmark::Lud,
    Benchmark::Sad,
    Benchmark::Fft,
    Benchmark::Spmv,
];

/// The heterogeneous 3-device fleet the acceptance pins use.
fn hetero3() -> FleetSpec {
    FleetSpec::new(vec![
        DeviceProfile { id: "gpu8".into(), num_sms: 8 },
        DeviceProfile { id: "gpu15".into(), num_sms: 15 },
        DeviceProfile { id: "gpu30".into(), num_sms: 30 },
    ])
    .expect("fleet spec")
}

fn print_report(spec: &FleetSpec, r: &FleetReport) {
    println!(
        "{:<6} {:>12} {:>8.3} {:>8.3} {:>6} {:>5}",
        r.mode,
        r.makespan,
        r.stp(),
        r.antt(),
        r.churn,
        r.rejections.len(),
    );
    for (d, dev) in spec.devices().iter().enumerate() {
        println!(
            "       {:<6} {:>2} SMs  {:>3} groups  util {:>6.1}%",
            dev.id,
            dev.num_sms,
            r.devices[d].groups,
            100.0 * r.utilization(d),
        );
    }
}

pub fn fleet_sim(profile: bool) {
    let scale = scale_from_env();
    let tag = scale_tag(scale);
    let engine = Arc::new(engine(profile));
    fs::create_dir_all("results/fleet").expect("create results/fleet");

    // The fleet base is the small device model; device capacities come
    // from the spec. The synthetic matrix skips the 105-pair
    // interference sweep the fleet path never consults.
    let cfg = RunConfig {
        gpu: GpuConfig::test_small(),
        scale,
        concurrency: 2,
    };
    let mut pipeline = Pipeline::with_matrix_and_engine(
        cfg,
        InterferenceMatrix::synthetic_paper_shape(),
        Arc::clone(&engine),
    )
    .expect("pipeline construction");
    println!("[setup] {}", pipeline.sweep_stats());

    let spec = hetero3();
    // Wave cadence: half the mean alone runtime on the base device, so
    // waves overlap the previous wave's drain and every dispatch epoch
    // sees a real placement decision.
    let mean_alone: f64 = POOL
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / POOL.len() as f64;
    let gap = (mean_alone / 2.0).max(1.0) as u64;
    let trace = ArrivalTrace::waves(&POOL, 4, 6, gap, SEED);

    header("fleet_sim: marginal-gain budgeting vs whole-device FCFS");
    println!(
        "scale {scale:?}; seed {SEED}; fleet {}; {} arrivals in waves of 6 every {gap} cycles",
        spec.to_json(),
        trace.len(),
    );
    println!(
        "{:<6} {:>12} {:>8} {:>8} {:>6} {:>5}",
        "mode", "makespan", "STP", "ANTT", "churn", "rej"
    );

    let mut reports: Vec<FleetReport> = Vec::new();
    for mode in [FleetMode::MarginalGain, FleetMode::WholeDeviceFcfs] {
        let run_cfg = FleetRunConfig {
            queue_capacity: trace.len(),
            mode,
        };
        let report = run_fleet(&pipeline, &spec, &run_cfg, &trace).expect("fleet run");
        print_report(&spec, &report);
        let path = format!("results/fleet/fleet_{tag}_{}.json", mode.tag());
        fs::write(&path, report.to_json()).expect("write report");
        reports.push(report);
    }
    let (fleet, fcfs) = (&reports[0], &reports[1]);
    println!(
        "fleet vs fcfs: STP {:+.3} ({:.3} vs {:.3}), makespan {:+}",
        fleet.stp() - fcfs.stp(),
        fleet.stp(),
        fcfs.stp(),
        fleet.makespan as i64 - fcfs.makespan as i64,
    );
    assert!(
        fleet.stp() > fcfs.stp(),
        "marginal-gain budgeting must beat whole-device FCFS on STP"
    );

    header("degenerate fleet: 1-device FleetPolicy == IlpEpoch, byte-for-byte");
    let hom_trace = ArrivalTrace::poisson(&POOL, 8, mean_alone / 4.0, SEED);
    let sched_cfg = SchedConfig {
        num_gpus: 1,
        queue_capacity: hom_trace.len(),
        alloc: AllocationPolicy::Even,
        replan_interval: None,
    };
    let mut ilp = PolicyKind::IlpEpoch.build();
    let ilp_report = OnlineScheduler::new(&mut pipeline, sched_cfg)
        .expect("config")
        .run(&hom_trace, ilp.as_mut())
        .expect("ilp run");
    let base_sms = GpuConfig::test_small().num_sms;
    let mut fleet_policy =
        FleetPolicy::new(FleetSpec::homogeneous(1, base_sms).expect("homogeneous spec"));
    let fleet_report = OnlineScheduler::new(&mut pipeline, sched_cfg)
        .expect("config")
        .run(&hom_trace, &mut fleet_policy)
        .expect("fleet policy run");
    let identical = fleet_report.to_json() == ilp_report.to_json();
    println!(
        "1-device FleetPolicy report {} IlpEpoch report ({} jobs)",
        if identical { "==" } else { "!=" },
        hom_trace.len(),
    );
    fs::write(
        format!("results/fleet/fleet_hom_{tag}_fleetpolicy.json"),
        fleet_report.to_json(),
    )
    .expect("write fleetpolicy report");
    fs::write(
        format!("results/fleet/fleet_hom_{tag}_ilp.json"),
        ilp_report.to_json(),
    )
    .expect("write ilp report");
    assert!(identical, "degenerate fleet must reproduce the single-GPU report");

    println!("\n[done] {}", engine.stats());
    report_profile(&engine.stats(), profile);
}
