//! Integration pins for the online scheduler (`gcs_sched`).
//!
//! The two load-bearing guarantees:
//!
//! * **Batch equivalence** — a trace with every job at `t = 0`, one
//!   device and the [`IlpEpoch`] policy must reproduce the batch
//!   [`Pipeline::run_queue`] run exactly: same groups, same per-app
//!   cycle counts, same total makespan. The online subsystem is a
//!   strict generalization of the thesis pipeline, not a reimplementation
//!   that can drift.
//! * **Thread-count determinism** — the rendered [`SchedReport`] JSON
//!   is byte-identical whether the sweep engine runs on 1, 2 or 8
//!   worker threads.

use std::sync::Arc;

use gcs_core::interference::InterferenceMatrix;
use gcs_core::runner::{AllocationPolicy, GroupingPolicy, Pipeline, RunConfig};
use gcs_core::SweepEngine;
use gcs_sched::{OnlineScheduler, PolicyKind, SchedConfig};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Arrival, ArrivalTrace, Benchmark, Scale};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::{pipeline, pipeline_with_engine, run_config};

fn trace_at_zero(benches: &[Benchmark]) -> ArrivalTrace {
    ArrivalTrace::new(
        benches
            .iter()
            .map(|&bench| Arrival { time: 0, bench })
            .collect(),
    )
}

/// All jobs at t=0, one GPU, IlpEpoch == batch `run_queue(Ilp)`,
/// bit-for-bit: group membership, per-app cycles, makespan.
#[test]
fn degenerate_trace_reproduces_batch_pipeline() {
    let queue = gcs_core::queues::thesis_queue_14();
    // Shared engine: the memo cache guarantees both paths measure each
    // group once, so a mismatch can only come from scheduling logic.
    let engine = Arc::new(SweepEngine::sequential());

    for alloc in [AllocationPolicy::Even, AllocationPolicy::Smra] {
        let mut batch_p = pipeline_with_engine(2, Arc::clone(&engine));
        let batch = batch_p
            .run_queue(&queue, GroupingPolicy::Ilp, alloc)
            .expect("batch run");

        let mut online_p = pipeline_with_engine(2, Arc::clone(&engine));
        let cfg = SchedConfig {
            num_gpus: 1,
            queue_capacity: queue.len(),
            alloc,
            replan_interval: None,
        };
        let mut policy = PolicyKind::IlpEpoch.build();
        let report = OnlineScheduler::new(&mut online_p, cfg)
            .unwrap()
            .run(&trace_at_zero(&queue), policy.as_mut())
            .expect("online run");

        assert_eq!(report.groups.len(), batch.groups.len(), "{alloc:?}");
        for (og, bg) in report.groups.iter().zip(&batch.groups) {
            // Same benchmarks in the same slots...
            let online_benches: Vec<Benchmark> =
                og.jobs.iter().map(|&id| queue[id]).collect();
            let batch_benches: Vec<Benchmark> = bg.apps.iter().map(|a| a.bench).collect();
            assert_eq!(online_benches, batch_benches, "{alloc:?}");
            // ...and the exact same measured occupancy.
            assert_eq!(og.end - og.start, bg.makespan, "{alloc:?}");
        }
        // Per-job cycle counts match the batch per-app cycle counts.
        let batch_cycles: Vec<u64> = batch
            .groups
            .iter()
            .flat_map(|g| g.apps.iter().map(|a| a.cycles))
            .collect();
        let mut online_cycles: Vec<(usize, u64)> = Vec::new();
        for g in &report.groups {
            for &id in &g.jobs {
                let job = report.jobs.iter().find(|j| j.id == id).unwrap();
                online_cycles.push((id, job.corun_cycles));
            }
        }
        assert_eq!(
            online_cycles.iter().map(|&(_, c)| c).collect::<Vec<_>>(),
            batch_cycles,
            "{alloc:?}"
        );
        // Back-to-back on one device: total occupancy == batch total.
        assert_eq!(report.makespan, batch.total_cycles, "{alloc:?}");
        assert!(report.rejections.is_empty());
        assert_eq!(report.jobs.len(), queue.len());
    }
}

/// The report JSON is byte-identical across sweep-engine thread counts.
#[test]
fn report_json_is_identical_across_thread_counts() {
    let trace = ArrivalTrace::poisson(&Benchmark::ALL, 10, 30_000.0, 42);
    let cfg = SchedConfig {
        num_gpus: 2,
        queue_capacity: 16,
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    };
    let mut renders = Vec::new();
    for threads in [1, 2, 8] {
        let engine = Arc::new(SweepEngine::new(threads));
        let mut p = pipeline_with_engine(2, engine);
        let mut policy = PolicyKind::IlpEpoch.build();
        let report = OnlineScheduler::new(&mut p, cfg)
            .unwrap()
            .run(&trace, policy.as_mut())
            .expect("run");
        renders.push(report.to_json());
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

/// Every policy completes a staggered trace and accounts for every
/// arrival exactly once (completed + rejected == trace length).
#[test]
fn all_policies_complete_a_staggered_trace() {
    let trace = ArrivalTrace::bursty(&Benchmark::ALL, 3, 4, 50_000.0, 7);
    assert_eq!(trace.len(), 12);
    for kind in PolicyKind::ALL {
        let mut p = pipeline(2);
        let cfg = SchedConfig {
            num_gpus: 1,
            queue_capacity: 8,
            alloc: AllocationPolicy::Even,
            replan_interval: None,
        };
        let mut policy = kind.build();
        let report = OnlineScheduler::new(&mut p, cfg)
            .unwrap()
            .run(&trace, policy.as_mut())
            .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(
            report.jobs.len() + report.rejections.len(),
            trace.len(),
            "{}",
            kind.name()
        );
        assert_eq!(report.policy, kind.name());
        // Dispatches never precede arrivals, completions never precede
        // dispatches, and the device timeline is non-overlapping.
        for j in &report.jobs {
            assert!(j.dispatch >= j.arrival, "{}", kind.name());
            assert!(j.completion > j.dispatch, "{}", kind.name());
        }
        let mut ends = 0u64;
        for g in &report.groups {
            assert!(g.start >= ends, "{}: overlapping groups", kind.name());
            ends = g.end;
        }
    }
}

/// Backpressure under a burst: the bounded queue rejects the overflow
/// with typed records, and a later lull admits new work again.
#[test]
fn bursty_overload_sheds_load_then_recovers() {
    // Burst of 6 at t=0 into capacity 3 (3 rejected), second burst
    // far enough out that the queue has drained (all admitted).
    let mut arrivals: Vec<Arrival> = Benchmark::ALL[..6]
        .iter()
        .map(|&bench| Arrival { time: 0, bench })
        .collect();
    arrivals.extend(Benchmark::ALL[6..9].iter().map(|&bench| Arrival {
        time: 500_000_000,
        bench,
    }));
    let trace = ArrivalTrace::new(arrivals);

    let mut p = pipeline(2);
    let cfg = SchedConfig {
        num_gpus: 1,
        queue_capacity: 3,
        alloc: AllocationPolicy::Even,
        replan_interval: None,
    };
    let mut policy = PolicyKind::GreedyClass.build();
    let report = OnlineScheduler::new(&mut p, cfg)
        .unwrap()
        .run(&trace, policy.as_mut())
        .expect("run");

    assert_eq!(report.rejections.len(), 3);
    assert!(
        report.rejections.iter().all(|r| r.at == 0 && r.capacity == 3),
        "only the t=0 burst overflows: {:?}",
        report.rejections
    );
    assert_eq!(report.jobs.len(), 6, "3 admitted early + 3 late");
    assert!(
        report.jobs.iter().any(|j| j.arrival == 500_000_000),
        "late burst admitted after drain"
    );
}

/// The report's STP agrees with the same metric computed from the
/// batch pipeline's raw group results — the two accounting paths can't
/// drift. (The thesis' IlpEpoch-beats-Fcfs ordering is a device-model
/// claim, demonstrated at SMALL scale in `results/sched/`; the tiny
/// synthetic TEST device doesn't guarantee it, so it isn't pinned
/// here.)
#[test]
fn online_stp_matches_batch_derived_stp() {
    let queue = gcs_core::queues::thesis_queue_14();
    let engine = Arc::new(SweepEngine::sequential());

    let mut batch_p = pipeline_with_engine(2, Arc::clone(&engine));
    let batch = batch_p
        .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Smra)
        .expect("batch run");
    let batch_stp: f64 = batch
        .groups
        .iter()
        .map(|g| {
            g.apps
                .iter()
                .map(|a| batch_p.profile(a.bench).cycles as f64 / a.cycles as f64)
                .sum::<f64>()
        })
        .sum::<f64>()
        / batch.groups.len() as f64;

    let mut online_p = pipeline_with_engine(2, Arc::clone(&engine));
    let mut policy = PolicyKind::IlpEpoch.build();
    let report = OnlineScheduler::new(&mut online_p, SchedConfig::default())
        .unwrap()
        .run(&trace_at_zero(&queue), policy.as_mut())
        .expect("online run");

    assert!(
        (report.stp() - batch_stp).abs() < 1e-12,
        "online STP {} != batch-derived STP {}",
        report.stp(),
        batch_stp
    );
    assert!(report.antt() >= 1.0, "queueing can only slow jobs down");
}

/// Trace bindings reach the online scheduler untouched: two authored
/// traces bound behind suite slots are scheduled, grouped and co-run
/// by `gcs-sched`, and the rendered report JSON is byte-identical at
/// 1, 2 and 8 sweep threads.
#[test]
fn bound_traces_flow_through_online_scheduler() {
    use gcs_sim::KernelTrace;
    use gcs_workloads::{phase_shift_trace, tensor_mix_trace};
    use std::collections::BTreeMap;

    let gpu_cfg = GpuConfig::test_small();
    let bindings: BTreeMap<Benchmark, Arc<KernelTrace>> = BTreeMap::from([
        (Benchmark::Jpeg, Arc::new(phase_shift_trace(&gpu_cfg))),
        (Benchmark::Ray, Arc::new(tensor_mix_trace(&gpu_cfg))),
    ]);
    let trace = trace_at_zero(&[
        Benchmark::Blk,
        Benchmark::Jpeg,
        Benchmark::Gups,
        Benchmark::Ray,
    ]);
    let cfg = SchedConfig {
        num_gpus: 1,
        queue_capacity: 8,
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    };
    let mut renders = Vec::new();
    for threads in [1usize, 2, 8] {
        let mut p = Pipeline::with_matrix_engine_and_bindings(
            run_config(2),
            InterferenceMatrix::synthetic_paper_shape(),
            Arc::new(SweepEngine::new(threads)),
            bindings.clone(),
        )
        .expect("pipeline with bindings");
        let mut policy = PolicyKind::IlpEpoch.build();
        let report = OnlineScheduler::new(&mut p, cfg)
            .unwrap()
            .run(&trace, policy.as_mut())
            .expect("run");
        assert_eq!(report.jobs.len(), 4, "all four jobs complete");
        assert!(report.rejections.is_empty());
        renders.push(report.to_json());
    }
    assert_eq!(renders[0], renders[1], "1 vs 2 threads");
    assert_eq!(renders[0], renders[2], "1 vs 8 threads");
}

/// The class interference matrix `InterferenceMatrix::measure_full_with`
/// measures on the GTX 480 at TEST scale, as IEEE-754 bit patterns.
/// Pinning it spares the golden test below the 105 pair co-runs (2 s of
/// the debug-assertion build); `scripts/ci.sh --sched-smoke` regenerates
/// all seven golden reports end to end, matrix included.
const GTX480_TEST_MATRIX: [[u64; 4]; 4] = [
    [0x400020df1f4ac147, 0x3ff2a8ded5a2083b, 0x3ff20566b774af72, 0x3ff245b1cffc2042],
    [0x3ff23e522f2b535b, 0x3ff05a0029af25e6, 0x3ff0172f37708b25, 0x3ff01199eb257e49],
    [0x3ff2692b41e3d3c5, 0x3ff08ac0f82e7ef5, 0x3ff00a2dff511110, 0x3ff03d1455c44313],
    [0x3ff1821fe189388d, 0x3ff03a26da976314, 0x3ff00992c1163a0a, 0x3ff011f77195a07d],
];

/// `GCS_SCALE=test schedd_sim`'s q14 ILP report, regenerated and
/// byte-compared with `tests/golden/sched/sched_test_q14_ilp.json`: the
/// GTX 480 at TEST scale, one device, SMRA allocation, seed 42, one
/// arrival per quarter of the mean alone runtime. The golden file was
/// written by an earlier build, so this pins the decision path (census,
/// ILP, job mapping, dispatch) against output it did not produce.
#[test]
fn q14_ilp_report_matches_the_golden_file() {
    let cfg = RunConfig {
        gpu: GpuConfig::gtx480(),
        scale: Scale::TEST,
        concurrency: 2,
    };
    let matrix =
        InterferenceMatrix::from_entries(GTX480_TEST_MATRIX.map(|row| row.map(f64::from_bits)));
    let mut pipeline = Pipeline::with_matrix_and_engine(cfg, matrix, Arc::new(SweepEngine::auto()))
        .expect("pipeline");
    let mean_alone: f64 = Benchmark::ALL
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / Benchmark::ALL.len() as f64;
    let queue = gcs_core::queues::thesis_queue_14();
    let trace = ArrivalTrace::poisson_from_queue(&queue, mean_alone / 4.0, 42);
    let sched = SchedConfig {
        num_gpus: 1,
        queue_capacity: queue.len(),
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    };
    let mut policy = PolicyKind::IlpEpoch.build();
    let report = OnlineScheduler::new(&mut pipeline, sched)
        .unwrap()
        .run(&trace, policy.as_mut())
        .unwrap();
    let golden = include_str!("golden/sched/sched_test_q14_ilp.json");
    assert!(
        report.to_json() == golden,
        "q14 ILP report drifted from the golden file:\n{}",
        report.to_json()
    );
}
