//! Record → replay bit-identity harness for the trace subsystem.
//!
//! The headline invariant: every trace recorded from a synthetic
//! kernel replays **bit-identically** — same `SimStats`, same cycle
//! count, same SMRA action trace — whether replayed alone, inside a
//! co-run next to a synthetic partner, in either step mode, or through
//! the sweep engine at any worker thread count. The memo cache keys
//! traced jobs by content fingerprint, so same-name different-content
//! traces can never collide.

#[macro_use]
#[path = "common/scenario.rs"]
mod scenario;
#[path = "common/fixtures.rs"]
mod fixtures;

use std::collections::BTreeMap;
use std::sync::Arc;

use gcs_core::profile::{profile_with_sms_phases, AppProfile, PROFILE_MAX_CYCLES};
use gcs_core::runner::{AllocationPolicy, GroupingPolicy, Pipeline, RunConfig};
use gcs_core::sweep::{SweepEngine, Workload};
use gcs_core::InterferenceMatrix;
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::{KernelTrace, SimStats};
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

use fixtures::profile_bits;

/// Records `bench` alone on every SM of the test device (the profiling
/// context), returning the trace plus the recording run's outcome.
fn record_alone(bench: Benchmark) -> (KernelTrace, u64, SimStats) {
    let cfg = GpuConfig::test_small();
    let mut gpu = Gpu::new(cfg.clone()).unwrap();
    let app = gpu.launch(bench.kernel(Scale::TEST)).unwrap();
    gpu.enable_trace_recording(app).unwrap();
    let ids: Vec<u32> = (0..cfg.num_sms).collect();
    gpu.assign_sms(app, &ids);
    gpu.run(PROFILE_MAX_CYCLES).unwrap();
    let cycles = gpu.cycle();
    let stats = gpu.stats().clone();
    let trace = gpu.take_trace(app).unwrap();
    (trace, cycles, stats)
}

select_rows! {
    /// Each of the 14 synthetic kernels records alone, round-trips through
    /// the wire format, and replays with the recording run's exact stats and
    /// cycle count, in both step modes (the `record/alone/` rows of the
    /// scenario table).
    all_fourteen_kernels_replay_bit_identically: "record/alone/";
}

/// Traced profiles through the sweep engine are bit-identical at 1, 2
/// and 8 worker threads, and match the synthetic kernel's profile
/// exactly (the trace was recorded in the same profiling context).
#[test]
fn traced_sweep_is_bit_identical_across_thread_counts() {
    let cfg = GpuConfig::test_small();
    let traces: Vec<Arc<KernelTrace>> = Benchmark::ALL
        .iter()
        .map(|&b| Arc::new(record_alone(b).0))
        .collect();
    let workloads: Vec<Workload> = traces.iter().map(|t| Workload::Trace(Arc::clone(t))).collect();
    let sweep = |threads: usize| -> Vec<AppProfile> {
        let engine = SweepEngine::new(threads);
        engine
            .run_parallel(workloads.len(), |i| {
                engine.profile_workload(&cfg, Scale::TEST, &workloads[i], cfg.num_sms)
            })
            .unwrap()
    };
    let reference = sweep(1);
    for (i, &bench) in Benchmark::ALL.iter().enumerate() {
        let (synthetic, _) =
            profile_with_sms_phases(&bench.kernel(Scale::TEST), &cfg, cfg.num_sms, false).unwrap();
        assert_eq!(
            profile_bits(&reference[i]),
            profile_bits(&synthetic),
            "{bench:?}: traced profile diverges from synthetic"
        );
    }
    for threads in [2usize, 8] {
        let got = sweep(threads);
        for (a, b) in reference.iter().zip(&got) {
            assert_eq!(
                profile_bits(a),
                profile_bits(b),
                "traced profile {} diverged at {threads} threads",
                a.name
            );
        }
    }
}

select_rows! {
    /// Even co-run: BLK recorded while it shares the device with GUPS
    /// replays next to the same partner with a bit-identical device outcome
    /// (the `record/BLK+GUPS` row).
    even_corun_with_traced_member_is_bit_identical: "record/BLK+GUPS";

    /// SMRA co-run: the dynamic controller sees identical signals from a
    /// replayed member, so its entire action trace — every move, hold and
    /// revert — matches the recording run, along with stats and cycles (the
    /// `record/smra/` row: SPMV recorded next to SAD).
    smra_corun_with_traced_member_replays_identical_actions: "record/smra/";
}

/// Memo-cache correctness: two *different* traces sharing a name get
/// distinct content fingerprints, therefore distinct cache keys — the
/// second can never be served the first's result.
#[test]
fn same_name_different_traces_never_collide_in_cache() {
    let (mut t1, _, _) = record_alone(Benchmark::Blk);
    let (mut t2, _, _) = record_alone(Benchmark::Gups);
    t1.meta.name = "SAME".to_string();
    t2.meta.name = "SAME".to_string();
    assert_ne!(t1.fingerprint(), t2.fingerprint(), "fingerprint must see content");

    let cfg = GpuConfig::test_small();
    let engine = SweepEngine::sequential();
    let p1 = engine
        .profile_workload(&cfg, Scale::TEST, &Workload::Trace(Arc::new(t1)), cfg.num_sms)
        .unwrap();
    let p2 = engine
        .profile_workload(&cfg, Scale::TEST, &Workload::Trace(Arc::new(t2)), cfg.num_sms)
        .unwrap();
    let s = engine.stats();
    assert_eq!(s.jobs_total, 2);
    assert_eq!(
        s.jobs_simulated, 2,
        "same-name traces collided in the memo cache: {s:?}"
    );
    assert_eq!(s.jobs_cached, 0);
    assert_ne!(
        (p1.cycles, p1.thread_insts),
        (p2.cycles, p2.thread_insts),
        "distinct traces produced identical outcomes — collision suspected"
    );
}

/// The two hand-authored traces flow end-to-end: bound into the
/// pipeline they are profiled, classified, grouped and co-run like any
/// suite member, and the whole report is thread-count stable.
#[test]
fn authored_traces_run_end_to_end_through_pipeline() {
    let cfg = GpuConfig::test_small();
    let bindings: BTreeMap<Benchmark, Arc<KernelTrace>> = BTreeMap::from([
        (Benchmark::Jpeg, Arc::new(phase_shift_trace(&cfg))),
        (Benchmark::Ray, Arc::new(tensor_mix_trace(&cfg))),
    ]);
    let build = |threads: usize| {
        let run_cfg = RunConfig {
            gpu: GpuConfig::test_small(),
            scale: Scale::TEST,
            concurrency: 2,
        };
        Pipeline::with_matrix_engine_and_bindings(
            run_cfg,
            InterferenceMatrix::synthetic_paper_shape(),
            Arc::new(SweepEngine::new(threads)),
            bindings.clone(),
        )
        .unwrap()
    };
    let run = |threads: usize| {
        let mut p = build(threads);
        // Bound slots carry the trace's profile and a real class.
        assert_eq!(p.profile(Benchmark::Jpeg).name, "TRACE_PHASE");
        assert_eq!(p.profile(Benchmark::Ray).name, "TRACE_TENSOR");
        let _ = p.class_of(Benchmark::Jpeg);
        let queue = [
            Benchmark::Blk,
            Benchmark::Jpeg,
            Benchmark::Gups,
            Benchmark::Ray,
        ];
        let ilp = p
            .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Smra)
            .unwrap();
        assert!(ilp.total_cycles > 0);
        assert!(ilp.device_throughput > 0.0);
        ilp.device_throughput.to_bits()
    };
    assert_eq!(run(1), run(8), "pipeline report depends on thread count");
}
