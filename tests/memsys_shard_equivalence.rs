//! Memory-shard equivalence: phase-M stepping (sharded L2/DRAM slices)
//! must be bit-identical to the unsharded reference, at every memory
//! shard count, alone and combined with SM sharding.
//!
//! [`Gpu::set_mem_shards`] splits the L2 slices into `m` cells whose
//! per-slice work (L2 stage, DRAM scheduling, MSHR fills) runs per
//! shard, with responses and stats deltas folded back in a serial
//! boundary phase in the reference slice rotation. The contract is the
//! same as SM sharding's: a *pure* wall-clock optimization — every
//! [`SimStats`] counter, the final device cycle, every SMRA decision
//! and every recorded trace byte are exactly the `m = 1` values. This
//! suite pins that across dense-issue and latency-bound co-runs, SMRA
//! control, authored-trace replays, fault plans (including the
//! mid-run memory knobs, which must reset the sleep gates), the phase
//! profiler and the threaded executor — in both step modes, over the
//! m1/m2/m4 × s1/s2/s4 grid.

use std::sync::Arc;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, StepMode};
use gcs_sim::stats::SimStats;
use gcs_sim::FaultPlan;
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

const MAX_CYCLES: u64 = 50_000_000;

/// Memory shard counts: reference, even split, one-slice-per-shard.
const MEM_SHARDS: [u32; 3] = [1, 2, 4];

const MODES: [StepMode; 2] = [StepMode::Cycle, StepMode::EventHorizon];

/// The small test device, widened to four memory controllers so `m =
/// 4` is a real split (stock `test_small` has two slices and would
/// clamp).
fn cfg4() -> GpuConfig {
    GpuConfig {
        num_mem_ctrls: 4,
        ..GpuConfig::test_small()
    }
}

fn device(cfg: GpuConfig, mode: StepMode, sm_shards: u32, mem_shards: u32) -> Gpu {
    let mut gpu = Gpu::new(cfg).expect("device");
    gpu.set_step_mode(mode);
    gpu.set_shards(sm_shards);
    gpu.set_mem_shards(mem_shards);
    gpu
}

/// Stats, final cycle and the bits of the `l2_hit_rate` diagnostic —
/// requests are tallied once, at consumption, so the rate is as
/// lane-independent as the stats are.
fn run_corun(a: Benchmark, b: Benchmark, mode: StepMode, s: u32, m: u32) -> (SimStats, u64, u64) {
    let mut gpu = device(cfg4(), mode, s, m);
    gpu.launch(a.kernel(Scale::TEST)).expect("launch a");
    gpu.launch(b.kernel(Scale::TEST)).expect("launch b");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("co-run finishes");
    let hit_rate = gpu.l2_hit_rate().to_bits();
    (gpu.stats().clone(), gpu.cycle(), hit_rate)
}

#[test]
fn dense_issue_corun_is_bit_identical_over_the_shard_grid() {
    // Gups × Spmv: the memory-bound co-run class the sharding targets.
    for mode in MODES {
        let reference = run_corun(Benchmark::Gups, Benchmark::Spmv, mode, 1, 1);
        assert_eq!(
            reference,
            run_corun(Benchmark::Gups, Benchmark::Spmv, MODES[0], 1, 1),
            "dense co-run diverged between step modes"
        );
        assert!(f64::from_bits(reference.2) > 0.0, "the rate is live");
        for s in [1u32, 2, 4] {
            for m in &MEM_SHARDS {
                assert_eq!(
                    reference,
                    run_corun(Benchmark::Gups, Benchmark::Spmv, mode, s, *m),
                    "dense co-run ({mode:?}) diverged at s{s}/m{m}"
                );
            }
        }
    }
}

#[test]
fn latency_bound_corun_is_bit_identical_over_the_shard_grid() {
    // Gups × Sad: long-latency compute against random misses — slices
    // spend most cycles idle, exercising the sleep gates rather than
    // the service path.
    for mode in MODES {
        let reference = run_corun(Benchmark::Gups, Benchmark::Sad, mode, 1, 1);
        for s in [1u32, 4] {
            for m in &MEM_SHARDS[1..] {
                assert_eq!(
                    reference,
                    run_corun(Benchmark::Gups, Benchmark::Sad, mode, s, *m),
                    "latency co-run ({mode:?}) diverged at s{s}/m{m}"
                );
            }
        }
    }
}

#[test]
fn alone_suite_is_bit_identical_across_mem_shards() {
    // Every workload in the suite, alone, both step modes, m1 vs m4.
    for mode in MODES {
        for bench in Benchmark::ALL {
            let run = |m: u32| {
                let mut gpu = device(cfg4(), mode, 1, m);
                gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
                gpu.partition_even();
                gpu.run(MAX_CYCLES).expect("alone run finishes");
                (gpu.stats().clone(), gpu.cycle())
            };
            assert_eq!(
                run(1),
                run(4),
                "{bench:?} ({mode:?}): stats/cycle diverged at 4 mem shards"
            );
        }
    }
}

#[test]
fn smra_run_is_bit_identical_across_mem_shards() {
    let run = |mode: StepMode, s: u32, m: u32| -> (SimStats, u64, Vec<SmraAction>) {
        let mut gpu = device(cfg4(), mode, s, m);
        let a = gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
        let b = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        let params = SmraParams {
            tc: 400, // small window: many controller invocations
            ..SmraParams::for_device(gpu.config().num_sms, 2)
        };
        let mut ctl = SmraController::new(params, vec![a, b], &gpu);
        ctl.run_to_completion(&mut gpu, MAX_CYCLES).expect("smra run");
        (gpu.stats().clone(), gpu.cycle(), ctl.actions().to_vec())
    };
    for mode in MODES {
        let (ref_stats, ref_cyc, ref_actions) = run(mode, 1, 1);
        for (s, m) in [(1u32, 2u32), (1, 4), (4, 4)] {
            let (stats, cyc, actions) = run(mode, s, m);
            assert_eq!(
                ref_actions, actions,
                "SMRA decision trace ({mode:?}) diverged at s{s}/m{m}"
            );
            assert_eq!(ref_cyc, cyc, "SMRA final cycle ({mode:?}) diverged at s{s}/m{m}");
            assert_eq!(ref_stats, stats, "SMRA SimStats ({mode:?}) diverged at s{s}/m{m}");
        }
    }
}

#[test]
fn authored_trace_replays_are_bit_identical_across_mem_shards() {
    let cfg = cfg4();
    let traces = [
        Arc::new(phase_shift_trace(&cfg)),
        Arc::new(tensor_mix_trace(&cfg)),
    ];
    for trace in &traces {
        for mode in MODES {
            let run = |m: u32| {
                let mut gpu = device(cfg.clone(), mode, 1, m);
                gpu.launch_traced(Arc::clone(trace)).expect("launch traced");
                gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch co-runner");
                gpu.partition_even();
                gpu.run(MAX_CYCLES).expect("replay co-run finishes");
                (gpu.stats().clone(), gpu.cycle())
            };
            let reference = run(1);
            for m in &MEM_SHARDS[1..] {
                assert_eq!(
                    reference,
                    run(*m),
                    "{} replay ({mode:?}) diverged at {m} mem shards",
                    trace.kernel_desc().name
                );
            }
        }
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_mem_shards() {
    // The memory fault windows drive `set_extra_latency`/`set_mshr_cap`
    // mid-run — exactly the knobs that invalidate the phase-M sleep
    // gates. A stale gate would skip a tick the reference performs and
    // diverge here.
    let plan = || {
        FaultPlan::new()
            .disable_sm(2_000, 0)
            .mem_latency_window(5_000, 20_000, 40, 80)
            .mshr_window(8_000, 25_000, 2)
            .enable_sm(30_000, 0)
    };
    for mode in MODES {
        for bench in [Benchmark::Gups, Benchmark::Spmv] {
            let run = |s: u32, m: u32| {
                let mut gpu = device(cfg4(), mode, s, m);
                gpu.install_fault_plan(plan()).expect("valid plan");
                gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
                gpu.partition_even();
                gpu.run(MAX_CYCLES).expect("faulted run finishes");
                (gpu.stats().clone(), gpu.cycle())
            };
            let reference = run(1, 1);
            for (s, m) in [(1u32, 2u32), (1, 4), (4, 2), (4, 4)] {
                assert_eq!(
                    reference,
                    run(s, m),
                    "{bench:?} faulted run ({mode:?}) diverged at s{s}/m{m}"
                );
            }
        }
    }
}

#[test]
fn profiler_phase_totals_are_mem_shard_invariant_and_account_every_cycle() {
    // Phase-M work must land under `l2`/`dram`, never `idle`: the
    // classifier reads `is_idle`/`any_dram_queued`, which dispatch over
    // the cells, so `sum(phases) == cycles` has to keep holding.
    let run = |s: u32, m: u32| {
        let mut gpu = device(cfg4(), StepMode::EventHorizon, s, m);
        gpu.set_profiling(true);
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch a");
        gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("launch b");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("profiled co-run finishes");
        let phases = gpu.phase_cycles().expect("profiling was on");
        (gpu.stats().clone(), gpu.cycle(), phases)
    };
    let (ref_stats, ref_cyc, ref_phases) = run(1, 1);
    assert_eq!(
        ref_phases.total(),
        ref_cyc,
        "reference profiler lost cycles: {ref_phases:?}"
    );
    for (s, m) in [(1u32, 2u32), (1, 4), (4, 4)] {
        let (stats, cyc, phases) = run(s, m);
        assert_eq!(
            phases.total(),
            cyc,
            "profiler lost cycles at s{s}/m{m}: {phases:?}"
        );
        assert_eq!(ref_phases, phases, "phase totals diverged at s{s}/m{m}");
        assert_eq!(ref_cyc, cyc, "profiled final cycle diverged at s{s}/m{m}");
        assert_eq!(ref_stats, stats, "profiled SimStats diverged at s{s}/m{m}");
    }
}

#[test]
fn recording_runs_ignore_mem_sharding_and_produce_identical_traces() {
    let record = |m: u32| {
        let mut gpu = device(cfg4(), StepMode::EventHorizon, 1, m);
        let a = gpu.launch(Benchmark::Blk.kernel(Scale::TEST)).expect("launch");
        gpu.enable_trace_recording(a).expect("recording");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("co-runner");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("recording run finishes");
        let trace = gpu.take_trace(a).expect("recording was on");
        (trace.encode(), gpu.stats().clone(), gpu.cycle())
    };
    let reference = record(1);
    for m in &MEM_SHARDS[1..] {
        assert_eq!(
            reference,
            record(*m),
            "recording run diverged at {m} mem shards"
        );
    }
}

#[test]
fn threaded_cells_match_inline_cells_and_the_reference() {
    // Worker threads tick the memory shards through the epoch slots;
    // the inline (SeqExec / workers = 1) path ticks them in the
    // coordinator. Both must equal the unsharded reference.
    let run = |s: u32, m: u32, workers: u32| {
        let mut gpu = device(cfg4(), StepMode::EventHorizon, s, m);
        gpu.set_shard_workers(workers);
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch a");
        gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("launch b");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("threaded co-run finishes");
        (gpu.stats().clone(), gpu.cycle())
    };
    let reference = run(1, 1, 1);
    for (s, m, workers) in [(4u32, 4u32, 1u32), (4, 4, 2), (4, 2, 4), (2, 4, 2)] {
        assert_eq!(
            reference,
            run(s, m, workers),
            "run diverged at s{s}/m{m} with {workers} workers"
        );
    }
}

#[test]
fn mem_shard_setting_is_clamped_and_reported() {
    let mut gpu = Gpu::new(cfg4()).expect("device");
    assert_eq!(gpu.mem_shards(), 1, "memory sharding must default off");
    gpu.set_mem_shards(0);
    assert_eq!(gpu.mem_shards(), 1);
    gpu.set_mem_shards(1_000);
    assert_eq!(
        gpu.mem_shards(),
        gpu.config().num_mem_ctrls,
        "memory shard count clamps to the slice count"
    );
    gpu.set_mem_shards(2);
    assert_eq!(gpu.mem_shards(), 2);
}
