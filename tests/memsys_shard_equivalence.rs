//! Memory-shard equivalence on the one stepping engine.
//!
//! This suite once pinned sharded memory-system stepping (the L2/DRAM
//! slices split into cells, their stats folded back serially) against
//! the unsharded reference over a grid of memory and SM shard counts.
//! That lane was deleted with the sharded SM lane (DESIGN.md §12): the
//! device ticks every slice itself, through one set of sleep gates, and
//! `Gpu::mem_shards()` reads 1. The contract still holds: every
//! [`SimStats`] counter, the final device cycle, every SMRA decision and
//! every recorded trace byte are the reference values. Each scenario
//! runs on the small device widened to four memory controllers — dense
//! and latency-bound co-runs, the suite alone, SMRA control,
//! authored-trace replays, fault plans (whose mid-run memory knobs must
//! reset the sleep gates), the phase profiler and a recording run — and
//! must be bit-identical between `StepMode::Cycle` (the oracle) and
//! `StepMode::EventHorizon`.

use std::sync::Arc;

use gcs_core::smra::{SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, StepMode};
use gcs_sim::stats::SimStats;
use gcs_sim::FaultPlan;
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

const MAX_CYCLES: u64 = 50_000_000;

/// The small test device, widened to four memory controllers so a run's
/// traffic spreads over four slices (stock `test_small` has two).
fn cfg4() -> GpuConfig {
    GpuConfig {
        num_mem_ctrls: 4,
        ..GpuConfig::test_small()
    }
}

/// A four-controller device in `mode` whose memory system is one cell.
fn device(mode: StepMode) -> Gpu {
    let mut gpu = Gpu::new(cfg4()).expect("device");
    gpu.set_step_mode(mode);
    assert_eq!(gpu.mem_shards(), 1, "the memory system is a single cell");
    gpu
}

/// Runs `run` in both step modes and asserts the results are equal.
fn cycle_matches_horizon<T: PartialEq + std::fmt::Debug>(what: &str, run: impl Fn(StepMode) -> T) {
    assert_eq!(
        run(StepMode::Cycle),
        run(StepMode::EventHorizon),
        "{what}: event-horizon stepping diverged from the cycle oracle"
    );
}

/// Stats, final cycle and the bits of the `l2_hit_rate` diagnostic —
/// requests are tallied once, at consumption, so the rate is as
/// step-mode independent as the stats are.
fn run_corun(a: Benchmark, b: Benchmark, mode: StepMode) -> (SimStats, u64, u64) {
    let mut gpu = device(mode);
    gpu.launch(a.kernel(Scale::TEST)).expect("launch a");
    gpu.launch(b.kernel(Scale::TEST)).expect("launch b");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("co-run finishes");
    let hit_rate = gpu.l2_hit_rate().to_bits();
    (gpu.stats().clone(), gpu.cycle(), hit_rate)
}

#[test]
fn dense_issue_corun_is_bit_identical_over_the_shard_grid() {
    // Gups × Spmv: the memory-bound co-run class.
    let (_, _, hit_rate) = run_corun(Benchmark::Gups, Benchmark::Spmv, StepMode::EventHorizon);
    assert!(f64::from_bits(hit_rate) > 0.0, "the rate is live");
    cycle_matches_horizon("dense co-run", |mode| {
        run_corun(Benchmark::Gups, Benchmark::Spmv, mode)
    });
}

#[test]
fn latency_bound_corun_is_bit_identical_over_the_shard_grid() {
    // Gups × Sad: long-latency compute against random misses — slices
    // spend most cycles idle, exercising the sleep gates rather than
    // the service path.
    cycle_matches_horizon("latency-bound co-run", |mode| {
        run_corun(Benchmark::Gups, Benchmark::Sad, mode)
    });
}

#[test]
fn alone_suite_is_bit_identical_across_mem_shards() {
    for bench in Benchmark::ALL {
        cycle_matches_horizon(&format!("{bench:?} alone"), |mode| {
            let mut gpu = device(mode);
            gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
            gpu.partition_even();
            gpu.run(MAX_CYCLES).expect("alone run finishes");
            (gpu.stats().clone(), gpu.cycle())
        });
    }
}

#[test]
fn smra_run_is_bit_identical_across_mem_shards() {
    cycle_matches_horizon("SMRA run", |mode| {
        let mut gpu = device(mode);
        let a = gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
        let b = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        let params = SmraParams {
            tc: 400, // small window: many controller invocations
            ..SmraParams::for_device(gpu.config().num_sms, 2)
        };
        let mut ctl = SmraController::new(params, vec![a, b], &gpu);
        ctl.run_to_completion(&mut gpu, MAX_CYCLES).expect("smra run");
        // The action list comes first: a diverging decision means the
        // controller observed different samples.
        (ctl.actions().to_vec(), gpu.cycle(), gpu.stats().clone())
    });
}

#[test]
fn authored_trace_replays_are_bit_identical_across_mem_shards() {
    let cfg = cfg4();
    for trace in [phase_shift_trace(&cfg), tensor_mix_trace(&cfg)] {
        let trace = Arc::new(trace);
        let what = format!("{} replay", trace.kernel_desc().name);
        cycle_matches_horizon(&what, |mode| {
            let mut gpu = device(mode);
            gpu.launch_traced(Arc::clone(&trace)).expect("launch traced");
            gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch co-runner");
            gpu.partition_even();
            gpu.run(MAX_CYCLES).expect("replay co-run finishes");
            (gpu.stats().clone(), gpu.cycle())
        });
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_mem_shards() {
    // The memory fault windows drive `set_extra_latency`/`set_mshr_cap`
    // mid-run — exactly the knobs that invalidate the slice sleep
    // gates. A stale gate would skip a tick the oracle performs and
    // diverge here.
    let plan = || {
        FaultPlan::new()
            .disable_sm(2_000, 0)
            .mem_latency_window(5_000, 20_000, 40, 80)
            .mshr_window(8_000, 25_000, 2)
            .enable_sm(30_000, 0)
    };
    for bench in [Benchmark::Gups, Benchmark::Spmv] {
        cycle_matches_horizon(&format!("{bench:?} faulted run"), |mode| {
            let mut gpu = device(mode);
            gpu.install_fault_plan(plan()).expect("valid plan");
            gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
            gpu.partition_even();
            gpu.run(MAX_CYCLES).expect("faulted run finishes");
            (gpu.stats().clone(), gpu.cycle())
        });
    }
}

#[test]
fn profiler_phase_totals_are_mem_shard_invariant_and_account_every_cycle() {
    // Slice work must land under `l2`/`dram`, never `idle`: the
    // classifier reads `is_idle`/`any_dram_queued` over every slice, so
    // `sum(phases) == cycles` has to keep holding.
    cycle_matches_horizon("profiled co-run", |mode| {
        let mut gpu = device(mode);
        gpu.set_profiling(true);
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch a");
        gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("launch b");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("profiled co-run finishes");
        let phases = gpu.phase_cycles().expect("profiling was on");
        assert_eq!(
            phases.total(),
            gpu.cycle(),
            "profiler lost cycles ({mode:?}): {phases:?}"
        );
        (gpu.stats().clone(), gpu.cycle(), phases)
    });
}

#[test]
fn recording_runs_ignore_mem_sharding_and_produce_identical_traces() {
    cycle_matches_horizon("recording run", |mode| {
        let mut gpu = device(mode);
        let a = gpu.launch(Benchmark::Blk.kernel(Scale::TEST)).expect("launch");
        gpu.enable_trace_recording(a).expect("recording");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("co-runner");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("recording run finishes");
        let trace = gpu.take_trace(a).expect("recording was on");
        (trace.encode(), gpu.stats().clone(), gpu.cycle())
    });
}
