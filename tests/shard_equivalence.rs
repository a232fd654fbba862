//! Shard-count equivalence on the one stepping engine.
//!
//! This suite once pinned sharded-SM stepping against the unsharded
//! reference at shard counts 1, 2 and 4. The sharded lane lost to one
//! thread on every measured point and was deleted (DESIGN.md §12); the
//! device now always steps as a single cell, and `Gpu::shards()`,
//! `mem_shards()` and `shard_workers()` read 1. The contract the suite
//! pinned still holds: every [`SimStats`] counter, the final device
//! cycle, every SMRA decision and every recorded trace byte are the
//! reference values. Each scenario — the 14-workload suite alone, an
//! Even co-run, an SMRA-controlled run, authored-trace replays, fault
//! plans, the phase profiler, a recording run and a multi-issue device —
//! runs on a device that reports the single-cell plan, and must be
//! bit-identical between `StepMode::Cycle` (the oracle) and
//! `StepMode::EventHorizon`.

use std::sync::Arc;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, StepMode};
use gcs_sim::stats::SimStats;
use gcs_sim::{FaultPlan, KernelTrace};
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

const MAX_CYCLES: u64 = 50_000_000;

/// A device in `mode` that steps as one cell.
fn device(cfg: GpuConfig, mode: StepMode) -> Gpu {
    let mut gpu = Gpu::new(cfg).expect("device");
    gpu.set_step_mode(mode);
    assert_eq!(
        (gpu.shards(), gpu.mem_shards(), gpu.shard_workers()),
        (1, 1, 1),
        "the device steps as a single cell"
    );
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

fn run_alone(bench: Benchmark, mode: StepMode) -> (SimStats, u64) {
    let mut gpu = device(GpuConfig::test_small(), mode);
    gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("alone run finishes");
    (gpu.stats().clone(), gpu.cycle())
}

fn run_pair(cfg: GpuConfig, a: Benchmark, b: Benchmark, mode: StepMode) -> (SimStats, u64) {
    let mut gpu = device(cfg, mode);
    gpu.launch(a.kernel(Scale::TEST)).expect("launch a");
    gpu.launch(b.kernel(Scale::TEST)).expect("launch b");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("co-run finishes");
    (gpu.stats().clone(), gpu.cycle())
}

fn run_smra(mode: StepMode) -> (SimStats, u64, Vec<SmraAction>) {
    let mut gpu = device(GpuConfig::test_small(), mode);
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
}

fn run_replay(trace: &Arc<KernelTrace>, mode: StepMode) -> (SimStats, u64) {
    let mut gpu = device(GpuConfig::test_small(), mode);
    gpu.launch_traced(Arc::clone(trace)).expect("launch traced");
    gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("launch co-runner");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("replay co-run finishes");
    (gpu.stats().clone(), gpu.cycle())
}

#[test]
fn alone_runs_are_bit_identical_across_shard_counts() {
    for bench in Benchmark::ALL {
        cycle_matches_horizon(&format!("{bench:?} alone"), |mode| run_alone(bench, mode));
    }
}

#[test]
fn even_corun_is_bit_identical_across_shard_counts() {
    cycle_matches_horizon("GUPS x SPMV even co-run", |mode| {
        run_pair(GpuConfig::test_small(), Benchmark::Gups, Benchmark::Spmv, mode)
    });
}

#[test]
fn smra_run_is_bit_identical_across_shard_counts() {
    // The action list comes first: a diverging decision means the
    // controller observed different samples.
    cycle_matches_horizon("SMRA run", |mode| {
        let (stats, cycle, actions) = run_smra(mode);
        (actions, cycle, stats)
    });
}

#[test]
fn authored_trace_replays_are_bit_identical_across_shard_counts() {
    let cfg = GpuConfig::test_small();
    for trace in [phase_shift_trace(&cfg), tensor_mix_trace(&cfg)] {
        let trace = Arc::new(trace);
        let what = format!("{} replay", trace.kernel_desc().name);
        cycle_matches_horizon(&what, |mode| run_replay(&trace, mode));
    }
}

#[test]
fn faulted_runs_are_bit_identical_across_shard_counts() {
    // All three fault kinds: a drain-based disable, memory latency and
    // MSHR windows, and a recovery handed back mid-run.
    let plan = || {
        FaultPlan::new()
            .disable_sm(2_000, 0)
            .mem_latency_window(5_000, 20_000, 40, 80)
            .mshr_window(8_000, 25_000, 2)
            .enable_sm(30_000, 0)
    };
    for bench in [Benchmark::Gups, Benchmark::Spmv] {
        cycle_matches_horizon(&format!("{bench:?} faulted run"), |mode| {
            let mut gpu = device(GpuConfig::test_small(), mode);
            gpu.install_fault_plan(plan()).expect("valid plan");
            gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
            gpu.partition_even();
            gpu.run(MAX_CYCLES).expect("faulted run finishes");
            (gpu.stats().clone(), gpu.cycle())
        });
    }
}

#[test]
fn profiler_phase_totals_are_shard_invariant_and_account_every_cycle() {
    let run = |mode| {
        let mut gpu = device(GpuConfig::test_small(), mode);
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
    };
    // No `run_for` window clamps a jump here, so every phase bucket,
    // not just the issue cycles, must match the oracle.
    cycle_matches_horizon("profiled co-run", run);
}

#[test]
fn recording_runs_ignore_sharding_and_produce_identical_traces() {
    // BLK recorded next to GUPS: the trace bytes must not depend on the
    // step mode, and replaying them next to the same partner must
    // reproduce the recording run's stats and final cycle.
    let record = |mode| {
        let mut gpu = device(GpuConfig::test_small(), mode);
        let a = gpu.launch(Benchmark::Blk.kernel(Scale::TEST)).expect("launch");
        gpu.enable_trace_recording(a).expect("recording");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("co-runner");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("recording run finishes");
        let trace = gpu.take_trace(a).expect("recording was on");
        (trace.encode(), gpu.stats().clone(), gpu.cycle())
    };
    let recorded = record(StepMode::Cycle);
    assert!(
        recorded == record(StepMode::EventHorizon),
        "recording run diverged between step modes"
    );
    let (bytes, stats, cycle) = recorded;
    let trace = Arc::new(KernelTrace::decode(&bytes).expect("recorded trace decodes"));
    for mode in [StepMode::Cycle, StepMode::EventHorizon] {
        assert_eq!(
            run_replay(&trace, mode),
            (stats.clone(), cycle),
            "replay ({mode:?}) diverged from the recording run"
        );
    }
}

#[test]
fn multi_issue_device_is_bit_identical_across_shard_counts() {
    // issue_per_sm > 1: `Sm::issue` spends the SM's whole issue budget
    // against the live memory system within one cycle.
    let cfg = GpuConfig {
        issue_per_sm: 2,
        ..GpuConfig::test_small()
    };
    cycle_matches_horizon("multi-issue co-run", |mode| {
        run_pair(cfg.clone(), Benchmark::Gups, Benchmark::Sad, mode)
    });
}
