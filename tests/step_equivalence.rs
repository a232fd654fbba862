//! Step-mode equivalence: event-horizon stepping must be bit-identical
//! to cycle-by-cycle stepping.
//!
//! `StepMode::EventHorizon` (the default) jumps the device clock over
//! every cycle in which nothing can happen, and visits only the SMs its
//! activity summaries name (ready, dispatch candidates, sleepers due).
//! The engine's contract is that this is *purely* a wall-clock
//! optimization: every `SimStats` counter and the final device cycle
//! are exactly what the slow reference, `StepMode::Cycle`, produces.
//!
//! The first half of this suite checks the scenario table in
//! `tests/common/scenario.rs`, whose rendering is the golden file
//! `tests/golden/engine_stats.txt`; each test names the rows it covers.
//! The second half drives every path that can make an unvisited SM act
//! — ownership calls between windows, handoffs on drain, reassignment on
//! finish, fault outages, late launches, trace replay, a bare `step()`
//! after a mutating call, far sleepers — directed and then interleaved
//! at random, and compares the two lanes with the table's runner.

#[macro_use]
#[path = "common/scenario.rs"]
mod scenario;

use std::sync::Arc;

use gcs_sim::config::GpuConfig;
use gcs_sim::fault::FaultPlan;
use gcs_sim::gpu::{Gpu, StepMode, MAX_APPS};
use gcs_sim::kernel::{AccessPattern, AppId, KernelDesc, Op, PatternId};
use gcs_sim::rng::SimRng;
use gcs_workloads::phase_shift_trace;

use scenario::{cycle_matches_horizon, device, Run, MAX_CYCLES};

// ----------------------------------------------------------------------
// The scenario table: each test checks the rows it names, and a name
// ending in `/` selects every row under that prefix. The shard suites,
// `chaos.rs` and `trace_roundtrip.rs` select the rows added for them.
// ----------------------------------------------------------------------

select_rows! {
    alone_runs_are_bit_identical_across_step_modes: "alone/";
    even_corun_is_bit_identical_across_step_modes: "even/GUPS+SPMV", "even4/GUPS+SPMV", "even4/GUPS+SAD";
    smra_run_with_small_window_is_bit_identical_across_step_modes: "smra/";
    golden_corpus_matches_both_step_modes: "fault/", "fault4/", "replay/";
    profiled_smra_runs_account_every_cycle_in_both_modes: "profile/smra/";
}

#[test]
fn event_horizon_is_the_default_mode() {
    let gpu = Gpu::new(GpuConfig::test_small()).expect("device");
    assert_eq!(gpu.step_mode(), StepMode::EventHorizon);
}

// ----------------------------------------------------------------------
// Activity-summary invalidation paths.
// ----------------------------------------------------------------------

/// Runs `script` on a fresh profiled test device in both step modes and
/// asserts identical `SimStats` and final cycle, with the phases summing
/// to the final cycle in each mode and matching under
/// `assert_phases_match` (a script may clamp jumps with `run_for`). The
/// script drives the device through the public API only, so whatever it
/// observes (cycles, diagnostics) reads the same in both modes as long
/// as they agree.
fn both_modes(name: &str, script: impl Fn(&mut Gpu)) {
    cycle_matches_horizon(name, true, |mode| {
        let mut gpu = device(GpuConfig::test_small(), mode);
        gpu.set_profiling(true);
        script(&mut gpu);
        Run {
            gpu,
            actions: Vec::new(),
            trace: None,
        }
    });
}

fn kernel(name: &str, blocks: u32, iters: u32, body: Vec<Op>) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_blocks: blocks,
        warps_per_block: 2,
        iters_per_warp: iters,
        body,
        patterns: vec![
            AccessPattern::streaming(1 << 22),
            AccessPattern::random(1 << 22, 4),
        ],
        active_lanes: 32,
    }
}

/// Loads, an ALU op and a store: exercises responses, sleepers and
/// back-pressure.
fn mem_kernel(name: &str, blocks: u32) -> KernelDesc {
    kernel(
        name,
        blocks,
        12,
        vec![
            Op::Load(PatternId(0)),
            Op::Alu { latency: 4 },
            Op::Store(PatternId(1)),
        ],
    )
}

fn alu_kernel(name: &str, blocks: u32) -> KernelDesc {
    kernel(name, blocks, 10, vec![Op::Alu { latency: 6 }])
}

/// Finishes whatever the script left running.
fn finish(gpu: &mut Gpu) {
    gpu.run(MAX_CYCLES).expect("run finishes");
}

#[test]
fn ownership_calls_between_windows_match_cycle_stepping() {
    both_modes("assign / partition_counts / transfer", |gpu| {
        // `a` dispatches its last block early and drains SM by SM; `b`
        // has blocks to spare; SMs 6 and 7 start unowned.
        let a = gpu.launch(mem_kernel("a", 5)).unwrap();
        let b = gpu.launch(mem_kernel("b", 48)).unwrap();
        gpu.partition_counts(&[4, 2]);
        gpu.run_for(150);
        // Unowned → owned: SMs that were in no summary become
        // dispatch candidates at once.
        gpu.assign_sms(b, &[6, 7]);
        gpu.run_for(150);
        // Wait until one of `a`'s SMs is empty while `a` still runs, so
        // the transfer hands it over immediately rather than on drain.
        while !gpu.app_finished(a)
            && !gpu
                .diagnostics()
                .sms
                .iter()
                .any(|s| s.owner == Some(a.0) && s.live_warps == 0)
        {
            gpu.run_for(20);
        }
        gpu.transfer_sms(a, b, 4);
        gpu.run_for(300);
        gpu.partition_counts(&[2, 5]);
        finish(gpu);
    });
}

#[test]
fn handoff_completing_on_drain_matches_cycle_stepping() {
    both_modes("handoff on drain", |gpu| {
        let a = gpu.launch(mem_kernel("a", 32)).unwrap();
        let b = gpu.launch(alu_kernel("b", 48)).unwrap();
        gpu.partition_even();
        gpu.run_for(200);
        // Busy SMs: the handoff completes at a block retirement.
        assert_eq!(gpu.transfer_sms(a, b, 3), 3);
        finish(gpu);
    });
}

#[test]
fn reassign_on_finish_matches_cycle_stepping() {
    both_modes("reassign on finish", |gpu| {
        gpu.launch(alu_kernel("short", 4)).unwrap();
        let long = gpu.launch(mem_kernel("long", 64)).unwrap();
        gpu.partition_even();
        finish(gpu);
        assert_eq!(gpu.sm_count(long), 8, "the finished app's SMs flowed over");
    });
}

#[test]
fn fault_outage_and_recovery_match_cycle_stepping() {
    both_modes("fault disable / re-enable", |gpu| {
        gpu.launch(mem_kernel("a", 40)).unwrap();
        gpu.launch(mem_kernel("b", 40)).unwrap();
        gpu.partition_even();
        // SM 0 drains out of service and comes back through
        // `hand_recovered_sm`; SM 5 goes out while idle-owned.
        let plan = FaultPlan::new()
            .disable_sm(60, 0)
            .disable_sm(70, 5)
            .enable_sm(900, 0)
            .enable_sm(1_400, 5);
        gpu.install_fault_plan(plan).unwrap();
        finish(gpu);
    });
}

#[test]
fn launch_after_a_run_matches_cycle_stepping() {
    both_modes("launch after a run", |gpu| {
        gpu.launch(mem_kernel("first", 12)).unwrap();
        gpu.partition_even();
        finish(gpu);
        gpu.launch(alu_kernel("second", 16)).unwrap();
        gpu.launch(mem_kernel("third", 16)).unwrap();
        gpu.partition_counts(&[0, 4, 4]);
        finish(gpu);
    });
}

#[test]
fn trace_replay_matches_cycle_stepping() {
    let trace = Arc::new(phase_shift_trace(&GpuConfig::test_small()));
    both_modes("trace replay", |gpu| {
        gpu.launch_traced(Arc::clone(&trace)).unwrap();
        gpu.launch(mem_kernel("partner", 16)).unwrap();
        gpu.partition_even();
        gpu.run_for(500);
        gpu.transfer_sms(AppId(1), AppId(0), 2);
        finish(gpu);
    });
}

#[test]
fn bare_step_after_a_mutating_call_matches_cycle_stepping() {
    both_modes("step() after a mutating call", |gpu| {
        let a = gpu.launch(mem_kernel("a", 24)).unwrap();
        let b = gpu.launch(mem_kernel("b", 24)).unwrap();
        gpu.partition_counts(&[3, 3]);
        gpu.run_for(100);
        gpu.assign_sms(a, &[6, 7]);
        gpu.step();
        gpu.step();
        gpu.transfer_sms(a, b, 2);
        gpu.step();
        let late = gpu.launch(alu_kernel("late", 8)).unwrap();
        gpu.assign_sms(late, &[0]);
        gpu.step();
        finish(gpu);
    });
}

#[test]
fn far_sleepers_match_cycle_stepping() {
    // ALU latencies around and past the 64-cycle wake ring: sleepers
    // filed in the ring, on its last slot, and in the overflow set.
    for latency in [63, 64, 65, 127, 200, 255] {
        both_modes(&format!("ALU latency {latency}"), |gpu| {
            let body = vec![Op::Alu { latency }, Op::Load(PatternId(0))];
            gpu.launch(kernel("far", 12, 6, body)).unwrap();
            gpu.launch(alu_kernel("near", 12)).unwrap();
            gpu.partition_even();
            finish(gpu);
        });
    }
}

/// Loads whose warps share lines (a tiled pattern, four lines per
/// access, each warp one line past its neighbour) and never draw from
/// the RNG, so a refused load is kept: a neighbour's accepted load fills
/// lines the kept one targets between its retries.
fn shared_line_loads(name: &str, blocks: u32) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_blocks: blocks,
        warps_per_block: 8,
        iters_per_warp: 12,
        body: vec![Op::Load(PatternId(0)), Op::Alu { latency: 2 }],
        patterns: vec![AccessPattern {
            transactions: 4,
            ..AccessPattern::tiled(1 << 22, 16 << 10)
        }],
        active_lanes: 32,
    }
}

/// Random stores and loads, eight lines an access, from many warps:
/// keeps both slices' input queues at their depth, so loads next to it
/// are refused by back-pressure again and again.
fn slice_hog(name: &str, blocks: u32) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_blocks: blocks,
        warps_per_block: 8,
        iters_per_warp: 6,
        body: vec![Op::Store(PatternId(0)), Op::Load(PatternId(0))],
        patterns: vec![AccessPattern::random(1 << 28, 8)],
        active_lanes: 32,
    }
}

#[test]
fn kept_rejections_match_cycle_stepping() {
    // Event-horizon stepping keeps a refused deterministic load and
    // retries it with one admission test; cycle stepping regenerates
    // every retry. Each script makes the kept record go stale a
    // different way, and the debug oracle re-derives every kept retry.
    both_modes(
        "kept rejections: a neighbour's fill between retries",
        |gpu| {
            gpu.launch(shared_line_loads("loads", 8)).unwrap();
            gpu.launch(slice_hog("hog", 16)).unwrap();
            gpu.partition_even();
            finish(gpu);
        },
    );
    both_modes("kept rejections: a handoff flush", |gpu| {
        let loads = gpu.launch(shared_line_loads("loads", 12)).unwrap();
        let hog = gpu.launch(slice_hog("hog", 16)).unwrap();
        gpu.partition_even();
        gpu.run_for(200);
        // The hog's SMs drain, flush their L1 and take the loads' blocks.
        gpu.transfer_sms(hog, loads, 2);
        gpu.run_for(200);
        gpu.transfer_sms(loads, hog, 3);
        finish(gpu);
    });
    // With a recorder on, and again replaying what it recorded, every
    // retry regenerates (the trace counts attempts) — in both modes.
    let recorded = cycle_matches_horizon("kept rejections: recording", true, |mode| {
        let mut gpu = device(GpuConfig::test_small(), mode);
        let loads = gpu.launch(shared_line_loads("loads", 8)).unwrap();
        gpu.launch(slice_hog("hog", 16)).unwrap();
        gpu.enable_trace_recording(loads).unwrap();
        gpu.partition_even();
        finish(&mut gpu);
        let trace = gpu.take_trace(loads);
        Run {
            gpu,
            actions: Vec::new(),
            trace,
        }
    });
    let trace = Arc::new(recorded[0].trace.clone().expect("recording was on"));
    let [replayed, _] = cycle_matches_horizon("kept rejections: replay", true, |mode| {
        let mut gpu = device(GpuConfig::test_small(), mode);
        gpu.launch_traced(Arc::clone(&trace)).unwrap();
        gpu.launch(slice_hog("hog", 16)).unwrap();
        gpu.partition_even();
        finish(&mut gpu);
        Run {
            gpu,
            actions: Vec::new(),
            trace: None,
        }
    });
    assert_eq!(
        (replayed.gpu.stats(), replayed.gpu.cycle()),
        (recorded[0].gpu.stats(), recorded[0].gpu.cycle()),
        "the replay reproduces the recording run"
    );
}

/// Cases of the randomized interleaving (each ≈ 30 operations).
const RANDOM_CASES: u64 = if cfg!(feature = "proptest-tests") {
    48
} else {
    6
};

/// A random small kernel: loads, stores, barriers and ALU ops with
/// latencies on both sides of the wake ring.
fn random_kernel(rng: &mut SimRng, name: &str) -> KernelDesc {
    let mut body = Vec::new();
    for _ in 0..1 + rng.gen_range(3) {
        body.push(match rng.gen_range(5) {
            0 => Op::Load(PatternId(0)),
            1 => Op::Load(PatternId(1)),
            2 => Op::Store(PatternId(0)),
            3 => Op::Barrier,
            _ => Op::Alu {
                latency: [1, 4, 40, 63, 64, 90, 250][rng.gen_range(7) as usize],
            },
        });
    }
    kernel(
        name,
        2 + rng.gen_range(24) as u32,
        2 + rng.gen_range(10) as u32,
        body,
    )
}

/// One random op sequence, a pure function of `seed` and the device
/// state it observes.
fn random_script(seed: u64, gpu: &mut Gpu) {
    let mut rng = SimRng::seed_from_u64(0xAC71_0000 + seed);
    let n = gpu.config().num_sms;
    for i in 0..2 {
        let k = random_kernel(&mut rng, &format!("k{i}"));
        gpu.launch(k).unwrap();
    }
    gpu.partition_even();
    let mut faulted = false;
    for _ in 0..30 {
        let apps = gpu.num_apps() as u64;
        let app = AppId(rng.gen_range(apps) as u16);
        match rng.gen_range(9) {
            0 | 1 => gpu.run_for(1 + rng.gen_range(400)),
            2 => {
                let ids: Vec<u32> = (0..n)
                    .filter(|&s| gpu.sm_in_service(s) && rng.gen_range(3) == 0)
                    .collect();
                gpu.assign_sms(app, &ids);
            }
            3 => {
                let mut left = u64::from(gpu.num_enabled_sms());
                let counts: Vec<u32> = (0..apps)
                    .map(|_| {
                        let c = rng.gen_range(left + 1);
                        left -= c;
                        c as u32
                    })
                    .collect();
                gpu.partition_counts(&counts);
            }
            4 => gpu.partition_even(),
            5 => {
                let to = AppId(rng.gen_range(apps) as u16);
                gpu.transfer_sms(app, to, rng.gen_range(4) as u32);
            }
            6 if gpu.num_apps() < MAX_APPS => {
                let k = random_kernel(&mut rng, &format!("late{}", gpu.num_apps()));
                gpu.launch(k).unwrap();
            }
            7 => {
                for _ in 0..1 + rng.gen_range(3) {
                    gpu.step();
                }
            }
            8 if !faulted => {
                faulted = true;
                let (sm, at) = (
                    rng.gen_range(u64::from(n)) as u32,
                    gpu.cycle() + rng.gen_range(200),
                );
                let plan = FaultPlan::new()
                    .disable_sm(at, sm)
                    .enable_sm(at + 1 + rng.gen_range(2_000), sm);
                gpu.install_fault_plan(plan).unwrap();
            }
            _ => gpu.run_for(64),
        }
    }
    // Everyone gets SMs before the drain, so the run cannot deadlock on
    // an app the script left without any.
    gpu.partition_even();
    finish(gpu);
}

#[test]
fn random_interleavings_of_invalidation_paths_match_cycle_stepping() {
    for seed in 0..RANDOM_CASES {
        both_modes(&format!("random case {seed}"), |gpu| {
            random_script(seed, gpu)
        });
    }
}
