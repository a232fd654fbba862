//! Step-mode equivalence: event-horizon stepping must be bit-identical
//! to cycle-by-cycle stepping.
//!
//! `StepMode::EventHorizon` (the default) jumps the device clock over
//! every cycle in which nothing can happen — including memory-bound
//! stretches where all warps wait on DRAM. The engine's contract is
//! that this is *purely* a wall-clock optimization: every counter in
//! `SimStats` and the final device cycle are exactly the values the
//! slow reference (`StepMode::Cycle`) produces.
//!
//! The first half of this suite pins that contract against a golden
//! corpus, `tests/golden/engine_stats.txt`: one canonical stats line per
//! run — the 14 workloads alone, Even co-runs (dense and latency-bound,
//! on two and four memory controllers), a multi-issue device, SMRA runs
//! with their action traces (window boundaries are skip barriers, so the
//! controller must observe identical samples), fault plans that turn the
//! memory knobs mid-run, and the two authored trace replays. Every line
//! is regenerated under both step modes and must match the file byte for
//! byte, so the engine cannot drift even when both modes drift together.
//!
//! The event-horizon lane also visits only the SMs its activity
//! summaries name (ready, dispatch candidates, sleepers due), while
//! `StepMode::Cycle` visits every SM. The second half of this suite
//! drives every path that can make an unvisited SM act — ownership
//! calls between windows, handoffs on drain, reassignment on finish,
//! fault outages, late launches, trace replay, a bare `step()` after a
//! mutating call, far sleepers — directed and then interleaved at
//! random, and compares the two lanes.

use std::fmt::Write as _;
use std::sync::Arc;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::fault::FaultPlan;
use gcs_sim::gpu::{Gpu, PhaseCycles, StepMode, MAX_APPS};
use gcs_sim::kernel::{AccessPattern, AppId, KernelDesc, Op, PatternId};
use gcs_sim::rng::SimRng;
use gcs_sim::KernelTrace;
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

const MAX_CYCLES: u64 = 50_000_000;

fn device(mode: StepMode) -> Gpu {
    device_with(GpuConfig::test_small(), mode)
}

fn device_with(cfg: GpuConfig, mode: StepMode) -> Gpu {
    let mut gpu = Gpu::new(cfg).expect("device");
    gpu.set_step_mode(mode);
    gpu
}

// ----------------------------------------------------------------------
// The golden corpus: one canonical stats line per run, frozen in
// `tests/golden/engine_stats.txt`. Every line is regenerated under both
// step modes and must match the file byte for byte.
// ----------------------------------------------------------------------

const GOLDEN: &str = include_str!("golden/engine_stats.txt");

/// One corpus run: the line's leading name, and the run itself, which
/// hands back the finished device and its SMRA action log.
type Case = (String, Box<dyn Fn(StepMode) -> (Gpu, Vec<SmraAction>)>);

/// Every statistic a run produced, as one canonical line: the final
/// cycle, the bits of the `l2_hit_rate` diagnostic, the SMRA action list
/// and every per-app `SimStats` field, spelled out so that renaming a
/// field in the program does not move the file.
fn stats_line(name: &str, gpu: &Gpu, actions: &[SmraAction]) -> String {
    let mut line = format!(
        "{name} cycle={} l2_hit_bits={:016x}",
        gpu.cycle(),
        gpu.l2_hit_rate().to_bits()
    );
    for a in actions {
        match a {
            SmraAction::Hold => line.push_str(" hold"),
            SmraAction::Move { from, to, n } => write!(line, " move:{from}>{to}x{n}").unwrap(),
            SmraAction::Revert => line.push_str(" revert"),
            SmraAction::FaultDetected { surviving } => write!(line, " fault:{surviving}").unwrap(),
        }
    }
    for (id, s) in gpu.stats().iter().take(gpu.num_apps()) {
        write!(
            line,
            " {id}:warp_insts={},thread_insts={},mem_insts={},alu_insts={},l1_hits={},\
             l1_misses={},dram_read_bytes={},dram_write_bytes={},l2_to_l1_bytes={},\
             dram_row_hits={},dram_row_misses={},start_cycle={},finish_cycle={},blocks_done={}",
            s.warp_insts,
            s.thread_insts,
            s.mem_insts,
            s.alu_insts,
            s.l1_hits,
            s.l1_misses,
            s.dram_read_bytes,
            s.dram_write_bytes,
            s.l2_to_l1_bytes,
            s.dram_row_hits,
            s.dram_row_misses,
            s.start_cycle,
            s.finish_cycle,
            s.blocks_done,
        )
        .unwrap();
    }
    line
}

/// The small test device widened to four memory controllers, so a
/// co-run's traffic spreads over four slices.
fn cfg4() -> GpuConfig {
    GpuConfig {
        num_mem_ctrls: 4,
        ..GpuConfig::test_small()
    }
}

/// A fault plan of every kind, including the mid-run memory knobs
/// (`set_extra_latency`, `set_mshr_cap`) that must reset the slice gates.
fn fault_plan() -> FaultPlan {
    FaultPlan::new()
        .disable_sm(500, 0)
        .mem_latency_window(1_000, 3_000, 40, 80)
        .mshr_window(1_500, 4_000, 2)
        .enable_sm(4_500, 0)
}

/// `benches` at `Scale::TEST` on `cfg`, even split, run to completion,
/// under [`fault_plan`] when `faulted`.
fn even_case(name: String, cfg: GpuConfig, benches: Vec<Benchmark>, faulted: bool) -> Case {
    let run = move |mode| {
        let mut gpu = device_with(cfg.clone(), mode);
        if faulted {
            gpu.install_fault_plan(fault_plan()).expect("valid plan");
        }
        for b in &benches {
            gpu.launch(b.kernel(Scale::TEST)).expect("launch");
        }
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("run finishes");
        (gpu, Vec::new())
    };
    (name, Box::new(run))
}

/// `a` next to `b` at `Scale::TEST` on `cfg` under a live SMRA controller
/// with window `tc`, for `windows` windows or to completion when `None`.
fn smra_case(cfg: GpuConfig, a: Benchmark, b: Benchmark, tc: u64, windows: Option<u32>) -> Case {
    let name = format!("smra/{}+{}/{}sm", a.name(), b.name(), cfg.num_sms);
    let run = move |mode| {
        let mut gpu = device_with(cfg.clone(), mode);
        let ids = vec![
            gpu.launch(a.kernel(Scale::TEST)).expect("a"),
            gpu.launch(b.kernel(Scale::TEST)).expect("b"),
        ];
        gpu.partition_even();
        let params = SmraParams {
            tc,
            ..SmraParams::for_device(gpu.config().num_sms, 2)
        };
        let mut ctl = SmraController::new(params, ids, &gpu);
        match windows {
            None => ctl
                .run_to_completion(&mut gpu, MAX_CYCLES)
                .expect("smra run"),
            Some(n) => {
                for _ in 0..n {
                    gpu.run_for(tc);
                    if gpu.all_done() {
                        break;
                    }
                    ctl.decide(&mut gpu);
                }
            }
        }
        (gpu, ctl.actions().to_vec())
    };
    (name, Box::new(run))
}

/// An authored trace replayed next to a synthetic GUPS.
fn replay_case(trace: KernelTrace) -> Case {
    let name = format!("replay/{}+GUPS", trace.meta.name);
    let trace = Arc::new(trace);
    let run = move |mode| {
        let mut gpu = device(mode);
        gpu.launch_traced(Arc::clone(&trace))
            .expect("launch traced");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST))
            .expect("launch co-runner");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("replay co-run finishes");
        (gpu, Vec::new())
    };
    (name, Box::new(run))
}

/// The corpus, in file order.
fn corpus() -> Vec<Case> {
    let small = GpuConfig::test_small;
    let (gups, spmv, sad) = (Benchmark::Gups, Benchmark::Spmv, Benchmark::Sad);
    let issue2 = GpuConfig {
        issue_per_sm: 2,
        ..small()
    };
    let mut cases: Vec<Case> = Benchmark::ALL
        .iter()
        .map(|&b| even_case(format!("alone/{}", b.name()), small(), vec![b], false))
        .collect();
    cases.extend([
        even_case("even/GUPS+SPMV".into(), small(), vec![gups, spmv], false),
        even_case("even4/GUPS+SPMV".into(), cfg4(), vec![gups, spmv], false),
        even_case("even4/GUPS+SAD".into(), cfg4(), vec![gups, sad], false),
        even_case("issue2/GUPS+SAD".into(), issue2, vec![gups, sad], false),
        smra_case(small(), gups, sad, 400, None),
        smra_case(GpuConfig::gtx480(), gups, spmv, 2_000, Some(10)),
        even_case("fault/GUPS".into(), small(), vec![gups], true),
        even_case("fault/SPMV".into(), small(), vec![spmv], true),
        even_case("fault4/GUPS".into(), cfg4(), vec![gups], true),
        replay_case(phase_shift_trace(&small())),
        replay_case(tensor_mix_trace(&small())),
    ]);
    cases
}

/// Regenerates every corpus line whose name `select` accepts, under both
/// step modes, and diffs it against the golden file; the first differing
/// line fails the test with both versions printed. The file and the
/// corpus must also name the same runs in the same order.
fn check_golden(select: impl Fn(&str) -> bool) {
    let cases = corpus();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let names: Vec<&str> = want
        .iter()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    let case_names: Vec<&str> = cases.iter().map(|(n, _)| n.as_str()).collect();
    assert_eq!(
        names, case_names,
        "golden file and corpus list different runs"
    );
    for ((name, run), want) in cases.iter().zip(&want) {
        if !select(name) {
            continue;
        }
        for mode in [StepMode::Cycle, StepMode::EventHorizon] {
            let (gpu, actions) = run(mode);
            let got = stats_line(name, &gpu, &actions);
            assert!(
                got == *want,
                "{name} ({mode:?}) differs from tests/golden/engine_stats.txt\n\
                 want: {want}\n got: {got}"
            );
        }
    }
}

#[test]
fn alone_runs_are_bit_identical_across_step_modes() {
    check_golden(|name| name.starts_with("alone/"));
}

#[test]
fn even_corun_is_bit_identical_across_step_modes() {
    check_golden(|name| name.starts_with("even"));
}

#[test]
fn smra_run_with_small_window_is_bit_identical_across_step_modes() {
    check_golden(|name| name.starts_with("smra"));
}

#[test]
fn golden_corpus_matches_both_step_modes() {
    check_golden(|name| {
        !["alone/", "even", "smra"]
            .iter()
            .any(|p| name.starts_with(p))
    });
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
/// asserts identical `SimStats`, final cycle and `PhaseCycles`, with the
/// phases summing to the final cycle in each mode. The script drives the
/// device through the public API only, so whatever it observes (cycles,
/// diagnostics) reads the same in both modes as long as they agree.
fn both_modes(name: &str, script: impl Fn(&mut Gpu)) {
    let run = |mode| {
        let mut gpu = device(mode);
        gpu.set_profiling(true);
        script(&mut gpu);
        let phases = gpu.phase_cycles().expect("profiling on");
        assert_eq!(
            phases.total(),
            gpu.cycle(),
            "{name} ({mode:?}): phases do not sum to the cycles: {phases:?}"
        );
        (gpu.stats().clone(), gpu.cycle(), phases)
    };
    let (stats_c, cyc_c, ph_c) = run(StepMode::Cycle);
    let (stats_e, cyc_e, ph_e) = run(StepMode::EventHorizon);
    assert_eq!(
        cyc_c, cyc_e,
        "{name}: final cycle diverged between step modes"
    );
    assert_eq!(
        stats_c, stats_e,
        "{name}: SimStats diverged between step modes"
    );
    assert_phases_match(name, &ph_c, &ph_e);
}

/// Phase totals agree up to the one attribution that differs by
/// design: a jump the window barrier clamps is booked to `smra` by
/// event-horizon stepping, while cycle stepping books each of those
/// cycles to its wait phase. Issue cycles are stepped in both modes and
/// must match exactly.
fn assert_phases_match(name: &str, cycle: &PhaseCycles, eh: &PhaseCycles) {
    assert_eq!(cycle.issue, eh.issue, "{name}: issue cycles diverged");
    assert_eq!(cycle.total(), eh.total(), "{name}: phase totals diverged");
    assert_eq!(
        cycle.smra, 0,
        "{name}: cycle stepping books no barrier spans"
    );
    for (bucket, c, e) in [
        ("l1", cycle.l1, eh.l1),
        ("l2", cycle.l2, eh.l2),
        ("dram", cycle.dram, eh.dram),
        ("idle", cycle.idle, eh.idle),
    ] {
        assert!(e <= c, "{name}: {bucket} {e} above the cycle-stepped {c}");
    }
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
