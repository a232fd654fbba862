//! The two simulator workloads. They stress opposite halves of the
//! stepping engine, so a change to one half moves one of them and must
//! leave the other alone:
//!
//! * `sim_mem_corun` issues densely — every cycle is stepped and the
//!   per-slice L2/DRAM tick dominates host time;
//! * `sim_lat_smra` is almost all dead waits — host time is horizon
//!   jumps, quiescence scans and SMRA window barriers.
//!
//! The simulator takes no seed (its per-warp streams derive from the
//! kernel geometry), so `--seed` does not change these two.

use std::fmt::Write as _;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId};
use gcs_workloads::{Benchmark, Scale};

use crate::harness::{Env, Sink, Workload};
use crate::trace::Tracer;

/// A run longer than this is a hang, not a slow kernel.
const MAX_CYCLES: u64 = 50_000_000;

/// Every statistic the run produced, as one canonical line. Fields are
/// spelled out so that renaming one in the program does not move the
/// golden digest.
fn stats_line(gpu: &Gpu, actions: &[SmraAction]) -> String {
    let mut line = format!("cycle={}", gpu.cycle());
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

/// The `sim.*` layer metrics of one finished device run.
fn record_device(gpu: &Gpu, run_s: f64, sink: &mut Sink) {
    let (mut insts, mut hits, mut misses, mut l2l1, mut dram, mut row_hit, mut row_miss) =
        (0u64, 0u64, 0u64, 0u64, 0u64, 0u64, 0u64);
    for (_, s) in gpu.stats().iter().take(gpu.num_apps()) {
        insts += s.thread_insts;
        hits += s.l1_hits;
        misses += s.l1_misses;
        l2l1 += s.l2_to_l1_bytes;
        dram += s.dram_bytes();
        row_hit += s.dram_row_hits;
        row_miss += s.dram_row_misses;
    }
    let cycles = gpu.cycle();
    sink.sample("sim.run_s", run_s);
    sink.sample("sim.insts_per_s", insts as f64 / run_s);
    sink.sample("sim.ns_per_cycle", run_s * 1e9 / cycles as f64);
    sink.exact("sim.cycles", cycles as f64);
    sink.exact("sim.thread_insts", insts as f64);
    sink.exact(
        "sim.l1_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    sink.exact("sim.l2_to_l1_bytes", l2l1 as f64);
    sink.exact("sim.dram_bytes", dram as f64);
    sink.exact(
        "sim.dram_row_hit_ratio",
        row_hit as f64 / (row_hit + row_miss).max(1) as f64,
    );
    // The plan the device actually ran, read back from the device.
    sink.exact("sim.plan.sm_shards", f64::from(gpu.shards()));
    sink.exact("sim.plan.mem_shards", f64::from(gpu.mem_shards()));
    sink.exact("sim.plan.workers", f64::from(gpu.shard_workers()));
    if let Some(p) = gpu.phase_cycles() {
        sink.check(p.total() == cycles, || {
            format!("phase cycles sum to {} of {cycles}", p.total())
        });
        for (name, v) in [
            ("sim.phase.issue", p.issue),
            ("sim.phase.l1", p.l1),
            ("sim.phase.l2", p.l2),
            ("sim.phase.dram", p.dram),
            ("sim.phase.smra", p.smra),
            ("sim.phase.idle", p.idle),
        ] {
            sink.exact(name, v as f64);
        }
    }
}

/// A device with `kernels` launched on an even split. Phase profiling
/// is switched on in the traced run only; it never changes a result.
fn launch(cfg: &GpuConfig, kernels: &[KernelDesc], tr: &mut Tracer, sink: &mut Sink) -> Gpu {
    let open = tr.begin("sim.new_launch");
    let mut gpu = Gpu::new(cfg.clone()).expect("valid device config");
    gpu.set_profiling(tr.recording());
    for k in kernels {
        gpu.launch(k.clone()).expect("kernel fits the device");
    }
    gpu.partition_even();
    sink.add("sim.new_launch_s", tr.end(open));
    gpu
}

fn build_kernels(
    build: impl Fn() -> Vec<KernelDesc>,
    tr: &mut Tracer,
    sink: &mut Sink,
) -> Vec<KernelDesc> {
    let open = tr.begin("workloads.kernel_build");
    let kernels = build();
    sink.sample(
        "workloads.kernel_build_us",
        tr.end(open) * 1e6 / kernels.len() as f64,
    );
    kernels
}

/// GUPS × SPMV at `Scale::SMALL` on the GTX 480 model, even split,
/// `Gpu::new` defaults, run to completion.
pub struct SimMemCorun {
    cfg: GpuConfig,
    kernels: Vec<KernelDesc>,
    cycles: u64,
}

impl Workload for SimMemCorun {
    fn setup(_env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self {
        let kernels = build_kernels(
            || {
                vec![
                    Benchmark::Gups.kernel(Scale::SMALL),
                    Benchmark::Spmv.kernel(Scale::SMALL),
                ]
            },
            tr,
            sink,
        );
        let mut w = SimMemCorun {
            cfg: GpuConfig::gtx480(),
            kernels,
            cycles: 0,
        };
        w.sample(tr, &mut Sink::default());
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let mut gpu = launch(&self.cfg, &self.kernels, tr, sink);
        let open = tr.begin("sim.run");
        let ran = gpu.run(MAX_CYCLES);
        let run_s = tr.end(open);
        sink.check(ran.is_ok() && gpu.all_done(), || {
            format!("co-run failed: {ran:?}")
        });
        let want: u64 = self
            .kernels
            .iter()
            .map(KernelDesc::total_thread_instructions)
            .sum();
        let got: u64 = gpu.stats().iter().map(|(_, s)| s.thread_insts).sum();
        sink.check(got == want, || {
            format!("{got} thread instructions of {want}")
        });
        record_device(&gpu, run_s, sink);
        sink.output(&stats_line(&gpu, &[]));
        self.cycles = gpu.cycle();
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("sim_cycles_per_s", self.cycles as f64)]
    }
}

/// One dependent random read per iteration over 256 MiB, one warp per
/// block: far too few warps to cover the miss latency.
fn chase_kernel(name: &str) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_blocks: 16,
        warps_per_block: 1,
        iters_per_warp: 16_000,
        body: vec![Op::Load(PatternId(0))],
        patterns: vec![AccessPattern::random(256 << 20, 1)],
        active_lanes: 8,
    }
}

const SMRA_TC: u64 = 5_000;
const SMRA_WINDOWS: u64 = 400;

/// Two pointer-chase kernels on the full device under a live
/// `SmraController`, 400 windows of 5 000 cycles.
pub struct SimLatSmra {
    cfg: GpuConfig,
    kernels: Vec<KernelDesc>,
}

impl Workload for SimLatSmra {
    fn setup(_env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self {
        let kernels = build_kernels(
            || vec![chase_kernel("chase_a"), chase_kernel("chase_b")],
            tr,
            sink,
        );
        let mut w = SimLatSmra {
            cfg: GpuConfig::gtx480(),
            kernels,
        };
        w.sample(tr, &mut Sink::default());
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let mut gpu = launch(&self.cfg, &self.kernels, tr, sink);
        let apps = (0..gpu.num_apps() as u16)
            .map(gcs_sim::kernel::AppId)
            .collect();
        let params = SmraParams {
            tc: SMRA_TC,
            ..SmraParams::for_device(gpu.config().num_sms, 2)
        };
        let mut ctl = SmraController::new(params, apps, &gpu);
        let (mut run_s, mut decide_s) = (0.0, 0.0);
        for _ in 0..SMRA_WINDOWS {
            let open = tr.begin("sim.run");
            gpu.run_for(SMRA_TC);
            run_s += tr.end(open);
            let open = tr.begin("core.smra.decide");
            ctl.decide(&mut gpu);
            decide_s += tr.end(open);
        }
        // The kernels are sized to outlast the windows, so every
        // repetition simulates exactly the same span of device time.
        sink.check(
            gpu.cycle() == SMRA_TC * SMRA_WINDOWS && !gpu.all_done(),
            || {
                format!(
                    "stopped at cycle {} (done: {})",
                    gpu.cycle(),
                    gpu.all_done()
                )
            },
        );
        record_device(&gpu, run_s, sink);
        let count =
            |f: fn(&SmraAction) -> bool| ctl.actions().iter().filter(|a| f(a)).count() as f64;
        sink.sample("core.smra.decide_s", decide_s);
        sink.exact("core.smra.windows", SMRA_WINDOWS as f64);
        sink.exact(
            "core.smra.moves",
            count(|a| matches!(a, SmraAction::Move { .. })),
        );
        sink.exact(
            "core.smra.reverts",
            count(|a| matches!(a, SmraAction::Revert)),
        );
        sink.output(&stats_line(&gpu, ctl.actions()));
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("sim_cycles_per_s", (SMRA_TC * SMRA_WINDOWS) as f64)]
    }
}
