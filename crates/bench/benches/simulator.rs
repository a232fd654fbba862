//! Micro-benchmarks for the simulator substrate: cache probes, warp
//! scheduler picks, and whole-device stepping (simulation speed in
//! simulated cycles per wall-second is the practical limit on experiment
//! sizes).
//!
//! Runs on the internal `gcs_bench::timing` harness; no external
//! benchmarking dependency.

use gcs_bench::timing::bench;
use gcs_sim::cache::Cache;
use gcs_sim::config::{CacheConfig, GpuConfig};
use gcs_sim::gpu::Gpu;
use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId};
use gcs_sim::sched::{AgeOrder, WarpSchedPolicy, WarpScheduler};
use gcs_workloads::{Benchmark, Scale};

/// A pointer-chase-style kernel: one dependent random DRAM read per
/// iteration, far too few warps to cover the miss latency. Performance
/// is pure memory latency (`R` would be enormous under the paper's
/// classifier); virtually every cycle of a run is a dead wait.
fn ptr_chase_kernel(name: &str, grid_blocks: u32) -> KernelDesc {
    KernelDesc {
        name: name.into(),
        grid_blocks,
        warps_per_block: 1,
        iters_per_warp: 4000,
        body: vec![Op::Load(PatternId(0))],
        patterns: vec![AccessPattern::random(256 << 20, 1)],
        active_lanes: 8,
    }
}

fn main() {
    let mut cache = Cache::new(CacheConfig {
        bytes: 128 * 1024,
        line_bytes: 128,
        ways: 8,
    });
    let mut addr = 0u64;
    bench("sim/cache/probe_1k_streaming", || {
        for _ in 0..1024 {
            cache.access(addr);
            addr = addr.wrapping_add(128);
        }
    });

    for policy in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
        let mut s = WarpScheduler::new(policy);
        let ready: u64 = (1u64 << 48) - 1;
        let ages: Vec<u64> = (0..48).collect();
        let mut order = AgeOrder::new(48);
        for slot in 0..48 {
            order.push(slot);
            order.set_ready(slot, true);
        }
        bench(&format!("sim/sched/{policy:?}_pick_48"), || {
            s.pick(std::hint::black_box(ready), &order, &ages)
        });
    }

    bench("sim/device/test_small_5k_cycles_mixed_pair", || {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("gpu");
        gpu.launch(Benchmark::Blk.kernel(Scale::TEST)).expect("a");
        gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        gpu.run_for(5_000);
        gpu.cycle()
    });

    // Memory-bound co-run on the full device model: GUPS (bandwidth
    // hostile) next to SPMV (irregular). Most cycles stall on DRAM, so
    // this is the benchmark that event-horizon stepping must speed up.
    bench("sim/device/gtx480_20k_cycles_gups_spmv_even", || {
        let mut gpu = Gpu::new(GpuConfig::gtx480()).expect("gpu");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
        gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        gpu.run_for(20_000);
        gpu.cycle()
    });

    // Memory-*latency*-bound co-run: two low-occupancy pointer-chase
    // kernels whose warps all sleep on DRAM misses, so almost every
    // cycle is dead while the memory system stays busy. This is the
    // regime event-horizon stepping exists for — the old engine had to
    // step each of those cycles one by one.
    bench("sim/device/gtx480_ptr_chase_pair_complete", || {
        let mut gpu = Gpu::new(GpuConfig::gtx480()).expect("gpu");
        gpu.launch(ptr_chase_kernel("chase_a", 4)).expect("a");
        gpu.launch(ptr_chase_kernel("chase_b", 4)).expect("b");
        gpu.partition_even();
        gpu.run(50_000_000).expect("run");
        gpu.cycle()
    });

    // Same pairing run to completion on the small device: includes the
    // drain tail where only a few warps remain in flight. Despite the
    // shared workload pair this is a genuinely different setup from
    // `gtx480_20k_cycles_gups_spmv_even` above — small device vs full
    // GTX 480 model, run-to-completion vs a fixed 20k-cycle window —
    // and the two have historically landed on near-identical min_ns
    // (~102 ms in the pre-flat-layout baseline) purely by coincidence:
    // the big device simulates ~6x more SM-cycles per device cycle but
    // stops at 20k cycles, while the small one runs ~6x longer. They
    // regress independently, so both stay in the suite.
    bench("sim/device/test_small_gups_spmv_even_complete", || {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("gpu");
        gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
        gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        gpu.run(50_000_000).expect("run");
        gpu.cycle()
    });

    // Trace replay overhead: record BLK once, then time a full replay
    // run against the synthetic baseline above. Replay swaps address
    // generation for a cursor walk over the recorded attempts, so it
    // should cost no more than synthetic execution.
    let blk_trace = {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("gpu");
        let app = gpu.launch(Benchmark::Blk.kernel(Scale::TEST)).expect("a");
        gpu.enable_trace_recording(app).expect("recorder");
        gpu.partition_even();
        gpu.run(50_000_000).expect("run");
        std::sync::Arc::new(gpu.take_trace(app).expect("trace"))
    };
    bench("sim/device/test_small_trace_replay_blk_complete", || {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("gpu");
        gpu.launch_traced(std::sync::Arc::clone(&blk_trace)).expect("a");
        gpu.partition_even();
        gpu.run(50_000_000).expect("run");
        gpu.cycle()
    });
}
