//! Canonical-stats probe for the sharded-stepping CI gate
//! (`scripts/ci.sh --shard-smoke`).
//!
//! Runs one fixed SMRA co-run (GUPS + SPMV at TEST scale on the GTX 480
//! model) with the SM shard count given as the first argument and the
//! memory shard count (phase M) as the optional second, and prints
//! every statistic the run produced — per-app counters, device cycle,
//! and the controller's action log — as one canonical JSON line
//! (`stats: {...}`). An optional third argument `cycle` runs it under
//! `StepMode::Cycle`, the every-cycle, every-SM reference. The line
//! deliberately omits the shard counts and the step mode, so the gate
//! can diff the output across the s1/s4 × m1/m2/m4 grid and the
//! reference byte-for-byte: any divergence means sharding or
//! event-horizon stepping changed a result, which
//! tests/shard_equivalence.rs, tests/memsys_shard_equivalence.rs and
//! tests/step_equivalence.rs pin as impossible.

#![forbid(unsafe_code)]

use std::fmt::Write as _;

use gcs_core::smra::{SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, StepMode};
use gcs_workloads::{Benchmark, Scale};

fn main() {
    let shards: u32 = std::env::args()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mem_shards: u32 = std::env::args()
        .nth(2)
        .and_then(|v| v.parse().ok())
        .unwrap_or(1);
    let mode = match std::env::args().nth(3).as_deref() {
        None => StepMode::EventHorizon,
        Some("cycle") => StepMode::Cycle,
        Some(other) => {
            eprintln!("[shard_smoke] unknown step mode {other:?} (want `cycle`)");
            std::process::exit(2);
        }
    };
    let mut gpu = Gpu::new(GpuConfig::gtx480()).expect("gpu");
    gpu.set_step_mode(mode);
    gpu.set_shards(shards);
    gpu.set_mem_shards(mem_shards);
    let a = gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
    let b = gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("b");
    gpu.partition_even();
    let params = SmraParams {
        tc: 2_000,
        ..SmraParams::for_device(gpu.config().num_sms, 2)
    };
    let mut ctl = SmraController::new(params, vec![a, b], &gpu);
    for _ in 0..10 {
        gpu.run_for(params.tc);
        if gpu.all_done() {
            break;
        }
        ctl.decide(&mut gpu);
    }

    let mut line = String::new();
    let stats = gpu.stats();
    write!(line, "{{\"cycle\":{}", gpu.cycle()).unwrap();
    line.push_str(",\"actions\":[");
    for (i, act) in ctl.actions().iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        write!(line, "\"{act:?}\"").unwrap();
    }
    line.push_str("],\"apps\":[");
    for (i, (_, s)) in stats.iter().enumerate().take(2) {
        if i > 0 {
            line.push(',');
        }
        write!(
            line,
            "{{\"warp_insts\":{},\"thread_insts\":{},\"mem_insts\":{},\
             \"alu_insts\":{},\"l1_hits\":{},\"l1_misses\":{},\
             \"dram_read_bytes\":{},\"dram_write_bytes\":{},\
             \"l2_to_l1_bytes\":{},\"dram_row_hits\":{},\
             \"dram_row_misses\":{},\"start_cycle\":{},\
             \"finish_cycle\":{},\"blocks_done\":{}}}",
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
    line.push_str("]}");
    eprintln!(
        "[shard_smoke] shards={} ({} effective) mem_shards={} ({} effective) mode={:?}",
        shards,
        gpu.shards(),
        mem_shards,
        gpu.mem_shards(),
        mode
    );
    println!("stats: {line}");
}
