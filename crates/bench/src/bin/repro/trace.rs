//! Trace record/replay (DESIGN.md §11): `trace_record` captures a suite
//! benchmark's instruction + address trace, `trace_replay` profiles a
//! recorded trace through the memoized sweep path.
//!
//! ```text
//! repro trace_record BLK blk.trace --json blk.json
//! repro trace_replay blk.trace
//! ```
//!
//! Both printed lines (`record:` and `replay:`) are byte-stable across
//! machines, thread counts and step modes — `scripts/ci.sh
//! --trace-smoke` pins that.

use std::sync::Arc;

use gcs_core::profile::PROFILE_MAX_CYCLES;
use gcs_core::sweep::Workload;
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::KernelTrace;
use gcs_workloads::Benchmark;

use crate::args::Args;
use crate::env::scale_from_env;
use crate::harness::engine;

/// Runs the named benchmark alone on the `test_small` device at the
/// `GCS_SCALE`-selected scale with the issue-path recorder enabled and
/// writes the versioned binary trace; `--json PATH` also dumps the
/// human-readable debug view.
pub fn record(mut args: Args) {
    let json_path: Option<String> = args.value("--json");
    let name = args.positional("BENCH");
    let out_path = args.positional("OUT.trace");
    args.finish();
    let Some(bench) = Benchmark::ALL
        .iter()
        .copied()
        .find(|b| b.name().eq_ignore_ascii_case(&name))
    else {
        let names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        eprintln!("unknown benchmark {name:?}; benchmarks: {}", names.join(" "));
        std::process::exit(2);
    };

    let cfg = GpuConfig::test_small();
    let mut gpu = Gpu::new(cfg.clone()).expect("device");
    let app = gpu.launch(bench.kernel(scale_from_env())).expect("launch");
    gpu.enable_trace_recording(app).expect("recorder");
    let ids: Vec<u32> = (0..cfg.num_sms).collect();
    gpu.assign_sms(app, &ids);
    gpu.run(PROFILE_MAX_CYCLES).expect("run");
    let trace = gpu.take_trace(app).expect("trace");

    let bytes = trace.encode();
    std::fs::write(&out_path, &bytes).expect("write trace");
    if let Some(p) = json_path {
        std::fs::write(p, trace.to_json()).expect("write json");
    }
    println!(
        "record: name={} fp={:016x} warps={} accesses={} attempts={} bytes={}",
        trace.meta.name,
        trace.fingerprint(),
        trace.warps.len(),
        trace.total_accesses(),
        trace.total_attempts(),
        bytes.len(),
    );
}

/// Decodes a trace written by [`record`] (rejecting corrupt or truncated
/// files with a typed error), then profiles it on the `test_small`
/// device via `SweepEngine::profile_workload` — the same memoized path
/// synthetic benchmarks take, honoring `GCS_THREADS` and `GCS_CACHE`.
pub fn replay(mut args: Args) {
    let path = args.positional("IN.trace");
    args.finish();
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("cannot read {path:?}: {e}");
            std::process::exit(2);
        }
    };
    let trace = match KernelTrace::decode(&bytes) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("invalid trace {path:?}: {e}");
            std::process::exit(1);
        }
    };

    let cfg = GpuConfig::test_small();
    let workload = Workload::Trace(Arc::new(trace));
    let p = engine(false)
        .profile_workload(&cfg, scale_from_env(), &workload, cfg.num_sms)
        .expect("replay profile");
    println!(
        "replay: name={} cycles={} insts={} ipc={:.4} bw={:.3} l2l1={:.3} r={:.4} util={:.4}",
        p.name, p.cycles, p.thread_insts, p.ipc, p.memory_bw, p.l2_l1_bw, p.r, p.utilization,
    );
}
