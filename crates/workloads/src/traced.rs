//! Hand-authored trace workloads — kernels the parametric pattern
//! generators in `gcs-sim` cannot express.
//!
//! The synthetic [`KernelDesc`](gcs_sim::kernel::KernelDesc) generators
//! draw every address of a pattern from one fixed walk rule for the
//! whole run. Two workload shapes the thesis' trace-driven methodology
//! cares about break that assumption:
//!
//! * **Phase changes** ([`phase_shift_trace`]): a kernel that streams
//!   sequentially for its first half and scatters randomly for its
//!   second. The profile signals (bandwidth, `R`, IPC) are a blend no
//!   single `PatternKind` produces.
//! * **Tensor-op mixes** ([`tensor_mix_trace`]): a DL-style inner loop
//!   that reuses a small weight tile for several iterations before
//!   rotating to the next tile, while activations and outputs stream
//!   past. The `Tiled` generator pins each block to one tile forever;
//!   rotation is inexpressible.
//!
//! Both are authored with [`TraceBuilder`] and replay through the full
//! stack — `Gpu`, the sweep engine, classification, SMRA and
//! `gcs-sched` — via [`Gpu::launch_traced`](gcs_sim::gpu::Gpu::launch_traced).
//!
//! Addresses follow the recorder's convention: relative to the app's
//! base, with pattern `p`'s region starting at `p << 36`, line-aligned.

use gcs_sim::config::GpuConfig;
use gcs_sim::kernel::{AccessPattern, Op, PatternId};
use gcs_sim::rng::SimRng;
use gcs_sim::{KernelTrace, TraceBuilder};

/// Byte offset separating consecutive pattern regions (mirrors the
/// simulator's address-map layout).
const REGION: u64 = 1 << 36;

/// A phase-changing kernel: coalesced streaming for the first half of
/// each warp's iterations, seeded random scatter for the second half.
///
/// The address stream is deterministic (fixed [`SimRng`] seed), so the
/// trace — and everything computed from it, including its fingerprint —
/// is stable across builds and machines.
pub fn phase_shift_trace(cfg: &GpuConfig) -> KernelTrace {
    let line = u64::from(cfg.l1.line_bytes);
    let ws: u64 = 1 << 22;
    let ws_lines = ws / line;
    let (grid, wpb, iters) = (16u32, 2u32, 64u32);
    let total_warps = u64::from(grid) * u64::from(wpb);
    let mut rng = SimRng::seed_from_u64(0x5EED_FA5E);
    let mut b = TraceBuilder::new("TRACE_PHASE", cfg)
        .geometry(grid, wpb, iters, 32)
        .body(vec![Op::Load(PatternId(0)), Op::Alu { latency: 4 }])
        .patterns(vec![AccessPattern::streaming(ws)]);
    for w in 0..total_warps {
        for i in 0..u64::from(iters) {
            let line_idx = if i < u64::from(iters) / 2 {
                // Streaming phase: warp-interleaved sequential walk.
                (w + i * total_warps) % ws_lines
            } else {
                // Scatter phase: seeded random lines.
                rng.gen_range(ws_lines)
            };
            b = b.push_access(w, vec![line_idx * line]);
        }
    }
    b.build().expect("authored phase-shift trace is valid")
}

/// A DL-style tensor-op mix: each iteration loads a line of a weight
/// tile (reused for `TILE_REUSE` iterations, then rotated), loads a
/// streaming activation line, computes, and stores a streaming output
/// line.
pub fn tensor_mix_trace(cfg: &GpuConfig) -> KernelTrace {
    let line = u64::from(cfg.l1.line_bytes);
    let weights_ws: u64 = 256 << 10;
    let act_ws: u64 = 1 << 22;
    let out_ws: u64 = 1 << 22;
    let tile: u64 = 8 << 10;
    let (grid, wpb, iters) = (16u32, 2u32, 48u32);
    let total_warps = u64::from(grid) * u64::from(wpb);
    let tiles = weights_ws / tile;
    let tile_lines = tile / line;
    let mut b = TraceBuilder::new("TRACE_TENSOR", cfg)
        .geometry(grid, wpb, iters, 32)
        .body(vec![
            Op::Load(PatternId(0)),
            Op::Load(PatternId(1)),
            Op::Alu { latency: 4 },
            Op::Alu { latency: 4 },
            Op::Store(PatternId(2)),
        ])
        .patterns(vec![
            AccessPattern::tiled(weights_ws, tile),
            AccessPattern::streaming(act_ws),
            AccessPattern::streaming(out_ws),
        ]);
    for w in 0..total_warps {
        let block = w / u64::from(wpb);
        let warp_in_block = w % u64::from(wpb);
        for i in 0..u64::from(iters) {
            // Weights: the block's tile rotates every TILE_REUSE
            // iterations — the reuse window no generator expresses.
            let tile_idx = (block + i / TILE_REUSE) % tiles;
            let l0 = tile_idx * tile_lines + (warp_in_block + i) % tile_lines;
            b = b.push_access(w, vec![l0 * line]);
            // Activations: warp-interleaved stream.
            let l1 = (w + i * total_warps) % (act_ws / line);
            b = b.push_access(w, vec![REGION + l1 * line]);
            // Outputs: warp-interleaved stream in its own region.
            let l2 = (w + i * total_warps) % (out_ws / line);
            b = b.push_access(w, vec![2 * REGION + l2 * line]);
        }
    }
    b.build().expect("authored tensor-mix trace is valid")
}

/// Iterations each weight tile is reused for before rotating.
const TILE_REUSE: u64 = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_sim::gpu::Gpu;
    use std::sync::Arc;

    #[test]
    fn authored_traces_validate_and_round_trip() {
        let cfg = GpuConfig::test_small();
        for trace in [phase_shift_trace(&cfg), tensor_mix_trace(&cfg)] {
            trace.validate().expect("authored trace validates");
            let back = KernelTrace::decode(&trace.encode()).expect("round trip");
            assert_eq!(back, trace);
        }
    }

    #[test]
    fn authored_traces_have_distinct_stable_fingerprints() {
        let cfg = GpuConfig::test_small();
        let a = phase_shift_trace(&cfg);
        let b = tensor_mix_trace(&cfg);
        assert_ne!(a.fingerprint(), b.fingerprint());
        // Deterministic authoring: rebuilding yields the same bytes.
        assert_eq!(a.encode(), phase_shift_trace(&cfg).encode());
        assert_eq!(b.encode(), tensor_mix_trace(&cfg).encode());
    }

    #[test]
    fn authored_traces_replay_to_completion() {
        let cfg = GpuConfig::test_small();
        for trace in [phase_shift_trace(&cfg), tensor_mix_trace(&cfg)] {
            let expected = trace.kernel_desc().total_thread_instructions();
            let mut gpu = Gpu::new(cfg.clone()).unwrap();
            let app = gpu.launch_traced(Arc::new(trace)).unwrap();
            gpu.partition_even();
            gpu.run(50_000_000).unwrap();
            let s = gpu.stats().app(app);
            assert!(s.finished());
            assert_eq!(s.thread_insts, expected);
        }
    }
}
