//! # gcs-workloads — synthetic Rodinia-like GPU kernel models
//!
//! The thesis profiles fourteen Rodinia-suite benchmarks on GPGPU-Sim
//! (Table 3.2) and builds its whole methodology on the four-signal
//! profile each produces: DRAM bandwidth, L2→L1 bandwidth, IPC and the
//! memory-to-compute ratio `R`. Since real CUDA binaries are out of
//! reach for a pure-Rust substrate (repro substitution in `DESIGN.md`),
//! this crate models each benchmark as a synthetic [`KernelDesc`] —
//! an instruction mix plus address-stream parameters — calibrated so
//! that, on the `gcs-sim` GTX 480 model, each lands in the class the
//! thesis assigns it and reproduces its distinctive scalability shape
//! (Fig 3.5):
//!
//! * **GUPS** — random scatter/gather, bandwidth-bound, anti-scales;
//! * **LUD** — 12-block grid, IPC flat in core count;
//! * **HS / SAD** — massively parallel compute, near-ideal scaling;
//! * **FFT** — per-block tiles that spill the shared L2 as concurrency
//!   grows: saturates, then *loses* performance with more cores;
//! * **BFS2 / NN** — low-occupancy, latency-bound, low utilization.
//!
//! ```
//! use gcs_workloads::{Benchmark, Scale};
//!
//! let gups = Benchmark::Gups.kernel(Scale::TEST);
//! assert_eq!(gups.name, "GUPS");
//! assert!(gups.validate().is_ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId};
use gcs_sim::PatternKind;

mod suite;
pub mod trace;
pub mod traced;

pub use suite::{Benchmark, PaperProfile, PAPER_PROFILES};
pub use trace::{Arrival, ArrivalTrace, OpenLoopDriver};
pub use traced::{phase_shift_trace, tensor_mix_trace};

/// Work scaling applied to a benchmark model.
///
/// The profile *rates* (bandwidths, IPC, R) are scale-invariant; scaling
/// only shrinks total work so unit tests stay fast.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Scale {
    /// Multiplier on loop iterations per warp.
    pub iters: f64,
    /// Multiplier on grid blocks (parallelism). Keep at 1.0 for
    /// scalability studies; reduce for small-device tests.
    pub grid: f64,
}

impl Scale {
    /// Full-size runs for the figure harness (~10⁵–10⁶ device cycles).
    pub const FULL: Scale = Scale {
        iters: 1.0,
        grid: 1.0,
    };

    /// Reduced size for quicker full-device sweeps.
    pub const SMALL: Scale = Scale {
        iters: 0.25,
        grid: 1.0,
    };

    /// Tiny runs for unit tests on [`gcs_sim::GpuConfig::test_small`].
    pub const TEST: Scale = Scale {
        iters: 0.05,
        grid: 0.2,
    };

    fn apply_iters(&self, iters: u32) -> u32 {
        ((f64::from(iters) * self.iters).round() as u32).max(1)
    }

    fn apply_grid(&self, grid: u32) -> u32 {
        ((f64::from(grid) * self.grid).round() as u32).max(1)
    }
}

impl Default for Scale {
    fn default() -> Self {
        Scale::FULL
    }
}

/// Raw model parameters for one benchmark (before scaling).
#[derive(Debug, Clone, PartialEq)]
pub struct ModelParams {
    /// Grid blocks at full scale.
    pub grid_blocks: u32,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Loop iterations per warp at full scale.
    pub iters_per_warp: u32,
    /// Mean active lanes (divergence model).
    pub active_lanes: u8,
    /// ALU ops per loop iteration.
    pub alu_ops: u32,
    /// ALU result latency.
    pub alu_latency: u8,
    /// Memory operations per iteration, in issue order.
    pub mem_ops: Vec<MemOp>,
}

/// One memory operation slot of a model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemOp {
    /// Load or store.
    pub is_store: bool,
    /// Address pattern.
    pub pattern: AccessPattern,
}

impl MemOp {
    pub(crate) fn load(pattern: AccessPattern) -> Self {
        MemOp {
            is_store: false,
            pattern,
        }
    }

    pub(crate) fn store(pattern: AccessPattern) -> Self {
        MemOp {
            is_store: true,
            pattern,
        }
    }
}

impl ModelParams {
    /// Lowers the model into a simulator kernel, interleaving the memory
    /// operations evenly through the ALU stream (real kernels spread
    /// their loads, which lets warp schedulers hide latency).
    ///
    /// # Panics
    ///
    /// Panics if the model declares more than
    /// [`gcs_sim::warp::MAX_PATTERNS`] distinct memory ops.
    pub fn into_kernel(self, name: &str, scale: Scale) -> KernelDesc {
        assert!(
            self.mem_ops.len() <= gcs_sim::warp::MAX_PATTERNS,
            "too many memory ops"
        );
        let mut patterns = Vec::with_capacity(self.mem_ops.len());
        let mut body = Vec::with_capacity(self.alu_ops as usize + self.mem_ops.len());

        let n_mem = self.mem_ops.len() as u32;
        let alu_chunk = if n_mem == 0 {
            self.alu_ops
        } else {
            self.alu_ops / n_mem.max(1)
        };
        let mut alu_left = self.alu_ops;
        for (i, mem) in self.mem_ops.iter().enumerate() {
            let pid = PatternId(i as u8);
            patterns.push(mem.pattern);
            body.push(if mem.is_store {
                Op::Store(pid)
            } else {
                Op::Load(pid)
            });
            let take = alu_chunk.min(alu_left);
            for _ in 0..take {
                body.push(Op::Alu {
                    latency: self.alu_latency,
                });
            }
            alu_left -= take;
        }
        for _ in 0..alu_left {
            body.push(Op::Alu {
                latency: self.alu_latency,
            });
        }
        if body.is_empty() {
            body.push(Op::Alu {
                latency: self.alu_latency,
            });
        }

        KernelDesc {
            name: name.into(),
            grid_blocks: scale.apply_grid(self.grid_blocks),
            warps_per_block: self.warps_per_block,
            iters_per_warp: scale.apply_iters(self.iters_per_warp),
            body,
            patterns,
            active_lanes: self.active_lanes,
        }
    }
}

/// A strided pattern that sweeps a *shared* working set: every SM's L1
/// thrashes (the sweep is much larger than 16 kB) while the L2 retains
/// the whole set — the class-C traffic signature.
pub fn l2_resident_sweep(working_set: u64) -> AccessPattern {
    AccessPattern {
        kind: PatternKind::Strided { stride: 8 * 128 },
        working_set,
        transactions: 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_models_validate() {
        for b in Benchmark::ALL {
            let k = b.kernel(Scale::FULL);
            assert!(
                k.validate().is_ok(),
                "{} invalid: {:?}",
                b.name(),
                k.validate()
            );
            assert!(gcs_sim::warp::check_pattern_limit(&k).is_ok());
        }
    }

    #[test]
    fn names_are_distinct_and_match_paper() {
        let mut names: Vec<&str> = Benchmark::ALL.iter().map(|b| b.name()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 14);
        assert!(names.contains(&"GUPS"));
        assert!(names.contains(&"BFS2"));
    }

    #[test]
    fn scaling_shrinks_work() {
        let full = Benchmark::Blk.kernel(Scale::FULL);
        let test = Benchmark::Blk.kernel(Scale::TEST);
        assert!(test.total_warp_instructions() < full.total_warp_instructions() / 10);
    }

    #[test]
    fn scale_never_zeroes_out() {
        let s = Scale {
            iters: 1e-9,
            grid: 1e-9,
        };
        for b in Benchmark::ALL {
            let k = b.kernel(s);
            assert!(k.iters_per_warp >= 1);
            assert!(k.grid_blocks >= 1);
            assert!(k.validate().is_ok());
        }
    }

    #[test]
    fn interleaving_spreads_memory_ops() {
        let p = ModelParams {
            grid_blocks: 1,
            warps_per_block: 1,
            iters_per_warp: 1,
            active_lanes: 32,
            alu_ops: 4,
            alu_latency: 4,
            mem_ops: vec![
                MemOp::load(AccessPattern::streaming(1 << 20)),
                MemOp::store(AccessPattern::streaming(1 << 20)),
            ],
        };
        let k = p.into_kernel("x", Scale::FULL);
        assert_eq!(k.body.len(), 6);
        assert!(matches!(k.body[0], Op::Load(_)));
        assert!(matches!(k.body[3], Op::Store(_)));
    }

    /// The SM count beyond which a model stops gaining parallelism:
    /// once every grid block is resident, extra SMs only spread the same
    /// warps thinner. Derived from the per-SM residency caps (block
    /// limit and warp slots) of `cfg`.
    fn saturation_sms(p: &ModelParams, cfg: &gcs_sim::GpuConfig) -> u32 {
        let by_warps = (cfg.max_warps_per_sm / p.warps_per_block).max(1);
        let per_sm = cfg.max_blocks_per_sm.min(by_warps);
        p.grid_blocks.div_ceil(per_sm)
    }

    #[test]
    fn saturation_points_match_fig_36_taxonomy() {
        let cfg = gcs_sim::GpuConfig::gtx480();
        let sat = |b: Benchmark| saturation_sms(&b.params(), &cfg);
        // LUD's 12-block grid fits a couple of SMs: flat in core count.
        assert!(sat(Benchmark::Lud) <= 4, "LUD: {}", sat(Benchmark::Lud));
        // LPS saturates early (the thesis' "moderate parallelism").
        assert!(sat(Benchmark::Lps) <= 15, "LPS: {}", sat(Benchmark::Lps));
        // HS/SAD keep gaining until well past the half-device point, so
        // SMRA has something to reallocate toward.
        assert!(sat(Benchmark::Hs) > 30, "HS: {}", sat(Benchmark::Hs));
        assert!(sat(Benchmark::Sad) > 30, "SAD: {}", sat(Benchmark::Sad));
        // Only the class-M models oversubscribe the device — they are
        // *bandwidth*-saturated long before parallelism saturates, and
        // the surplus blocks keep their co-run pressure up on any
        // partition size.
        for b in Benchmark::ALL {
            if matches!(b, Benchmark::Blk | Benchmark::Gups) {
                continue;
            }
            assert!(sat(b) <= 60, "{b} saturates past the device: {}", sat(b));
        }
    }

    #[test]
    fn class_m_models_oversubscribe_every_partition() {
        // The class-M models must stay bandwidth-saturated even on half
        // the device, or co-run interference would vanish: their warp
        // pool on 30 SMs has to be large.
        let cfg = gcs_sim::GpuConfig::gtx480();
        for b in [Benchmark::Blk, Benchmark::Gups] {
            let p = b.params();
            let by_warps = (cfg.max_warps_per_sm / p.warps_per_block).max(1);
            let per_sm = cfg.max_blocks_per_sm.min(by_warps);
            let resident_on_half = u64::from(per_sm.min(p.grid_blocks / 30)) // approx
                * u64::from(p.warps_per_block)
                * 30;
            assert!(
                resident_on_half >= 700,
                "{b}: only {resident_on_half} warps resident on a half device"
            );
        }
    }

    #[test]
    fn static_memory_ratio_tracks_r_intent() {
        // GUPS is padded with ALU so its static R sits near the paper's 0.1.
        let k = Benchmark::Gups.kernel(Scale::FULL);
        let r = k.static_memory_ratio();
        assert!(r > 0.05 && r < 0.25, "GUPS static R = {r}");
        // HS is nearly pure compute.
        let hs = Benchmark::Hs.kernel(Scale::FULL);
        assert!(hs.static_memory_ratio() < 0.05);
    }
}
