//! Kernel and application descriptions consumed by the simulator.
//!
//! A kernel is modeled as a *loop body* of [`Op`]s that every warp
//! executes `iters_per_warp` times. Memory operations reference an
//! [`AccessPattern`] that turns a per-warp counter into addresses; this
//! is how the synthetic workloads reproduce streaming, tiled, random and
//! cache-resident behaviour without real CUDA semantics.

use std::fmt;

/// Identifies an application slot on the device (0-based).
///
/// Co-scheduling experiments run 2–3 applications, so slot indices stay
/// tiny; the newtype keeps them from being confused with SM or warp ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct AppId(pub u16);

impl fmt::Display for AppId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "app{}", self.0)
    }
}

/// Index of an access pattern inside a [`KernelDesc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PatternId(pub u8);

/// One instruction slot of the kernel loop body.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Op {
    /// Arithmetic instruction with a result latency in cycles.
    Alu {
        /// Cycles until the issuing warp may issue its next instruction.
        latency: u8,
    },
    /// Special-function-unit instruction (transcendental etc.).
    Sfu {
        /// Result latency in cycles.
        latency: u8,
    },
    /// Global memory read through the given pattern. The warp blocks
    /// until every coalesced transaction returns.
    Load(PatternId),
    /// Global memory write through the given pattern. Fire-and-forget:
    /// consumes bandwidth but does not stall the warp.
    Store(PatternId),
    /// Block-wide barrier (`__syncthreads`): the warp waits until every
    /// live warp of its block reaches the barrier.
    Barrier,
}

impl Op {
    /// True for [`Op::Load`] and [`Op::Store`].
    fn is_memory(&self) -> bool {
        matches!(self, Op::Load(_) | Op::Store(_))
    }
}

/// How a pattern maps a warp's access counter to byte addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PatternKind {
    /// Consecutive lines: high row-buffer locality, streams through the
    /// working set (DRAM-bound once the set exceeds L2).
    Streaming,
    /// Fixed stride in bytes between successive accesses of a warp.
    Strided {
        /// Byte stride between accesses.
        stride: u64,
    },
    /// Uniform random line within the working set — the GUPS behaviour:
    /// row-buffer hostile and cache hostile.
    Random,
    /// Each block repeatedly walks a private tile; with a tile that fits
    /// L1 (or L2) this produces cache-resident traffic.
    Tiled {
        /// Tile size in bytes per block.
        tile_bytes: u64,
    },
}

/// A named region of an application's address space plus the rule for
/// walking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AccessPattern {
    /// Walk rule.
    pub kind: PatternKind,
    /// Total region size in bytes (must be a multiple of the line size).
    pub working_set: u64,
    /// 128-byte transactions generated per warp access: 1 for perfectly
    /// coalesced, up to 32 for fully scattered.
    pub transactions: u8,
}

impl AccessPattern {
    /// Fully-coalesced streaming pattern over `working_set` bytes.
    pub fn streaming(working_set: u64) -> Self {
        AccessPattern {
            kind: PatternKind::Streaming,
            working_set,
            transactions: 1,
        }
    }

    /// Random pattern with `transactions` scattered lines per access.
    pub fn random(working_set: u64, transactions: u8) -> Self {
        AccessPattern {
            kind: PatternKind::Random,
            working_set,
            transactions,
        }
    }

    /// Block-private tile pattern.
    pub fn tiled(working_set: u64, tile_bytes: u64) -> Self {
        AccessPattern {
            kind: PatternKind::Tiled { tile_bytes },
            working_set,
            transactions: 1,
        }
    }
}

/// Complete description of one synthetic kernel (= one application in
/// the co-scheduling experiments; the thesis schedules at application
/// granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Human-readable benchmark name (e.g. `"GUPS"`).
    pub name: String,
    /// Number of thread blocks in the grid.
    pub grid_blocks: u32,
    /// Warps per block.
    pub warps_per_block: u32,
    /// Loop-body iterations each warp executes.
    pub iters_per_warp: u32,
    /// The loop body.
    pub body: Vec<Op>,
    /// Access patterns referenced by the body.
    pub patterns: Vec<AccessPattern>,
    /// Mean active lanes per warp (1–32); models branch divergence.
    /// Thread-level instruction counts scale with this.
    pub active_lanes: u8,
}

impl KernelDesc {
    /// Total warps in the grid.
    pub fn total_warps(&self) -> u64 {
        u64::from(self.grid_blocks) * u64::from(self.warps_per_block)
    }

    /// Total warp-level instructions the kernel will execute.
    pub fn total_warp_instructions(&self) -> u64 {
        self.total_warps() * u64::from(self.iters_per_warp) * self.body.len() as u64
    }

    /// Total thread-level instructions (warp instructions x active lanes).
    pub fn total_thread_instructions(&self) -> u64 {
        self.total_warp_instructions() * u64::from(self.active_lanes)
    }

    /// Fraction of body slots that are memory operations — the paper's
    /// memory-to-compute ratio `R` as a static property of the kernel.
    pub fn static_memory_ratio(&self) -> f64 {
        if self.body.is_empty() {
            return 0.0;
        }
        let mem = self.body.iter().filter(|op| op.is_memory()).count();
        mem as f64 / self.body.len() as f64
    }

    /// Validates internal consistency.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant (empty body,
    /// dangling pattern reference, zero-sized working set, lane count out
    /// of range, ...).
    pub fn validate(&self) -> Result<(), String> {
        if self.body.is_empty() {
            return Err(format!("kernel {}: empty body", self.name));
        }
        if self.grid_blocks == 0 || self.warps_per_block == 0 || self.iters_per_warp == 0 {
            return Err(format!("kernel {}: degenerate geometry", self.name));
        }
        if self.active_lanes == 0 || self.active_lanes > 32 {
            return Err(format!(
                "kernel {}: active_lanes {} out of 1..=32",
                self.name, self.active_lanes
            ));
        }
        for op in &self.body {
            if let Op::Load(PatternId(p)) | Op::Store(PatternId(p)) = op {
                if usize::from(*p) >= self.patterns.len() {
                    return Err(format!(
                        "kernel {}: op references pattern {} but only {} defined",
                        self.name,
                        p,
                        self.patterns.len()
                    ));
                }
            }
        }
        for (i, pat) in self.patterns.iter().enumerate() {
            if pat.working_set == 0 {
                return Err(format!("kernel {}: pattern {i} has empty working set", self.name));
            }
            if pat.transactions == 0 || pat.transactions > 32 {
                return Err(format!(
                    "kernel {}: pattern {i} transactions {} out of 1..=32",
                    self.name, pat.transactions
                ));
            }
            if let PatternKind::Tiled { tile_bytes } = pat.kind {
                if tile_bytes == 0 || tile_bytes > pat.working_set {
                    return Err(format!(
                        "kernel {}: pattern {i} tile larger than working set",
                        self.name
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_kernel() -> KernelDesc {
        KernelDesc {
            name: "mini".into(),
            grid_blocks: 4,
            warps_per_block: 2,
            iters_per_warp: 10,
            body: vec![Op::Alu { latency: 4 }, Op::Load(PatternId(0))],
            patterns: vec![AccessPattern::streaming(1 << 20)],
            active_lanes: 32,
        }
    }

    #[test]
    fn instruction_accounting() {
        let k = mini_kernel();
        assert_eq!(k.total_warps(), 8);
        assert_eq!(k.total_warp_instructions(), 8 * 10 * 2);
        assert_eq!(k.total_thread_instructions(), 8 * 10 * 2 * 32);
    }

    #[test]
    fn static_ratio() {
        let k = mini_kernel();
        assert!((k.static_memory_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn validation_catches_dangling_pattern() {
        let mut k = mini_kernel();
        k.body.push(Op::Load(PatternId(7)));
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_catches_bad_lanes() {
        let mut k = mini_kernel();
        k.active_lanes = 0;
        assert!(k.validate().is_err());
        k.active_lanes = 33;
        assert!(k.validate().is_err());
    }

    #[test]
    fn validation_catches_oversized_tile() {
        let mut k = mini_kernel();
        k.patterns[0] = AccessPattern::tiled(1024, 2048);
        assert!(k.validate().is_err());
    }

    #[test]
    fn app_id_display() {
        assert_eq!(AppId(3).to_string(), "app3");
    }
}
