//! Device configuration.
//!
//! Defaults follow Table 4.1 of the thesis (GTX 480-class device as
//! configured in the author's modified GPGPU-Sim): 60 SMs at 700 MHz,
//! 48 warps and 8 blocks per SM, 16 kB L1 data cache per SM, 768 kB
//! shared L2, GTO warp scheduler.

use crate::sched::WarpSchedPolicy;

/// Geometry of one set-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u32,
    /// Associativity (ways per set).
    pub ways: u32,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry does not divide into at least one set.
    pub fn sets(&self) -> u32 {
        let sets = self.bytes / (u64::from(self.line_bytes) * u64::from(self.ways));
        assert!(sets >= 1, "cache too small for its line size / ways");
        sets as u32
    }
}

/// DRAM timing and geometry for one memory controller/channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Banks per channel.
    pub banks: u32,
    /// Row-buffer size in bytes (addresses within an open row hit fast).
    pub row_bytes: u64,
    /// Data latency in core cycles for a row-buffer hit (CAS).
    pub t_row_hit: u32,
    /// Data latency in core cycles for a row-buffer miss
    /// (precharge + activate + CAS).
    pub t_row_miss: u32,
    /// Bank occupancy in core cycles after a row miss (activate-to-
    /// activate); row hits only occupy the bank for `t_burst`, which is
    /// what lets an open row stream at full bus rate.
    pub t_rc: u32,
    /// Data-bus occupancy per 128-byte transaction in core cycles; the
    /// reciprocal sets the per-channel peak bandwidth.
    pub t_burst: u32,
    /// Maximum queued requests per controller; arrivals beyond this are
    /// back-pressured into the interconnect.
    pub queue_depth: usize,
    /// When true the controller schedules first-ready (row hits) before
    /// oldest-first — the FR-FCFS policy the thesis identifies as the
    /// reason class-M applications dominate shared memory bandwidth.
    pub fr_fcfs: bool,
}

/// Full device configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GpuConfig {
    /// Number of streaming multiprocessors.
    pub num_sms: u32,
    /// Core clock in MHz; only used to convert bytes/cycle into GB/s.
    pub core_mhz: u32,
    /// Instructions issued per SM per cycle (across its warp schedulers).
    pub issue_per_sm: u32,
    /// Maximum resident warps per SM.
    pub max_warps_per_sm: u32,
    /// Maximum resident blocks per SM.
    pub max_blocks_per_sm: u32,
    /// Warp scheduler policy.
    pub sched: WarpSchedPolicy,
    /// Per-SM L1 data cache.
    pub l1: CacheConfig,
    /// One L2 slice; the device has `num_mem_ctrls` slices.
    pub l2_slice: CacheConfig,
    /// Number of memory controllers (each pairs with one L2 slice).
    pub num_mem_ctrls: u32,
    /// L1 hit latency in cycles.
    pub l1_hit_lat: u32,
    /// One-way interconnect latency SM <-> L2 in cycles.
    pub icnt_lat: u32,
    /// Requests an L2 slice can accept per cycle.
    pub l2_ports: u32,
    /// L2 tag/data access latency in cycles.
    pub l2_lat: u32,
    /// DRAM channel timing.
    pub dram: DramConfig,
    /// Reassign the SMs of a finished application to its co-runners
    /// instead of letting them idle.
    pub reassign_on_finish: bool,
}

impl GpuConfig {
    /// Miss-status holding registers per L2 slice: outstanding DRAM
    /// reads keyed by line address. A fault plan's
    /// [`MshrCap`](crate::fault::FaultKind::MshrCap) event can throttle
    /// a slice below this, never above it.
    pub const MAX_MSHRS_PER_SLICE: u32 = 64;

    /// The GTX 480-class configuration of Table 4.1.
    pub fn gtx480() -> Self {
        GpuConfig {
            num_sms: 60,
            core_mhz: 700,
            issue_per_sm: 1,
            max_warps_per_sm: 48,
            max_blocks_per_sm: 8,
            sched: WarpSchedPolicy::Gto,
            l1: CacheConfig {
                bytes: 16 * 1024,
                line_bytes: 128,
                ways: 4,
            },
            l2_slice: CacheConfig {
                bytes: 128 * 1024,
                line_bytes: 128,
                ways: 8,
            },
            num_mem_ctrls: 6,
            l1_hit_lat: 24,
            icnt_lat: 16,
            l2_ports: 2,
            l2_lat: 40,
            dram: DramConfig {
                banks: 16,
                row_bytes: 2048,
                t_row_hit: 25,
                t_row_miss: 80,
                t_rc: 56,
                t_burst: 3,
                queue_depth: 32,
                fr_fcfs: true,
            },
            reassign_on_finish: true,
        }
    }

    /// A scaled-down device for fast unit tests: 8 SMs, small caches,
    /// 2 memory controllers, same relative timing.
    pub fn test_small() -> Self {
        let mut c = Self::gtx480();
        c.num_sms = 8;
        c.max_warps_per_sm = 16;
        c.max_blocks_per_sm = 4;
        c.l1 = CacheConfig {
            bytes: 8 * 1024,
            line_bytes: 128,
            ways: 4,
        };
        c.l2_slice = CacheConfig {
            bytes: 32 * 1024,
            line_bytes: 128,
            ways: 8,
        };
        c.num_mem_ctrls = 2;
        c
    }

    /// Peak DRAM bandwidth in bytes per core cycle across all controllers.
    pub fn peak_dram_bytes_per_cycle(&self) -> f64 {
        f64::from(self.num_mem_ctrls) * 128.0 / f64::from(self.dram.t_burst)
    }

    /// Converts a bytes-per-cycle figure into GB/s at the core clock.
    pub fn bytes_per_cycle_to_gbps(&self, bpc: f64) -> f64 {
        bpc * f64::from(self.core_mhz) / 1000.0
    }

    /// Peak thread-level IPC: every SM issuing a full 32-lane warp
    /// instruction every cycle.
    pub fn peak_thread_ipc(&self) -> f64 {
        f64::from(self.num_sms) * f64::from(self.issue_per_sm) * 32.0
    }

    /// Validates internal consistency: every configuration this accepts
    /// builds (no constructor assertion fires) and can make progress
    /// (no zero-width stage, no division by a zero geometry field).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant, naming
    /// the offending field.
    pub fn validate(&self) -> Result<(), String> {
        if self.num_sms == 0 {
            return Err("device needs at least one SM".into());
        }
        if self.num_mem_ctrls == 0 {
            return Err("device needs at least one memory controller".into());
        }
        if self.num_mem_ctrls > 64 {
            return Err("num_mem_ctrls must be at most 64 (the admission mask is one word)".into());
        }
        if self.max_warps_per_sm == 0 || self.max_blocks_per_sm == 0 {
            return Err("SM must host at least one warp and one block".into());
        }
        if self.max_warps_per_sm > 64 {
            return Err("max_warps_per_sm must be at most 64 (the ready mask is one word)".into());
        }
        if self.issue_per_sm == 0 {
            return Err("issue_per_sm must be nonzero".into());
        }
        if self.l1.line_bytes != self.l2_slice.line_bytes {
            return Err("L1 and L2 line sizes must agree".into());
        }
        for (name, c) in [("l1", &self.l1), ("l2_slice", &self.l2_slice)] {
            if !c.line_bytes.is_power_of_two() {
                return Err(format!("{name}.line_bytes must be a power of two"));
            }
            if c.ways == 0 {
                return Err(format!("{name}.ways must be nonzero"));
            }
            if c.bytes < u64::from(c.line_bytes) * u64::from(c.ways) {
                return Err(format!(
                    "{name}.bytes is too small for its line size and ways"
                ));
            }
        }
        if self.l2_ports == 0 {
            return Err("l2_ports must be nonzero".into());
        }
        if self.dram.banks == 0 {
            return Err("dram.banks must be nonzero".into());
        }
        if self.dram.row_bytes == 0 {
            return Err("dram.row_bytes must be nonzero".into());
        }
        if self.dram.queue_depth == 0 {
            return Err("dram.queue_depth must be nonzero".into());
        }
        if self.dram.t_burst == 0 {
            return Err("dram.t_burst must be nonzero".into());
        }
        Ok(())
    }
}

impl Default for GpuConfig {
    fn default() -> Self {
        Self::gtx480()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gtx480_matches_table_41() {
        let c = GpuConfig::gtx480();
        assert_eq!(c.num_sms, 60);
        assert_eq!(c.core_mhz, 700);
        assert_eq!(c.max_warps_per_sm, 48);
        assert_eq!(c.max_blocks_per_sm, 8);
        assert_eq!(c.l1.bytes, 16 * 1024);
        assert_eq!(
            u64::from(c.num_mem_ctrls) * c.l2_slice.bytes,
            768 * 1024,
            "total L2 is 768 kB"
        );
        assert_eq!(c.sched, WarpSchedPolicy::Gto);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn cache_sets() {
        let c = CacheConfig {
            bytes: 16 * 1024,
            line_bytes: 128,
            ways: 4,
        };
        assert_eq!(c.sets(), 32);
    }

    #[test]
    fn peak_bandwidth_sane() {
        let c = GpuConfig::gtx480();
        let gbps = c.bytes_per_cycle_to_gbps(c.peak_dram_bytes_per_cycle());
        // 6 controllers x 128 B / 3 cycles @ 700 MHz = 179.2 GB/s,
        // in the GTX 480 ballpark (177.4 GB/s).
        assert!((gbps - 179.2).abs() < 0.5, "{gbps}");
    }

    #[test]
    fn validate_rejects_zero_sms() {
        let mut c = GpuConfig::gtx480();
        c.num_sms = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_line_mismatch() {
        let mut c = GpuConfig::gtx480();
        c.l1.line_bytes = 64;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validate_rejects_what_would_panic_or_never_progress() {
        // Each row used to pass `validate()` and then trip a
        // constructor assertion, divide by zero, or spin to `Timeout`.
        // `Gpu::new` must answer every one with `InvalidConfig` naming
        // the field — and never panic.
        type Edit = fn(&mut GpuConfig);
        let rows: [(&str, Edit); 12] = [
            ("max_warps_per_sm", |c| c.max_warps_per_sm = 65),
            ("line_bytes", |c| {
                c.l1.line_bytes = 96;
                c.l2_slice.line_bytes = 96;
            }),
            ("l1.ways", |c| c.l1.ways = 0),
            ("l2_slice.ways", |c| c.l2_slice.ways = 0),
            ("l1.bytes", |c| c.l1.bytes = 256),
            ("dram.banks", |c| c.dram.banks = 0),
            ("dram.row_bytes", |c| c.dram.row_bytes = 0),
            ("dram.queue_depth", |c| c.dram.queue_depth = 0),
            ("dram.t_burst", |c| c.dram.t_burst = 0),
            ("issue_per_sm", |c| c.issue_per_sm = 0),
            ("l2_ports", |c| c.l2_ports = 0),
            ("num_mem_ctrls", |c| c.num_mem_ctrls = 65),
        ];
        for (field, edit) in rows {
            let mut c = GpuConfig::test_small();
            edit(&mut c);
            match crate::gpu::Gpu::new(c) {
                Err(crate::gpu::SimError::InvalidConfig(why)) => {
                    assert!(why.contains(field), "{field}: message was {why:?}");
                }
                other => panic!("{field}: expected InvalidConfig, got {other:?}"),
            }
        }
        // The bounds themselves are legal.
        let mut c = GpuConfig::test_small();
        c.max_warps_per_sm = 64;
        c.num_mem_ctrls = 64;
        assert!(crate::gpu::Gpu::new(c).is_ok());
    }

    #[test]
    fn peak_thread_ipc_gtx480() {
        assert_eq!(GpuConfig::gtx480().peak_thread_ipc(), 1920.0);
    }
}
