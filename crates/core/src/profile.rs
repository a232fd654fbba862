//! Alone-run application profiling (§3.2.1, first step).
//!
//! The methodology's inputs are four per-application signals measured
//! with the application running *alone* on the whole device: DRAM
//! bandwidth, L2→L1 bandwidth, thread-level IPC and the
//! memory-to-compute ratio `R`. [`profile_alone`] produces them;
//! [`profile_with_sms`] restricts the device to a subset of SMs, which
//! is what the scalability studies (Fig 3.5/3.6) and the Profile-based
//! baseline \[17\] consume.
//!
//! These functions run one simulation, synchronously. Anything that
//! profiles more than a single kernel should go through
//! [`crate::sweep::SweepEngine`], which fans independent profiling jobs
//! across cores and memoizes every result on disk — the [`Pipeline`]
//! (`crate::runner`) and the `repro` harness all do.
//!
//! [`Pipeline`]: crate::runner::Pipeline

use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, PhaseCycles, SimError};
use gcs_sim::kernel::{AppId, KernelDesc};
use gcs_sim::KernelTrace;
use std::sync::Arc;

/// Cycle budget for a profiling run; generous relative to the workload
/// sizes the suite produces.
pub const PROFILE_MAX_CYCLES: u64 = 200_000_000;

/// The four classifier signals plus supporting detail.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// Kernel name the profile belongs to.
    pub name: String,
    /// DRAM bandwidth (reads + writes) in GB/s at the core clock.
    pub memory_bw: f64,
    /// L2→L1 read-return bandwidth in GB/s.
    pub l2_l1_bw: f64,
    /// Thread-level IPC over the app's own runtime.
    pub ipc: f64,
    /// Dynamic memory-to-compute ratio.
    pub r: f64,
    /// IPC over the device's peak thread IPC, in `[0, 1]`.
    pub utilization: f64,
    /// Runtime in cycles.
    pub cycles: u64,
    /// Thread instructions retired.
    pub thread_insts: u64,
    /// SMs the profile was taken with.
    pub num_sms: u32,
}

/// Profiles `kernel` running alone on every SM of `cfg`.
///
/// # Errors
///
/// Propagates simulator errors ([`SimError::Timeout`] etc.).
///
/// # Example
///
/// ```
/// use gcs_core::profile::profile_alone;
/// use gcs_sim::config::GpuConfig;
/// use gcs_workloads::{Benchmark, Scale};
///
/// # fn main() -> Result<(), gcs_sim::gpu::SimError> {
/// let cfg = GpuConfig::test_small();
/// let p = profile_alone(&Benchmark::Lud.kernel(Scale::TEST), &cfg)?;
/// assert!(p.ipc > 0.0);
/// # Ok(())
/// # }
/// ```
pub fn profile_alone(kernel: &KernelDesc, cfg: &GpuConfig) -> Result<AppProfile, SimError> {
    profile_with_sms(kernel, cfg, cfg.num_sms)
}

/// Profiles `kernel` alone on the first `num_sms` SMs of the device;
/// the remaining SMs idle (they still share the L2 and DRAM, but carry
/// no traffic).
///
/// # Errors
///
/// [`SimError::InvalidConfig`] when `num_sms` is zero or exceeds the
/// device, plus any simulator error.
pub fn profile_with_sms(
    kernel: &KernelDesc,
    cfg: &GpuConfig,
    num_sms: u32,
) -> Result<AppProfile, SimError> {
    profile_with_sms_phases(kernel, cfg, num_sms, false).map(|(p, _)| p)
}

/// Like [`profile_with_sms`], but optionally collects the device's
/// [`PhaseCycles`] alongside the profile (the sweep engine's `--profile`
/// plumbing). The profile itself is bit-identical either way.
///
/// # Errors
///
/// Same as [`profile_with_sms`].
pub fn profile_with_sms_phases(
    kernel: &KernelDesc,
    cfg: &GpuConfig,
    num_sms: u32,
    phases: bool,
) -> Result<(AppProfile, Option<PhaseCycles>), SimError> {
    profile_launched(cfg, num_sms, phases, &kernel.name, |gpu| {
        gpu.launch(kernel.clone())
    })
}

/// Like [`profile_with_sms_phases`], but the application replays a
/// recorded or authored [`KernelTrace`] instead of executing a
/// synthetic kernel. Signal math and cycle accounting are shared, so a
/// trace recorded from a kernel profiles bit-identically to the kernel
/// itself.
///
/// # Errors
///
/// Same as [`profile_with_sms`], plus [`SimError::InvalidKernel`] for a
/// trace that fails validation.
pub fn profile_trace_with_sms_phases(
    trace: &Arc<KernelTrace>,
    cfg: &GpuConfig,
    num_sms: u32,
    phases: bool,
) -> Result<(AppProfile, Option<PhaseCycles>), SimError> {
    profile_launched(cfg, num_sms, phases, &trace.meta.name, |gpu| {
        gpu.launch_traced(Arc::clone(trace))
    })
}

/// Shared profiling body: launch via `launch`, run alone on the first
/// `num_sms` SMs, compute the four classifier signals.
fn profile_launched(
    cfg: &GpuConfig,
    num_sms: u32,
    phases: bool,
    name: &str,
    launch: impl FnOnce(&mut Gpu) -> Result<AppId, SimError>,
) -> Result<(AppProfile, Option<PhaseCycles>), SimError> {
    if num_sms == 0 || num_sms > cfg.num_sms {
        return Err(SimError::InvalidConfig(format!(
            "profiling with {num_sms} SMs on a {}-SM device",
            cfg.num_sms
        )));
    }
    let mut gpu = Gpu::new(cfg.clone())?;
    gpu.set_profiling(phases);
    let app = launch(&mut gpu)?;
    let ids: Vec<u32> = (0..num_sms).collect();
    gpu.assign_sms(app, &ids);
    gpu.run(PROFILE_MAX_CYCLES)?;

    let stats = gpu.stats().app(app);
    // The sweep engine serves a lone app's one-member `Even` co-run
    // from its full-device profile, with `makespan = cycles + 1`.
    debug_assert!(
        num_sms < cfg.num_sms || (stats.start_cycle == 0 && gpu.cycle() == stats.finish_cycle + 1),
        "a full-device alone run starts at cycle 0 and stops on the cycle after it finishes"
    );
    let cycles = stats.runtime_cycles().max(1);
    let to_gbps = |bytes: u64| cfg.bytes_per_cycle_to_gbps(bytes as f64 / cycles as f64);
    let ipc = stats.thread_ipc();
    Ok((
        AppProfile {
            name: name.to_string(),
            memory_bw: to_gbps(stats.dram_bytes()),
            l2_l1_bw: to_gbps(stats.l2_to_l1_bytes),
            ipc,
            r: stats.memory_ratio(),
            utilization: ipc / cfg.peak_thread_ipc(),
            cycles,
            thread_insts: stats.thread_insts,
            num_sms,
        },
        gpu.phase_cycles(),
    ))
}

/// IPC of `kernel` at each SM count in `sm_counts` — the scalability
/// curve of Fig 3.5/3.6 and the input to the Profile-based allocator.
///
/// # Errors
///
/// Propagates the first profiling error.
pub fn scalability_curve(
    kernel: &KernelDesc,
    cfg: &GpuConfig,
    sm_counts: &[u32],
) -> Result<Vec<(u32, f64)>, SimError> {
    sm_counts
        .iter()
        .map(|&n| profile_with_sms(kernel, cfg, n).map(|p| (n, p.ipc)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcs_workloads::{Benchmark, Scale};

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    #[test]
    fn profile_reports_positive_signals() {
        let p = profile_alone(&Benchmark::Blk.kernel(Scale::TEST), &cfg()).unwrap();
        assert!(p.memory_bw > 0.0, "BLK must touch DRAM");
        assert!(p.ipc > 0.0);
        assert!(p.r > 0.0 && p.r < 1.0);
        assert!(p.utilization > 0.0 && p.utilization <= 1.0);
    }

    #[test]
    fn sm_count_bounds_checked() {
        let k = Benchmark::Lud.kernel(Scale::TEST);
        assert!(profile_with_sms(&k, &cfg(), 0).is_err());
        assert!(profile_with_sms(&k, &cfg(), 999).is_err());
    }

    #[test]
    fn compute_kernel_has_low_memory_bw() {
        let lud = profile_alone(&Benchmark::Lud.kernel(Scale::TEST), &cfg()).unwrap();
        let blk = profile_alone(&Benchmark::Blk.kernel(Scale::TEST), &cfg()).unwrap();
        assert!(
            lud.memory_bw < blk.memory_bw,
            "LUD ({}) should use far less DRAM than BLK ({})",
            lud.memory_bw,
            blk.memory_bw
        );
    }

    #[test]
    fn scalability_curve_is_ordered() {
        let k = Benchmark::Hs.kernel(Scale::TEST);
        let curve = scalability_curve(&k, &cfg(), &[2, 4, 8]).unwrap();
        assert_eq!(curve.len(), 3);
        assert!(
            curve[2].1 > curve[0].1,
            "HS scales with cores: {curve:?}"
        );
    }
}
