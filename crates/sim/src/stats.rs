//! Simulation statistics: per-application and device-level counters.
//!
//! Everything the paper's methodology consumes is here: thread-level
//! instruction counts and cycles (throughput, Eq. 1.1), DRAM bytes
//! (memory bandwidth), L2→L1 bytes, and the memory-to-compute ratio R
//! used by the classifier (Table 3.1), plus windowed deltas for the
//! SMRA controller (Algorithm 1 samples every `T_C` cycles).

use crate::kernel::AppId;

/// Counters for one application slot.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AppStats {
    /// Warp-level instructions issued.
    pub warp_insts: u64,
    /// Thread-level instructions (warp instructions × active lanes).
    pub thread_insts: u64,
    /// Memory (load + store) warp instructions issued.
    pub mem_insts: u64,
    /// Arithmetic/SFU warp instructions issued.
    pub alu_insts: u64,
    /// L1 data cache hits.
    pub l1_hits: u64,
    /// L1 data cache misses.
    pub l1_misses: u64,
    /// Bytes read from DRAM on behalf of this app.
    pub dram_read_bytes: u64,
    /// Bytes written to DRAM on behalf of this app.
    pub dram_write_bytes: u64,
    /// Bytes returned from the L2 to any L1 for this app.
    pub l2_to_l1_bytes: u64,
    /// DRAM row-buffer hits (reads).
    pub dram_row_hits: u64,
    /// DRAM row-buffer misses (reads).
    pub dram_row_misses: u64,
    /// Cycle the first block was dispatched.
    pub start_cycle: u64,
    /// Cycle the last warp retired (`u64::MAX` while running).
    pub finish_cycle: u64,
    /// Blocks completed.
    pub blocks_done: u32,
}

impl AppStats {
    /// Fresh counters with an unset finish cycle.
    pub fn new() -> Self {
        AppStats {
            finish_cycle: u64::MAX,
            ..Default::default()
        }
    }

    /// Whether the application has retired all its work.
    pub fn finished(&self) -> bool {
        self.finish_cycle != u64::MAX
    }

    /// Cycles from first dispatch to retirement.
    ///
    /// # Panics
    ///
    /// Panics if the application has not finished.
    pub fn runtime_cycles(&self) -> u64 {
        assert!(self.finished(), "application still running");
        self.finish_cycle - self.start_cycle
    }

    /// Total DRAM traffic in bytes (reads + writes).
    pub fn dram_bytes(&self) -> u64 {
        self.dram_read_bytes + self.dram_write_bytes
    }

    /// Thread-level IPC over the app's own runtime.
    pub fn thread_ipc(&self) -> f64 {
        let cycles = if self.finished() {
            self.runtime_cycles()
        } else {
            return 0.0;
        };
        if cycles == 0 {
            0.0
        } else {
            self.thread_insts as f64 / cycles as f64
        }
    }

    /// Dynamic memory-to-compute ratio: memory instructions over all
    /// instructions (the paper's `R`).
    pub fn memory_ratio(&self) -> f64 {
        if self.warp_insts == 0 {
            0.0
        } else {
            self.mem_insts as f64 / self.warp_insts as f64
        }
    }
}

/// All per-app counters plus the device cycle.
#[derive(Debug, Clone, PartialEq)]
pub struct SimStats {
    apps: Vec<AppStats>,
    /// Device cycles elapsed.
    pub cycles: u64,
}

impl SimStats {
    /// Creates counters for up to `max_apps` application slots.
    pub fn new(max_apps: usize) -> Self {
        SimStats {
            apps: vec![AppStats::new(); max_apps],
            cycles: 0,
        }
    }

    /// Counters for `app` (read-only).
    ///
    /// # Panics
    ///
    /// Panics if `app` is outside the slot range.
    pub fn app(&self, app: AppId) -> &AppStats {
        &self.apps[usize::from(app.0)]
    }

    /// Counters for `app` (mutable).
    ///
    /// # Panics
    ///
    /// Panics if `app` is outside the slot range.
    pub fn app_mut(&mut self, app: AppId) -> &mut AppStats {
        &mut self.apps[usize::from(app.0)]
    }

    /// Number of application slots.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Iterates over `(AppId, &AppStats)`.
    pub fn iter(&self) -> impl Iterator<Item = (AppId, &AppStats)> {
        self.apps
            .iter()
            .enumerate()
            .map(|(i, s)| (AppId(i as u16), s))
    }

    /// Overwrites `self` with `src` without allocating (the app vector
    /// is reused). Windowed observers snapshot simulator stats every few
    /// thousand cycles; this keeps that path free of clone churn.
    pub fn copy_from(&mut self, src: &SimStats) {
        self.apps.clear();
        self.apps.extend_from_slice(&src.apps);
        self.cycles = src.cycles;
    }

    /// Device throughput: total thread instructions over device cycles
    /// (Eq. 1.1 of the thesis).
    pub fn device_throughput(&self) -> f64 {
        if self.cycles == 0 {
            return 0.0;
        }
        let insts: u64 = self.apps.iter().map(|a| a.thread_insts).sum();
        insts as f64 / self.cycles as f64
    }
}

/// Per-SM state captured in a [`DiagSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmDiag {
    /// SM index.
    pub id: u32,
    /// Warps currently ready to issue.
    pub ready_warps: u32,
    /// Warps resident (ready or blocked on memory).
    pub live_warps: u32,
    /// Owning application slot, if any.
    pub owner: Option<u16>,
    /// Whether the SM is in service (false while fault-disabled).
    pub enabled: bool,
}

/// Per-L2-slice / memory-controller state captured in a
/// [`DiagSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SliceDiag {
    /// Slice / controller index.
    pub id: u32,
    /// Requests queued at the slice input.
    pub input_depth: u32,
    /// Requests live in the DRAM controller queue.
    pub dram_queue_depth: u32,
    /// MSHR entries in use.
    pub mshr_used: u32,
}

/// A structured snapshot of device state, attached to
/// [`SimError`](crate::gpu::SimError) so a timeout or deadlock reports
/// *where* the machine was stuck instead of just when.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DiagSnapshot {
    /// Device cycle at capture.
    pub cycle: u64,
    /// One entry per SM.
    pub sms: Vec<SmDiag>,
    /// One entry per L2 slice / memory controller.
    pub slices: Vec<SliceDiag>,
}

impl DiagSnapshot {
    /// Number of SMs in service at capture.
    pub fn enabled_sms(&self) -> u32 {
        self.sms.iter().filter(|s| s.enabled).count() as u32
    }
}

impl std::fmt::Display for DiagSnapshot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ready: u32 = self.sms.iter().map(|s| s.ready_warps).sum();
        let live: u32 = self.sms.iter().map(|s| s.live_warps).sum();
        let dram: u32 = self.slices.iter().map(|s| s.dram_queue_depth).sum();
        let l2in: u32 = self.slices.iter().map(|s| s.input_depth).sum();
        let mshr: u32 = self.slices.iter().map(|s| s.mshr_used).sum();
        write!(
            f,
            "{}/{} SMs enabled, {ready} ready / {live} live warps, \
             {l2in} L2-queued, {dram} DRAM-queued, {mshr} MSHRs in use",
            self.enabled_sms(),
            self.sms.len(),
        )
    }
}

/// A snapshot of the windowed quantities SMRA consumes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Window {
    /// Device thread-IPC over the window.
    pub device_ipc: f64,
    /// Per-app thread-IPC over the window (slots beyond the running apps
    /// read 0).
    pub app_ipc: [f64; 8],
    /// Per-app DRAM bytes/cycle over the window.
    pub app_bw: [f64; 8],
}

/// Computes windowed rates between two cumulative snapshots taken
/// `delta_cycles` apart.
///
/// # Panics
///
/// Panics if `delta_cycles` is zero or either snapshot has more than 8
/// application slots.
pub fn window_between(before: &SimStats, after: &SimStats, delta_cycles: u64) -> Window {
    assert!(delta_cycles > 0, "empty window");
    assert!(before.num_apps() <= 8 && after.num_apps() <= 8);
    let dc = delta_cycles as f64;
    let mut w = Window {
        device_ipc: 0.0,
        app_ipc: [0.0; 8],
        app_bw: [0.0; 8],
    };
    let mut total = 0u64;
    for (id, a) in after.iter() {
        let b = before.app(id);
        let di = a.thread_insts - b.thread_insts;
        let db = a.dram_bytes() - b.dram_bytes();
        w.app_ipc[usize::from(id.0)] = di as f64 / dc;
        w.app_bw[usize::from(id.0)] = db as f64 / dc;
        total += di;
    }
    w.device_ipc = total as f64 / dc;
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ipc_and_ratio() {
        let mut s = AppStats::new();
        s.start_cycle = 100;
        s.finish_cycle = 1100;
        s.thread_insts = 32_000;
        s.warp_insts = 1000;
        s.mem_insts = 250;
        assert!((s.thread_ipc() - 32.0).abs() < 1e-12);
        assert!((s.memory_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn unfinished_app_has_zero_ipc() {
        let s = AppStats::new();
        assert!(!s.finished());
        assert_eq!(s.thread_ipc(), 0.0);
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn runtime_of_running_app_panics() {
        AppStats::new().runtime_cycles();
    }

    #[test]
    fn device_throughput_sums_apps() {
        let mut st = SimStats::new(2);
        st.cycles = 100;
        st.app_mut(AppId(0)).thread_insts = 3000;
        st.app_mut(AppId(1)).thread_insts = 2000;
        assert!((st.device_throughput() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn window_rates() {
        let mut a = SimStats::new(2);
        let mut b = SimStats::new(2);
        b.app_mut(AppId(0)).thread_insts = 1000;
        b.app_mut(AppId(0)).dram_read_bytes = 6400;
        b.app_mut(AppId(1)).thread_insts = 500;
        let w = window_between(&a, &b, 100);
        assert!((w.app_ipc[0] - 10.0).abs() < 1e-12);
        assert!((w.app_bw[0] - 64.0).abs() < 1e-12);
        assert!((w.app_ipc[1] - 5.0).abs() < 1e-12);
        assert!((w.device_ipc - 15.0).abs() < 1e-12);
        // identical snapshots -> zero rates
        a = b.clone();
        let w2 = window_between(&a, &b, 50);
        assert_eq!(w2.device_ipc, 0.0);
    }
}
