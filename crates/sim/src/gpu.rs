//! The device: SMs + shared memory system + block dispatch + spatial
//! partitioning with drain-based SM migration.
//!
//! This is the simulator's public entry point. A typical single-app run:
//!
//! ```
//! use gcs_sim::config::GpuConfig;
//! use gcs_sim::gpu::Gpu;
//! use gcs_sim::kernel::{AccessPattern, KernelDesc, Op, PatternId};
//!
//! # fn main() -> Result<(), gcs_sim::gpu::SimError> {
//! let mut gpu = Gpu::new(GpuConfig::test_small())?;
//! let app = gpu.launch(KernelDesc {
//!     name: "demo".into(),
//!     grid_blocks: 8,
//!     warps_per_block: 2,
//!     iters_per_warp: 16,
//!     body: vec![Op::Alu { latency: 4 }, Op::Load(PatternId(0))],
//!     patterns: vec![AccessPattern::streaming(1 << 20)],
//!     active_lanes: 32,
//! })?;
//! gpu.partition_even();
//! gpu.run(1_000_000)?;
//! assert!(gpu.stats().app(app).finished());
//! # Ok(())
//! # }
//! ```

use std::error::Error;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::config::GpuConfig;
use crate::fault::{apply_fault_event, FaultEvent, FaultPlan};
use crate::kernel::{AppId, KernelDesc};
use crate::memsys::{Completion, MemShard, MemSys};
use crate::shard::{
    has_bit, worker_loop, CellsView, Rotation, RunSnapshot, SeqExec, ShardCell, ShardCtl,
    ShardExec, ShardPlan, ShutdownGuard, SmActivity, SmSlab, SnapApp, ThreadedExec,
};
use crate::sm::Sm;
use crate::stats::{DiagSnapshot, SimStats, SmDiag};
use crate::trace_fmt::{KernelTrace, TraceHook, TraceRecorder};
use crate::warp::check_pattern_limit;

/// Maximum concurrently launched applications.
pub const MAX_APPS: usize = 8;

/// Errors from device construction and execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The device configuration is inconsistent.
    InvalidConfig(String),
    /// A launched kernel failed validation.
    InvalidKernel(String),
    /// `run` exceeded its cycle budget.
    Timeout {
        /// Cycle at which the budget ran out.
        cycle: u64,
        /// Device state at the moment the budget ran out.
        diag: DiagSnapshot,
    },
    /// No warp can ever make progress again (e.g. every SM is idle and
    /// unowned while blocks remain).
    Deadlock {
        /// Cycle at which the deadlock was detected.
        cycle: u64,
        /// Device state at the moment the deadlock was detected.
        diag: DiagSnapshot,
    },
    /// Application slot limit reached.
    TooManyApps,
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(why) => write!(f, "invalid configuration: {why}"),
            SimError::InvalidKernel(why) => write!(f, "invalid kernel: {why}"),
            SimError::Timeout { cycle, diag } => {
                write!(f, "cycle budget exhausted at cycle {cycle} ({diag})")
            }
            SimError::Deadlock { cycle, diag } => {
                write!(f, "no runnable work at cycle {cycle} ({diag})")
            }
            SimError::TooManyApps => write!(f, "application slot limit reached"),
        }
    }
}

impl Error for SimError {}

#[derive(Debug)]
struct AppRuntime {
    kernel: KernelDesc,
    next_block: u32,
    blocks_done: u32,
    started: bool,
    finished: bool,
    trace: AppTrace,
}

/// Trace mode of one launched application.
#[derive(Debug)]
enum AppTrace {
    /// Plain synthetic execution.
    Off,
    /// Capture the issue path's address attempts.
    Record(TraceRecorder),
    /// Serve addresses from a recorded trace.
    Replay(Arc<KernelTrace>),
}

/// How [`Gpu::run`] and [`Gpu::run_for`] advance the device clock.
///
/// Both modes produce bit-identical [`SimStats`] (asserted by the
/// `step_equivalence` suite); this is a runtime knob on the device, not
/// part of [`GpuConfig`], so sweep-cache fingerprints are unaffected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Step every cycle; fast-forward only fully quiescent sleep phases
    /// (the slow reference behavior).
    Cycle,
    /// Jump straight to the next event horizon — the earliest SM
    /// wake-up or memory-system event — whenever no SM can issue or
    /// dispatch, even while the memory system is busy.
    #[default]
    EventHorizon,
}

/// Per-phase attribution of simulated cycles, collected only when
/// profiling is switched on ([`Gpu::set_profiling`]; off by default, so
/// results never pay for it). Every simulated cycle — stepped or jumped
/// over — lands in exactly one bucket, so the totals always sum to the
/// device clock advanced while profiling was on.
///
/// Attribution is deliberately coarse (one bucket per cycle for the
/// whole device): it answers "where do simulated cycles go" for the
/// engine's own performance work, not per-app accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseCycles {
    /// At least one SM issued an instruction (fetch/schedule active).
    pub issue: u64,
    /// Stalled with the memory system idle but warps asleep on SM-side
    /// wake-ups (L1 hit latency, ALU latency).
    pub l1: u64,
    /// Stalled with the memory system busy but no request queued at any
    /// DRAM controller (L2/interconnect bound).
    pub l2: u64,
    /// Stalled with requests queued at a DRAM controller.
    pub dram: u64,
    /// Burned at a controller sampling barrier: `run_for` window clamps
    /// and dead-window burns (SMRA bookkeeping).
    pub smra: u64,
    /// Nothing in flight anywhere (e.g. the gap before dispatch).
    pub idle: u64,
}

impl PhaseCycles {
    /// Sum over all buckets; equals the cycles simulated under
    /// profiling.
    pub fn total(&self) -> u64 {
        self.issue + self.l1 + self.l2 + self.dram + self.smra + self.idle
    }

    /// Accumulates `other` into `self` (merging runs or sweep jobs).
    pub fn add(&mut self, other: &PhaseCycles) {
        self.issue += other.issue;
        self.l1 += other.l1;
        self.l2 += other.l2;
        self.dram += other.dram;
        self.smra += other.smra;
        self.idle += other.idle;
    }
}

/// Which [`PhaseCycles`] bucket a cycle (or jumped span) lands in.
#[derive(Debug, Clone, Copy)]
enum Phase {
    Issue,
    L1,
    L2,
    Dram,
    Smra,
    Idle,
}

/// The simulated device.
#[derive(Debug)]
pub struct Gpu {
    cfg: GpuConfig,
    sms: Vec<Sm>,
    memsys: MemSys,
    apps: Vec<AppRuntime>,
    stats: SimStats,
    cycle: u64,
    comp_buf: Vec<Completion>,
    step_mode: StepMode,
    /// Scratch for `reassign_sms_of` (avoids per-call allocation).
    reassign_buf: Vec<(AppId, u32)>,
    /// Installed fault schedule, if any (`None` = healthy device, the
    /// zero-cost default: one branch per step).
    fault_plan: Option<FaultPlan>,
    /// Scratch for `apply_due_faults` (avoids per-event borrows).
    fault_buf: Vec<FaultEvent>,
    /// In-service bitmap, one entry per SM; all `true` until a
    /// `DisableSm` fault fires.
    sm_enabled: Vec<bool>,
    /// Phase-cycle counters, `None` (the default) unless profiling was
    /// requested — the hot loop then pays a single branch per step.
    profiler: Option<PhaseCycles>,
    /// SM shard count for `run`/`run_for` (1 = unsharded reference
    /// stepping; DESIGN.md §12). A runtime knob like [`StepMode`] —
    /// results are bit-identical at any value, so sweep-cache
    /// fingerprints are unaffected.
    shards: u32,
    /// Threads driving the sharded parallel phase (1 = the sequential
    /// executor).
    shard_workers: u32,
    /// Scratch for the sharded merge phase's pending-SM rotation.
    pend_buf: Vec<u32>,
    /// Ready / dispatch / wake summaries of `sms` for the unsharded step
    /// (DESIGN.md §8, "Active-SM stepping"): the step visits only the
    /// SMs they name, and quiescence and horizon read them instead of
    /// scanning every SM.
    act: SmActivity,
    /// `act` must be rebuilt before its next read: set by every public
    /// call that can change SM ownership or service, by a fault event,
    /// a block retirement, an app dispatching its last block, and on
    /// return from a sharded run.
    act_dirty: bool,
    /// Scratch for the step's visit set.
    visit_buf: Vec<u64>,
}

impl Gpu {
    /// Builds an idle device.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when `cfg` fails validation.
    pub fn new(cfg: GpuConfig) -> Result<Self, SimError> {
        cfg.validate().map_err(SimError::InvalidConfig)?;
        let sms = (0..cfg.num_sms).map(|i| Sm::new(i, &cfg)).collect();
        let memsys = MemSys::new(&cfg);
        Ok(Gpu {
            sms,
            memsys,
            apps: Vec::new(),
            stats: SimStats::new(MAX_APPS),
            cycle: 0,
            comp_buf: Vec::with_capacity(64),
            step_mode: StepMode::default(),
            reassign_buf: Vec::new(),
            fault_plan: None,
            fault_buf: Vec::new(),
            sm_enabled: vec![true; cfg.num_sms as usize],
            profiler: None,
            shards: 1,
            shard_workers: 1,
            pend_buf: Vec::new(),
            act: SmActivity::new(cfg.num_sms as usize),
            act_dirty: true,
            visit_buf: Vec::new(),
            cfg,
        })
    }

    /// The device configuration.
    pub fn config(&self) -> &GpuConfig {
        &self.cfg
    }

    /// Clock-advance strategy in force.
    pub fn step_mode(&self) -> StepMode {
        self.step_mode
    }

    /// Selects how `run`/`run_for` advance the clock. Statistics are
    /// bit-identical across modes; [`StepMode::Cycle`] is the slow
    /// reference used by the equivalence tests.
    pub fn set_step_mode(&mut self, mode: StepMode) {
        self.step_mode = mode;
    }

    /// Switches phase-cycle profiling on or off (off by default).
    /// Turning it on resets the counters; it never affects simulation
    /// results — [`SimStats`] stays bit-identical either way.
    pub fn set_profiling(&mut self, on: bool) {
        self.profiler = if on { Some(PhaseCycles::default()) } else { None };
    }

    /// Phase counters collected so far, `None` when profiling is off.
    pub fn phase_cycles(&self) -> Option<PhaseCycles> {
        self.profiler
    }

    /// Selects the SM shard count for `run`/`run_for` (clamped to
    /// `[1, num_sms]`; 1, the default, is the unsharded reference
    /// step). Sharding is a runtime knob like [`StepMode`]: statistics,
    /// traces and SMRA decisions are bit-identical at every value
    /// (pinned by the `shard_equivalence` suite), so sweep-cache keys
    /// are unaffected. Recording apps force the unsharded path — the
    /// recorder's warp-group interning is first-touch order-sensitive.
    pub fn set_shards(&mut self, k: u32) {
        self.shards = k.clamp(1, (self.sms.len() as u32).max(1));
        self.act_dirty = true;
    }

    /// SM shard count in force (1 = unsharded).
    pub fn shards(&self) -> u32 {
        self.shards
    }

    /// Sets how many threads drive the sharded parallel phase (default
    /// 1: the sequential executor). Values above the shard count are
    /// clamped at run time; thread count can never affect results.
    /// Idle-SM elision does not depend on it — every lane, the unsharded
    /// one included, visits only the SMs that can act.
    pub fn set_shard_workers(&mut self, w: u32) {
        self.shard_workers = w.max(1);
    }

    /// Threads driving the sharded parallel phase.
    pub fn shard_workers(&self) -> u32 {
        self.shard_workers
    }

    /// Selects the memory-shard count for phase M (clamped to
    /// `[1, num_slices]`; 1, the default, keeps the single-pass
    /// reference `MemSys::tick`). Like SM sharding this is a pure
    /// runtime knob: stats, traces and SMRA decisions are bit-identical
    /// at every value (pinned by the `memsys_shard_equivalence` suite).
    /// Memory shards are stepped by the *same* leased workers as the
    /// SM shards — no extra threads beyond `GCS_SIM_THREADS`.
    pub fn set_mem_shards(&mut self, k: u32) {
        self.memsys.set_shards(k);
    }

    /// Memory-shard count in force (1 = unsharded).
    pub fn mem_shards(&self) -> u32 {
        self.memsys.num_shards() as u32
    }

    /// The SM partition `run`/`run_for` would use right now.
    pub fn shard_plan(&self) -> ShardPlan {
        ShardPlan::new(self.sms.len() as u32, self.shards)
    }

    /// Whether the next `run`/`run_for` takes the sharded path.
    fn use_sharded(&self) -> bool {
        self.shards > 1
            && self.sms.len() >= 2
            && !self.apps.is_empty()
            && !self
                .apps
                .iter()
                .any(|a| matches!(a.trace, AppTrace::Record(_)))
    }

    /// Classifies a stall (no SM can issue) at the current device state.
    fn wait_phase(&mut self) -> Phase {
        let wake = self.sm_wake();
        self.wait_phase_from(wake)
    }

    /// Earliest SM sleeper wake-up: read from the activity summary and
    /// `debug_assert!`ed against the scan over every SM it replaces —
    /// which the reference [`StepMode::Cycle`] still runs. Exact when no
    /// SM stayed ready through the last visit (quiescence, or a stepped
    /// cycle that issued nothing), the only times it is asked.
    fn sm_wake(&mut self) -> Option<u64> {
        let scan = || self.sms.iter().filter_map(Sm::next_wake).min();
        if self.step_mode == StepMode::Cycle {
            return scan();
        }
        let wake = self.act.wake_min(self.cycle);
        debug_assert_eq!(
            wake,
            scan(),
            "wake summary out of step at cycle {}",
            self.cycle
        );
        wake
    }

    /// Adds `n` cycles to `phase`'s bucket (profiling must be on).
    fn bump_phase(&mut self, phase: Phase, n: u64) {
        let p = self.profiler.as_mut().expect("profiling enabled");
        match phase {
            Phase::Issue => p.issue += n,
            Phase::L1 => p.l1 += n,
            Phase::L2 => p.l2 += n,
            Phase::Dram => p.dram += n,
            Phase::Smra => p.smra += n,
            Phase::Idle => p.idle += n,
        }
    }

    /// Installs a fault schedule. Like [`StepMode`], the plan is a
    /// runtime knob on the device — deliberately not part of
    /// [`GpuConfig`] — and events fire at exact device cycles, so a
    /// fixed plan replays bit-identically in either step mode. Events
    /// whose cycle has already passed fire on the next step.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] when the plan references SMs the
    /// device does not have, sets a zero MSHR capacity, or would at any
    /// point leave the device with no SM in service.
    pub fn install_fault_plan(&mut self, mut plan: FaultPlan) -> Result<(), SimError> {
        plan.validate(&self.cfg).map_err(SimError::InvalidConfig)?;
        self.fault_plan = Some(plan);
        self.act_dirty = true;
        Ok(())
    }

    /// The installed fault schedule, if any.
    pub fn fault_plan(&self) -> Option<&FaultPlan> {
        self.fault_plan.as_ref()
    }

    /// Whether SM `id` is in service.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn sm_in_service(&self, id: u32) -> bool {
        self.sm_enabled[id as usize]
    }

    /// Number of SMs currently in service.
    pub fn num_enabled_sms(&self) -> u32 {
        self.sm_enabled.iter().filter(|&&e| e).count() as u32
    }

    /// Indices of the SMs currently in service (the surviving set a
    /// degraded-mode controller must reallocate over).
    pub fn surviving_sms(&self) -> Vec<u32> {
        (0..self.sms.len() as u32)
            .filter(|&i| self.sm_enabled[i as usize])
            .collect()
    }

    /// Captures a structured snapshot of device state: per-SM ready and
    /// live warp counts, ownership and service bits, plus per-slice
    /// queue depths and MSHR occupancy.
    pub fn diagnostics(&self) -> DiagSnapshot {
        let mut snap = DiagSnapshot {
            cycle: self.cycle,
            sms: Vec::with_capacity(self.sms.len()),
            slices: Vec::new(),
        };
        for (i, sm) in self.sms.iter().enumerate() {
            snap.sms.push(SmDiag {
                id: sm.id,
                ready_warps: sm.ready_warps(),
                live_warps: sm.live_warps(),
                owner: sm.owner.map(|a| a.0),
                enabled: self.sm_enabled[i],
            });
        }
        self.memsys.slice_diags(&mut snap.slices);
        snap
    }

    /// A [`SimError::Timeout`] at the current cycle with a diagnostic
    /// snapshot attached.
    pub fn timeout_error(&self) -> SimError {
        SimError::Timeout {
            cycle: self.cycle,
            diag: self.diagnostics(),
        }
    }

    /// A [`SimError::Deadlock`] at the current cycle with a diagnostic
    /// snapshot attached.
    pub fn deadlock_error(&self) -> SimError {
        SimError::Deadlock {
            cycle: self.cycle,
            diag: self.diagnostics(),
        }
    }

    /// Registers an application. SMs must then be assigned via
    /// [`Gpu::partition_even`], [`Gpu::partition_counts`] or
    /// [`Gpu::assign_sms`].
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidKernel`] for malformed kernels and
    /// [`SimError::TooManyApps`] beyond [`MAX_APPS`] slots.
    pub fn launch(&mut self, kernel: KernelDesc) -> Result<AppId, SimError> {
        kernel.validate().map_err(SimError::InvalidKernel)?;
        check_pattern_limit(&kernel).map_err(SimError::InvalidKernel)?;
        if kernel.warps_per_block > self.cfg.max_warps_per_sm {
            return Err(SimError::InvalidKernel(format!(
                "kernel {} needs {} warps per block but SMs host at most {}",
                kernel.name, kernel.warps_per_block, self.cfg.max_warps_per_sm
            )));
        }
        if self.apps.len() >= MAX_APPS {
            return Err(SimError::TooManyApps);
        }
        let id = AppId(self.apps.len() as u16);
        self.apps.push(AppRuntime {
            kernel,
            next_block: 0,
            blocks_done: 0,
            started: false,
            finished: false,
            trace: AppTrace::Off,
        });
        self.act_dirty = true;
        Ok(id)
    }

    /// Launches a recorded (or hand-authored) [`KernelTrace`] as an
    /// application: the trace's reconstructed kernel goes through the
    /// normal launch validation, and its issue path replays the recorded
    /// address stream instead of generating addresses. Everything
    /// downstream — stats, partitioning, SMRA, profiling — sees an
    /// ordinary application.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidKernel`] when the trace fails
    /// [`KernelTrace::validate`] or its reconstructed kernel fails the
    /// launch checks, plus [`launch`](Gpu::launch)'s other errors.
    pub fn launch_traced(&mut self, trace: Arc<KernelTrace>) -> Result<AppId, SimError> {
        trace
            .validate()
            .map_err(|e| SimError::InvalidKernel(e.to_string()))?;
        let id = self.launch(trace.kernel_desc())?;
        self.apps[usize::from(id.0)].trace = AppTrace::Replay(trace);
        Ok(id)
    }

    /// Arms trace recording for `app`: from here on, every
    /// address-generation attempt of its issue path is captured.
    /// Harvest the result with [`Gpu::take_trace`] after the run.
    ///
    /// # Errors
    ///
    /// [`SimError::InvalidConfig`] if the app already started executing
    /// (the trace would be missing its prefix) or is itself a replay.
    pub fn enable_trace_recording(&mut self, app: AppId) -> Result<(), SimError> {
        let base = app_base(app);
        let a = &mut self.apps[usize::from(app.0)];
        if a.started {
            return Err(SimError::InvalidConfig(format!(
                "cannot start recording app {}: it already began executing",
                app.0
            )));
        }
        if matches!(a.trace, AppTrace::Replay(_)) {
            return Err(SimError::InvalidConfig(format!(
                "cannot record app {}: it is replaying a trace",
                app.0
            )));
        }
        a.trace = AppTrace::Record(TraceRecorder::new(&a.kernel, &self.cfg, base));
        Ok(())
    }

    /// Takes the recorded trace of `app`, if recording was enabled.
    /// Call after the run completes; a run cut short yields a trace
    /// that fails [`KernelTrace::validate`].
    pub fn take_trace(&mut self, app: AppId) -> Option<KernelTrace> {
        let a = &mut self.apps[usize::from(app.0)];
        match std::mem::replace(&mut a.trace, AppTrace::Off) {
            AppTrace::Record(rec) => Some(rec.finish()),
            other => {
                a.trace = other;
                None
            }
        }
    }

    /// Number of launched applications.
    pub fn num_apps(&self) -> usize {
        self.apps.len()
    }

    /// Whether `app` has retired all of its blocks.
    pub fn app_finished(&self, app: AppId) -> bool {
        self.apps[usize::from(app.0)].finished
    }

    /// All launched applications finished.
    pub fn all_done(&self) -> bool {
        !self.apps.is_empty() && self.apps.iter().all(|a| a.finished)
    }

    /// Current cycle.
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// Statistics so far.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// Assigns the given SMs to `app` (drain-based when occupied).
    ///
    /// # Panics
    ///
    /// Panics if an SM id is out of range or `app` was never launched.
    pub fn assign_sms(&mut self, app: AppId, sm_ids: &[u32]) {
        assert!(usize::from(app.0) < self.apps.len(), "unknown app");
        for &id in sm_ids {
            self.sms[id as usize].request_handoff(Some(app));
        }
        self.act_dirty = true;
    }

    /// Splits all SMs as evenly as possible across the launched apps, in
    /// launch order (the thesis' initial equal-share policy).
    pub fn partition_even(&mut self) {
        let n = self.apps.len().max(1);
        let enabled = self.num_enabled_sms() as usize;
        let per = enabled / n;
        let mut extra = enabled % n;
        let mut cursor = 0usize;
        for a in 0..n {
            let take = per + usize::from(extra > 0);
            extra = extra.saturating_sub(1);
            for _ in 0..take {
                while !self.sm_enabled[cursor] {
                    cursor += 1;
                }
                self.sms[cursor].request_handoff(Some(AppId(a as u16)));
                cursor += 1;
            }
        }
        self.act_dirty = true;
    }

    /// Partitions by explicit per-app SM counts (`counts[i]` SMs to app
    /// `i`, assigned low-to-high); remaining SMs become unowned.
    ///
    /// # Panics
    ///
    /// Panics if counts sum to more SMs than exist or `counts` is longer
    /// than the launched app list.
    pub fn partition_counts(&mut self, counts: &[u32]) {
        assert!(counts.len() <= self.apps.len(), "counts for unlaunched apps");
        let total: u32 = counts.iter().sum();
        let enabled = self.num_enabled_sms();
        assert!(
            total <= enabled,
            "partition wants {total} SMs but device has {enabled} in service"
        );
        let mut cursor = 0usize;
        for (a, &c) in counts.iter().enumerate() {
            for _ in 0..c {
                while !self.sm_enabled[cursor] {
                    cursor += 1;
                }
                self.sms[cursor].request_handoff(Some(AppId(a as u16)));
                cursor += 1;
            }
        }
        for i in cursor..self.sms.len() {
            if self.sm_enabled[i] {
                self.sms[i].request_handoff(None);
            }
        }
        self.act_dirty = true;
    }

    /// Effective SM count for `app`: in-service SMs it owns and is not
    /// losing, plus SMs draining toward it. Fault-disabled SMs are
    /// excluded — an SM draining out of service no longer counts toward
    /// anyone's share.
    pub fn sm_count(&self, app: AppId) -> u32 {
        sm_count_over(&self.sms, &self.sm_enabled, app)
    }

    /// Moves up to `n` SMs from `from` to `to` using drain-based
    /// handoffs; returns how many transfers were initiated.
    pub fn transfer_sms(&mut self, from: AppId, to: AppId, n: u32) -> u32 {
        let mut moved = 0;
        for (i, sm) in self.sms.iter_mut().enumerate() {
            if moved == n {
                break;
            }
            if !self.sm_enabled[i] {
                continue;
            }
            let effectively_from = match sm.pending_owner {
                Some(p) => p == from,
                None => sm.owner == Some(from),
            };
            if effectively_from {
                sm.request_handoff(Some(to));
                moved += 1;
            }
        }
        self.act_dirty = true;
        moved
    }

    /// Advances the device one cycle.
    pub fn step(&mut self) {
        let now = self.cycle;

        // 0. Apply fault events due this cycle (before issue, so a
        // disabled SM never dispatches at its outage cycle). Then bring
        // the activity summaries up to date if anything since the last
        // step — a fault, a mutating call — invalidated them.
        if self.fault_plan.is_some() {
            self.apply_due_faults(now);
        }
        if self.act_dirty {
            self.rebuild_activity(now);
        }

        // Block retirements are the only trigger for handoff completion
        // and app completion, so phases 4-5 run only when one happened.
        let mut any_retired = false;

        // 1. Deliver memory responses; they may retire warps and blocks,
        // and only ever flip ready bits (never sleepers).
        self.comp_buf.clear();
        self.memsys.drain_completions(now, &mut self.comp_buf);
        for i in 0..self.comp_buf.len() {
            let c = self.comp_buf[i];
            let sm = &mut self.sms[c.sm as usize];
            let retired = sm.on_mem_response(c.warp_slot);
            if retired > 0 {
                let owner = sm.owner.expect("retiring SM has an owner");
                self.apps[usize::from(owner.0)].blocks_done += retired;
                any_retired = true;
            }
            self.act.set_ready(c.sm as usize, sm.has_ready_work());
        }

        // 2. Memory system.
        self.memsys.tick(now, &mut self.stats);

        // 3. SM issue + block dispatch. The iteration order rotates each
        // cycle: with a fixed order, low-numbered SMs would enqueue
        // their memory requests first every cycle and systematically
        // win FIFO admission into the shared slices — an unfairness
        // artifact, not a modeled mechanism. Only the SMs that can act
        // are visited — ready, a dispatch candidate, or a sleeper due
        // now — in that same rotation order (`start..n`, then
        // `0..start`); any other SM's visit would be a no-op. The
        // reference `StepMode::Cycle` visits every SM.
        let n_sms = self.sms.len();
        let mut visit = std::mem::take(&mut self.visit_buf);
        self.act.take_visit(now, &mut visit);
        debug_assert!(
            self.visit_covers_acting(&visit, now),
            "an SM that can act at cycle {now} is missing from the visit set"
        );
        if self.step_mode == StepMode::Cycle {
            self.act.all(&mut visit);
        }
        let mut any_issued = false;
        let start = (now % n_sms as u64) as usize;
        for idx in Rotation::new(&visit, start) {
            let enabled = self.sm_enabled[idx];
            let sm = &mut self.sms[idx];
            sm.wake(now);
            if let Some(owner) = sm.owner {
                let app = &mut self.apps[usize::from(owner.0)];

                // A fault-disabled SM keeps issuing so its resident
                // blocks drain, but never accepts new work.
                if sm.has_ready_work() {
                    any_issued = true;
                    let mut hook = match &mut app.trace {
                        AppTrace::Off => TraceHook::None,
                        AppTrace::Record(rec) => TraceHook::Record(rec),
                        AppTrace::Replay(trace) => TraceHook::Replay(trace),
                    };
                    let retired = sm.issue(
                        now,
                        &app.kernel,
                        owner,
                        app_base(owner),
                        &self.cfg,
                        &mut self.memsys,
                        &mut self.stats,
                        &mut hook,
                    );
                    app.blocks_done += retired;
                    any_retired |= retired > 0;
                }

                // Dispatch at most one block per SM per cycle.
                if enabled
                    && app.next_block < app.kernel.grid_blocks
                    && sm.pending_owner.is_none()
                    && sm.can_take_block(&app.kernel, &self.cfg)
                {
                    sm.dispatch_block(&app.kernel, app.next_block);
                    app.next_block += 1;
                    if !app.started {
                        app.started = true;
                        self.stats.app_mut(owner).start_cycle = now;
                    }
                    // The app's last block: its SMs leave the dispatch
                    // set.
                    self.act_dirty |= app.next_block == app.kernel.grid_blocks;
                }
            }
            self.act.refresh(idx, sm, now + 1);
        }
        self.visit_buf = visit;

        // Phases 4-5 can only observe a change when a block retired this
        // cycle: handoffs complete on drain (emptiness changes only at a
        // retirement) and app completion tracks `blocks_done`.
        if any_retired {
            // 4. Complete drained handoffs; 5. detect app completion
            // (shared with the sharded step — see the slab free
            // functions below).
            complete_handoffs(&mut self.sms, &self.sm_enabled);
            finish_apps(
                &mut self.apps,
                &mut self.stats,
                now,
                self.cfg.reassign_on_finish,
                &mut self.sms,
                &self.sm_enabled,
                &mut self.reassign_buf,
            );
            self.act_dirty = true;
        }

        self.cycle = now + 1;
        self.stats.cycles = self.cycle;
        if self.act_dirty {
            self.rebuild_activity(self.cycle);
        }

        if self.profiler.is_some() {
            let phase = if any_issued {
                Phase::Issue
            } else {
                self.wait_phase()
            };
            self.bump_phase(phase, 1);
        }
    }

    /// Rebuilds the activity summaries from scratch; `base` is the next
    /// cycle to be stepped.
    fn rebuild_activity(&mut self, base: u64) {
        let (apps, enabled) = (&self.apps, &self.sm_enabled);
        self.act.rebuild(&self.sms, base, |i, sm| {
            enabled[i]
                && sm.owner.is_some_and(|o| {
                    let app = &apps[usize::from(o.0)];
                    app.next_block < app.kernel.grid_blocks
                })
        });
        self.act_dirty = false;
    }

    /// Whether SM `i` could take a block right now (out-of-service SMs
    /// never accept blocks).
    fn can_dispatch_to(&self, i: usize) -> bool {
        let sm = &self.sms[i];
        self.sm_enabled[i]
            && sm.owner.is_some_and(|o| {
                let app = &self.apps[usize::from(o.0)];
                app.next_block < app.kernel.grid_blocks
                    && sm.pending_owner.is_none()
                    && sm.can_take_block(&app.kernel, &self.cfg)
            })
    }

    /// The visit-set oracle: every SM that would act at `now` — ready
    /// work, a sleeper due, or a block it can take — is in `visit`.
    fn visit_covers_acting(&self, visit: &[u64], now: u64) -> bool {
        self.sms.iter().enumerate().all(|(i, sm)| {
            let acts = sm.has_ready_work()
                || sm.next_wake().is_some_and(|w| w <= now)
                || self.can_dispatch_to(i);
            !acts || has_bit(visit, i)
        })
    }

    /// Applies every fault event due at or before `now`, in schedule
    /// order.
    fn apply_due_faults(&mut self, now: u64) {
        {
            let Some(plan) = self.fault_plan.as_mut() else {
                return;
            };
            let due = plan.due(now);
            if due.is_empty() {
                return;
            }
            self.fault_buf.clear();
            self.fault_buf.extend_from_slice(due);
        }
        self.act_dirty = true;
        for i in 0..self.fault_buf.len() {
            let ev = self.fault_buf[i];
            if let Some(sm) =
                apply_fault_event(ev, &mut self.sms, &mut self.sm_enabled, &mut self.memsys)
            {
                hand_recovered_sm(&self.apps, &mut self.sms, &self.sm_enabled, sm);
            }
        }
    }

    /// Earliest cycle at which any component could next change state:
    /// the soonest SM wake-up, memory-system event, or scheduled fault.
    /// `None` means nothing will ever happen again (deadlock if work
    /// remains).
    fn next_horizon(&mut self) -> Option<u64> {
        let sm_wake = self.sm_wake();
        self.horizon_from(sm_wake)
    }

    /// True when the cycle just stepped left nothing issuable: no SM has
    /// a ready warp and no block can be dispatched. Every remaining
    /// state change is then bound to a future event, so the clock may
    /// jump to the horizon. Read from the activity summaries — the ready
    /// set is empty and no dispatch candidate can take a block — and
    /// `debug_assert!`ed against the scan over every SM it replaces,
    /// which the reference [`StepMode::Cycle`] still runs.
    fn quiescent_now(&self) -> bool {
        let scan = || {
            !self.sms.iter().any(Sm::has_ready_work)
                && !(0..self.sms.len()).any(|i| self.can_dispatch_to(i))
        };
        if self.step_mode == StepMode::Cycle {
            return scan();
        }
        let quiescent = !self.act.any_ready() && !self.dispatch_possible();
        debug_assert_eq!(
            quiescent,
            scan(),
            "quiescence summary out of step at cycle {}",
            self.cycle
        );
        quiescent
    }

    /// Runs until every launched application finishes.
    ///
    /// Under [`StepMode::EventHorizon`] (the default) the clock jumps
    /// over every dead stretch — including memory-bound phases where all
    /// warps wait on DRAM — directly to the next event.
    /// [`StepMode::Cycle`] steps one cycle at a time and fast-forwards
    /// only fully quiescent sleep phases; it exists as the reference
    /// behavior for the equivalence tests.
    ///
    /// # Errors
    ///
    /// [`SimError::Timeout`] past `max_cycles`; [`SimError::Deadlock`]
    /// when nothing can ever run again.
    pub fn run(&mut self, max_cycles: u64) -> Result<(), SimError> {
        if self.apps.is_empty() {
            return Ok(());
        }
        if self.use_sharded() {
            return match self.run_sharded(DriveMode::Run { max_cycles }) {
                DriveOutcome::Done | DriveOutcome::WindowEnd => Ok(()),
                DriveOutcome::Timeout => Err(self.timeout_error()),
                DriveOutcome::Deadlock => Err(self.deadlock_error()),
            };
        }
        while !self.all_done() {
            if self.cycle >= max_cycles {
                return Err(self.timeout_error());
            }
            self.step();
            if self.all_done() {
                break;
            }

            match self.step_mode {
                StepMode::Cycle => {
                    // Fast-forward pure sleep phases, never past a
                    // scheduled fault.
                    if self.memsys.is_idle() && self.quiescent_now() {
                        let wake = self.sm_wake();
                        let fault = self.fault_plan.as_ref().and_then(|p| p.next_cycle());
                        let target = match (wake, fault) {
                            (Some(a), Some(b)) => Some(a.min(b)),
                            (a, b) => a.or(b),
                        };
                        match target {
                            Some(to) if to > self.cycle => {
                                if self.profiler.is_some() {
                                    let phase = self.wait_phase();
                                    self.bump_phase(phase, to - self.cycle);
                                }
                                self.cycle = to;
                                self.stats.cycles = to;
                            }
                            Some(_) => {}
                            None => {
                                return Err(self.deadlock_error());
                            }
                        }
                    }
                }
                StepMode::EventHorizon => {
                    if self.quiescent_now() {
                        match self.next_horizon() {
                            Some(h) if h > self.cycle => {
                                // Clamp so a timeout is still reported at
                                // the budget boundary.
                                let to = h.min(max_cycles);
                                if self.profiler.is_some() {
                                    let phase = self.wait_phase();
                                    self.bump_phase(phase, to - self.cycle);
                                }
                                self.cycle = to;
                                self.stats.cycles = to;
                            }
                            Some(_) => {}
                            None => {
                                return Err(self.deadlock_error());
                            }
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Runs for exactly `cycles` more cycles (or until everything
    /// finishes, whichever comes first). Used by controllers that sample
    /// the device periodically (SMRA's `T_C` window).
    ///
    /// The window boundary is a hard barrier for event-horizon stepping:
    /// the clock never jumps past `end`, so controllers observe exactly
    /// the same sampling cycles in either [`StepMode`].
    pub fn run_for(&mut self, cycles: u64) {
        let end = self.cycle + cycles;
        if self.use_sharded() {
            let _ = self.run_sharded(DriveMode::RunFor { end });
            return;
        }
        while self.cycle < end && !self.all_done() {
            self.step();
            if self.step_mode != StepMode::EventHorizon
                || self.cycle >= end
                || self.all_done()
                || !self.quiescent_now()
            {
                continue;
            }
            match self.next_horizon() {
                Some(h) if h > self.cycle => {
                    let to = h.min(end);
                    if self.profiler.is_some() {
                        // A span truncated by the window barrier is the
                        // controller's overhead, not the device's wait.
                        let phase = if h > end { Phase::Smra } else { self.wait_phase() };
                        self.bump_phase(phase, to - self.cycle);
                    }
                    self.cycle = to;
                    self.stats.cycles = to;
                }
                Some(_) => {}
                None => {
                    // Nothing can ever happen again: burn the rest of
                    // the window, exactly as cycle stepping would.
                    if self.profiler.is_some() {
                        self.bump_phase(Phase::Smra, end - self.cycle);
                    }
                    self.cycle = end;
                    self.stats.cycles = end;
                }
            }
        }
    }

    /// True if some undispatched block could be placed this cycle:
    /// checks only the dispatch superset (empty once every grid is
    /// dispatched).
    fn dispatch_possible(&self) -> bool {
        Rotation::new(self.act.dispatch(), 0).any(|i| self.can_dispatch_to(i))
    }

    /// Diagnostic: aggregate L2 hit rate — requests consumed as hits
    /// over all requests consumed, the same on every lane and step
    /// mode.
    pub fn l2_hit_rate(&self) -> f64 {
        self.memsys.l2_hit_rate()
    }

    // ------------------------------------------------------------------
    // Sharded stepping (DESIGN.md §12). The SMs are drained into
    // per-shard cells for the duration of one `run`/`run_for` call;
    // each cycle splits into a parallel SM-local phase and a serial
    // merge phase that replays the reference rotation order, so the
    // result is bit-identical to the unsharded step.
    // ------------------------------------------------------------------

    /// Snapshots the per-app launch state the parallel phase needs.
    fn shard_snapshot(&self) -> RunSnapshot {
        RunSnapshot {
            apps: self
                .apps
                .iter()
                .enumerate()
                .map(|(i, a)| SnapApp {
                    kernel: a.kernel.clone(),
                    base: app_base(AppId(i as u16)),
                    replay: match &a.trace {
                        AppTrace::Replay(t) => Some(Arc::clone(t)),
                        _ => None,
                    },
                })
                .collect(),
            cfg: self.cfg.clone(),
        }
    }

    /// Drains `self.sms` into per-shard cells (restored by
    /// [`Gpu::restore_cells`] at every exit, including errors).
    fn take_cells(&mut self) -> Vec<ShardCell> {
        let plan = self.shard_plan();
        let mut rest = std::mem::take(&mut self.sms);
        let mut cells = Vec::with_capacity(plan.shards as usize);
        for (base, len) in plan.ranges() {
            let tail = rest.split_off(len as usize);
            cells.push(ShardCell::new(base, rest, self.cycle));
            rest = tail;
        }
        debug_assert!(rest.is_empty());
        cells
    }

    /// Reassembles `self.sms` from the cells and folds the deferred
    /// per-app issue statistics into [`SimStats`].
    fn restore_cells(&mut self, cells: Vec<ShardCell>) {
        debug_assert!(self.sms.is_empty());
        self.sms.reserve(self.cfg.num_sms as usize);
        for cell in cells {
            debug_assert!(cell.pending.is_empty());
            debug_assert!(cell.retired.iter().all(|&r| r == 0));
            self.sms.extend(cell.sms);
            for (a, d) in cell.deltas.iter().enumerate() {
                if !d.is_zero() {
                    self.stats.app_mut(AppId(a as u16)).apply_issue_delta(d);
                }
            }
        }
    }

    /// Runs the sharded drive loop to its outcome. Error values are
    /// materialized by the caller *after* this returns, so diagnostics
    /// see the restored device.
    fn run_sharded(&mut self, mode: DriveMode) -> DriveOutcome {
        let snap = self.shard_snapshot();
        let cells = self.take_cells();
        let workers = (self.shard_workers.max(1) as usize).min(cells.len());
        let (cells, out) = if workers > 1 {
            let mcells: Vec<Mutex<ShardCell>> = cells.into_iter().map(Mutex::new).collect();
            // Phase-M slots: the coordinator parks the memory shards
            // here each epoch so the same workers can tick them.
            let mslots: Vec<Mutex<Option<MemShard>>> = (0..self.memsys.num_shards())
                .filter(|_| self.memsys.num_shards() > 1)
                .map(|_| Mutex::new(None))
                .collect();
            let ctl = ShardCtl::default();
            let out = std::thread::scope(|scope| {
                let guard = ShutdownGuard(&ctl);
                for j in 1..workers {
                    let (mc, ms, ct, sn) = (&mcells, &mslots, &ctl, &snap);
                    scope.spawn(move || worker_loop(j, workers, mc, ms, ct, sn));
                }
                let mut exec = ThreadedExec {
                    cells: &mcells,
                    mem: &mslots,
                    ctl: &ctl,
                    threads: workers,
                };
                let out = self.drive(&mut exec, &snap, mode);
                drop(guard);
                out
            });
            let cells = mcells
                .into_iter()
                .map(|m| m.into_inner().unwrap())
                .collect::<Vec<_>>();
            (cells, out)
        } else {
            let mut cells = cells;
            let mut exec = SeqExec { cells: &mut cells };
            let out = self.drive(&mut exec, &snap, mode);
            (cells, out)
        };
        self.restore_cells(cells);
        // The device summaries know nothing of what the cells did.
        self.act_dirty = true;
        out
    }

    /// The sharded mirror of the `run`/`run_for` loops: step, then
    /// apply the same clock-jump rules, with quiescence and horizons
    /// read from the cells' activity summaries.
    fn drive(
        &mut self,
        exec: &mut impl ShardExec,
        snap: &RunSnapshot,
        mode: DriveMode,
    ) -> DriveOutcome {
        loop {
            match mode {
                DriveMode::Run { max_cycles } => {
                    if self.all_done() {
                        return DriveOutcome::Done;
                    }
                    if self.cycle >= max_cycles {
                        return DriveOutcome::Timeout;
                    }
                }
                DriveMode::RunFor { end } => {
                    if self.cycle >= end || self.all_done() {
                        return DriveOutcome::WindowEnd;
                    }
                }
            }
            let info = self.step_sharded(exec, snap);
            match mode {
                DriveMode::Run { max_cycles } => {
                    if self.all_done() {
                        return DriveOutcome::Done;
                    }
                    match self.step_mode {
                        StepMode::Cycle => {
                            if self.memsys.is_idle() && info.quiescent {
                                let fault = self.fault_plan.as_ref().and_then(|p| p.next_cycle());
                                let target = match (info.min_wake, fault) {
                                    (Some(a), Some(b)) => Some(a.min(b)),
                                    (a, b) => a.or(b),
                                };
                                match target {
                                    Some(to) if to > self.cycle => {
                                        if self.profiler.is_some() {
                                            let phase = self.wait_phase_from(info.min_wake);
                                            self.bump_phase(phase, to - self.cycle);
                                        }
                                        self.cycle = to;
                                        self.stats.cycles = to;
                                    }
                                    Some(_) => {}
                                    None => return DriveOutcome::Deadlock,
                                }
                            }
                        }
                        StepMode::EventHorizon => {
                            if info.quiescent {
                                match self.horizon_from(info.min_wake) {
                                    Some(h) if h > self.cycle => {
                                        let to = h.min(max_cycles);
                                        if self.profiler.is_some() {
                                            let phase = self.wait_phase_from(info.min_wake);
                                            self.bump_phase(phase, to - self.cycle);
                                        }
                                        self.cycle = to;
                                        self.stats.cycles = to;
                                    }
                                    Some(_) => {}
                                    None => return DriveOutcome::Deadlock,
                                }
                            }
                        }
                    }
                }
                DriveMode::RunFor { end } => {
                    if self.step_mode != StepMode::EventHorizon
                        || self.cycle >= end
                        || self.all_done()
                        || !info.quiescent
                    {
                        continue;
                    }
                    match self.horizon_from(info.min_wake) {
                        Some(h) if h > self.cycle => {
                            let to = h.min(end);
                            if self.profiler.is_some() {
                                let phase = if h > end {
                                    Phase::Smra
                                } else {
                                    self.wait_phase_from(info.min_wake)
                                };
                                self.bump_phase(phase, to - self.cycle);
                            }
                            self.cycle = to;
                            self.stats.cycles = to;
                        }
                        Some(_) => {}
                        None => {
                            if self.profiler.is_some() {
                                self.bump_phase(Phase::Smra, end - self.cycle);
                            }
                            self.cycle = end;
                            self.stats.cycles = end;
                        }
                    }
                }
            }
        }
    }

    /// [`Gpu::wait_phase`] with the SM-side scan replaced by the cells'
    /// wake summary (`min_wake` is exact by the flag invariants).
    fn wait_phase_from(&self, min_wake: Option<u64>) -> Phase {
        if !self.memsys.is_idle() {
            if self.memsys.any_dram_queued() {
                Phase::Dram
            } else {
                Phase::L2
            }
        } else if min_wake.is_some() {
            Phase::L1
        } else {
            Phase::Idle
        }
    }

    /// [`Gpu::next_horizon`] with the SM-side scan replaced by the
    /// cells' wake summary.
    fn horizon_from(&self, min_wake: Option<u64>) -> Option<u64> {
        let mem_ev = self.memsys.next_event(self.cycle);
        let fault_ev = self.fault_plan.as_ref().and_then(|p| p.next_cycle());
        [min_wake, mem_ev, fault_ev].into_iter().flatten().min()
    }

    /// One sharded device cycle; mirrors [`Gpu::step`] phase for phase.
    fn step_sharded(&mut self, exec: &mut impl ShardExec, snap: &RunSnapshot) -> StepInfo {
        let now = self.cycle;

        // 0. Faults (serial; rare, so the cell round-trip is off the
        // common path).
        if self.fault_plan.is_some() {
            self.fault_buf.clear();
            if let Some(plan) = self.fault_plan.as_mut() {
                let due = plan.due(now);
                self.fault_buf.extend_from_slice(due);
            }
            if !self.fault_buf.is_empty() {
                let events = std::mem::take(&mut self.fault_buf);
                exec.with_cells(|cells| {
                    let mut view = CellsView::new(cells);
                    for &ev in &events {
                        if let Some(sm) = apply_fault_event(
                            ev,
                            &mut view,
                            &mut self.sm_enabled,
                            &mut self.memsys,
                        ) {
                            hand_recovered_sm(&self.apps, &mut view, &self.sm_enabled, sm);
                        }
                    }
                });
                self.fault_buf = events;
            }
        }

        // 1 + issue-A + 2. Deliver completions, then run the parallel
        // half of the cycle: the SM-local issue path (phase A) and the
        // memory-system tick (phase M), possibly overlapped on workers.
        // Ordering note: the two phases commute — the tick never
        // touches SM state and phase A never touches the memory system
        // (its coupled accesses suspend before the admission check),
        // and completions were drained before either starts.
        self.comp_buf.clear();
        self.memsys.drain_completions(now, &mut self.comp_buf);
        exec.phase_am(now, &self.comp_buf, snap, &mut self.memsys, &mut self.stats);

        // 3-5. Serial merge: resolve suspended accesses and dispatch in
        // canonical rotation order against the live memory system, then
        // fold retirements and run handoff/finish detection.
        let mut any_issued = false;
        let mut info = StepInfo {
            quiescent: false,
            min_wake: None,
        };
        exec.with_cells(|cells| {
            let mut any_retired = self.sharded_phase_b(now, cells, snap);
            for cell in cells.iter_mut() {
                any_issued |= cell.any_issued;
                for a in 0..self.apps.len() {
                    let r = cell.retired[a];
                    if r > 0 {
                        cell.retired[a] = 0;
                        self.apps[a].blocks_done += r;
                        any_retired = true;
                    }
                }
            }
            if any_retired {
                let mut view = CellsView::new(cells);
                complete_handoffs(&mut view, &self.sm_enabled);
                finish_apps(
                    &mut self.apps,
                    &mut self.stats,
                    now,
                    self.cfg.reassign_on_finish,
                    &mut view,
                    &self.sm_enabled,
                    &mut self.reassign_buf,
                );
            }
            info = self.sharded_quiescence(cells);
        });

        if self.profiler.is_some() {
            let phase = if any_issued {
                Phase::Issue
            } else {
                self.wait_phase_from(info.min_wake)
            };
            self.bump_phase(phase, 1);
        }

        self.cycle = now + 1;
        self.stats.cycles = self.cycle;
        info
    }

    /// The serial merge phase: replays the reference step's rotation
    /// (SM `(k + now) mod n` at turn `k`) over exactly the SMs that still
    /// need the shared state this cycle — every SM while blocks remain to
    /// dispatch, only the suspended-access SMs afterwards. Returns
    /// whether any block retired here.
    fn sharded_phase_b(
        &mut self,
        now: u64,
        cells: &mut [&mut ShardCell],
        snap: &RunSnapshot,
    ) -> bool {
        let n: usize = cells.iter().map(|c| c.sms.len()).sum();
        let chunk = cells.first().map_or(1, |c| c.sms.len().max(1));
        let mut any_retired = false;

        let dispatch_era = self
            .apps
            .iter()
            .any(|a| a.next_block < a.kernel.grid_blocks);
        if dispatch_era {
            // Blocks remain: full rotation, exactly the reference loop
            // with the SM-local issue half already done in phase A.
            // The start position costs the cycle's only divisions;
            // from there the cell and in-cell index wrap by compare.
            let start = (now % n as u64) as usize;
            let (mut ci, mut local) = (start / chunk, start % chunk);
            for k in 0..n {
                let cell = &mut *cells[ci];
                let idx = cell.base as usize + local;
                debug_assert_eq!(idx, (k + now as usize) % n, "rotation out of step");
                let mut touched = false;
                if cell.sms[local].has_pending() {
                    any_retired |= self.resolve_sm(now, cell, local, snap);
                    touched = true;
                }
                let enabled = self.sm_enabled[idx];
                let sm = &mut cell.sms[local];
                if let Some(owner) = sm.owner {
                    let app = &mut self.apps[usize::from(owner.0)];
                    if enabled
                        && app.next_block < app.kernel.grid_blocks
                        && sm.pending_owner.is_none()
                        && sm.can_take_block(&app.kernel, &self.cfg)
                    {
                        sm.dispatch_block(&app.kernel, app.next_block);
                        app.next_block += 1;
                        if !app.started {
                            app.started = true;
                            self.stats.app_mut(owner).start_cycle = now;
                        }
                        touched = true;
                    }
                }
                if touched {
                    cell.refresh(local, now);
                }
                local += 1;
                if local == cell.sms.len() {
                    local = 0;
                    ci = if ci + 1 == cells.len() { 0 } else { ci + 1 };
                }
            }
        } else {
            // Post-dispatch: only suspended accesses touch shared
            // state. Cell pending lists are ascending and cells are in
            // id order, so their concatenation is globally ascending;
            // rotate it to start at `now % n`.
            let mut pend = std::mem::take(&mut self.pend_buf);
            pend.clear();
            for cell in cells.iter() {
                pend.extend_from_slice(&cell.pending);
            }
            if !pend.is_empty() {
                let r = (now % n as u64) as u32;
                let split = pend.partition_point(|&id| id < r);
                // Ids ascend within each half of the rotated walk, so
                // the owning cell is found by stepping forward.
                let mut ci = 0;
                for i in (split..pend.len()).chain(0..split) {
                    if i == 0 {
                        ci = 0; // wrapped to the lowest id
                    }
                    let idx = pend[i] as usize;
                    while idx >= cells[ci].base as usize + cells[ci].sms.len() {
                        ci += 1;
                    }
                    debug_assert_eq!(ci, idx / chunk);
                    let cell = &mut *cells[ci];
                    let local = idx - cell.base as usize;
                    any_retired |= self.resolve_sm(now, cell, local, snap);
                }
            }
            self.pend_buf = pend;
        }
        for cell in cells.iter_mut() {
            cell.pending.clear();
        }
        any_retired
    }

    /// Finishes one SM's suspended access at its rotation turn:
    /// admission check, allocation, request pushes, and the remainder
    /// of its issue budget — reference semantics against the live
    /// memory system.
    fn resolve_sm(
        &mut self,
        now: u64,
        cell: &mut ShardCell,
        local: usize,
        snap: &RunSnapshot,
    ) -> bool {
        let sm = &mut cell.sms[local];
        let owner = sm.owner.expect("suspended SM has an owner");
        let sa = &snap.apps[usize::from(owner.0)];
        let (retired, budget) = sm.resolve_pending(
            now,
            &sa.kernel,
            owner,
            &snap.cfg,
            &mut self.memsys,
            &mut self.stats,
        );
        let mut total = retired;
        if budget > 0 {
            let mut hook = match &sa.replay {
                Some(t) => TraceHook::Replay(t),
                None => TraceHook::None,
            };
            total += sm.issue_more(
                budget,
                now,
                &sa.kernel,
                owner,
                sa.base,
                &snap.cfg,
                &mut self.memsys,
                &mut self.stats,
                &mut hook,
            );
        }
        if total > 0 {
            self.apps[usize::from(owner.0)].blocks_done += total;
        }
        cell.refresh(local, now);
        total > 0
    }

    /// End-of-step quiescence/horizon summary over the cells' activity
    /// summaries — bit-equal to [`Gpu::quiescent_now`] plus the SM-wake
    /// scan, at a fraction of the cost. Called before the clock moves,
    /// so the next cycle to step is `self.cycle + 1`.
    fn sharded_quiescence(&self, cells: &mut [&mut ShardCell]) -> StepInfo {
        let any_ready = cells.iter().any(|c| c.act.any_ready());
        if any_ready && self.profiler.is_none() {
            // Not quiescent; the wake summary would go unread.
            return StepInfo {
                quiescent: false,
                min_wake: None,
            };
        }
        let base = self.cycle + 1;
        let min_wake = cells.iter_mut().filter_map(|c| c.act.wake_min(base)).min();
        debug_assert!(
            any_ready
                || min_wake
                    == cells
                        .iter()
                        .flat_map(|c| c.sms.iter().filter_map(Sm::next_wake))
                        .min(),
            "cell wake summaries out of step at cycle {}",
            self.cycle
        );
        let quiescent = !any_ready && !self.sharded_dispatch_possible(cells);
        StepInfo {
            quiescent,
            min_wake,
        }
    }

    /// [`Gpu::dispatch_possible`] over the cells, with the post-
    /// dispatch early-out: once every app has dispatched its whole
    /// grid, the reference scan is false by construction.
    fn sharded_dispatch_possible(&self, cells: &[&mut ShardCell]) -> bool {
        if !self
            .apps
            .iter()
            .any(|a| a.next_block < a.kernel.grid_blocks)
        {
            return false;
        }
        for cell in cells {
            for (i, sm) in cell.sms.iter().enumerate() {
                let gi = cell.base as usize + i;
                if self.sm_enabled[gi]
                    && sm.owner.is_some_and(|o| {
                        let app = &self.apps[usize::from(o.0)];
                        app.next_block < app.kernel.grid_blocks
                            && sm.pending_owner.is_none()
                            && sm.can_take_block(&app.kernel, &self.cfg)
                    })
                {
                    return true;
                }
            }
        }
        false
    }
}

/// How a sharded drive loop advances the clock (mirrors the two public
/// entry points).
#[derive(Debug, Clone, Copy)]
enum DriveMode {
    /// [`Gpu::run`]: to completion, with a cycle budget.
    Run {
        /// The budget.
        max_cycles: u64,
    },
    /// [`Gpu::run_for`]: to a window barrier.
    RunFor {
        /// Absolute end cycle of the window.
        end: u64,
    },
}

/// Why a sharded drive loop stopped. Errors carry no payload here —
/// the caller materializes [`SimError`] values after the SMs are
/// restored, so diagnostics see the whole device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DriveOutcome {
    Done,
    Timeout,
    Deadlock,
    WindowEnd,
}

/// Post-step summary handed from the serial phase to the drive loop.
#[derive(Debug, Clone, Copy)]
struct StepInfo {
    /// [`Gpu::quiescent_now`] equivalent.
    quiescent: bool,
    /// Earliest SM sleeper wake-up (exact when read; `None` when the
    /// step was not quiescent and profiling is off — then unused).
    min_wake: Option<u64>,
}

/// Phase 4 of the step, shared by both layouts: complete drained
/// handoffs; release drained out-of-service SMs (their owner loses
/// them the moment the last resident block retires).
fn complete_handoffs(sms: &mut impl SmSlab, enabled: &[bool]) {
    for (i, &en) in enabled.iter().enumerate().take(sms.len()) {
        let sm = sms.get_mut(i);
        if en {
            sm.try_complete_handoff();
        } else if sm.owner.is_some() && sm.is_empty() {
            sm.request_handoff(None);
        }
    }
}

/// Phase 5 of the step, shared by both layouts: detect app completion
/// and (optionally) hand a finished app's SMs to the running apps.
fn finish_apps(
    apps: &mut [AppRuntime],
    stats: &mut SimStats,
    now: u64,
    reassign_on_finish: bool,
    sms: &mut impl SmSlab,
    enabled: &[bool],
    reassign_buf: &mut Vec<(AppId, u32)>,
) {
    for a in 0..apps.len() {
        {
            let app = &apps[a];
            if app.finished || !app.started || app.blocks_done != app.kernel.grid_blocks {
                continue;
            }
        }
        apps[a].finished = true;
        let id = AppId(a as u16);
        stats.app_mut(id).finish_cycle = now;
        stats.app_mut(id).blocks_done = apps[a].blocks_done;
        if reassign_on_finish {
            reassign_sms_of(apps, sms, enabled, reassign_buf, id);
        }
    }
}

/// Hands the SMs of a finished app to the running apps, balancing
/// toward the app with the fewest effective SMs.
fn reassign_sms_of(
    apps: &[AppRuntime],
    sms: &mut impl SmSlab,
    enabled: &[bool],
    buf: &mut Vec<(AppId, u32)>,
    finished: AppId,
) {
    buf.clear();
    for (i, app) in apps.iter().enumerate() {
        if !app.finished {
            buf.push((AppId(i as u16), 0));
        }
    }
    if buf.is_empty() {
        return;
    }
    // Effective SM counts of the running apps, in one pass over the
    // SMs (an SM counts toward its pending owner while draining;
    // out-of-service SMs count toward no one).
    for (i, &en) in enabled.iter().enumerate().take(sms.len()) {
        if !en {
            continue;
        }
        let sm = sms.get(i);
        let effective = sm.pending_owner.or(sm.owner);
        if let Some(owner) = effective {
            if let Some(entry) = buf.iter_mut().find(|(a, _)| *a == owner) {
                entry.1 += 1;
            }
        }
    }
    for (i, &en) in enabled.iter().enumerate().take(sms.len()) {
        if !en {
            continue;
        }
        let sm = sms.get_mut(i);
        let effectively_finished = match sm.pending_owner {
            Some(p) => p == finished,
            None => sm.owner == Some(finished),
        };
        if effectively_finished {
            let (target, cnt) = buf
                .iter_mut()
                .min_by_key(|(_, c)| *c)
                .expect("running is non-empty");
            sm.request_handoff(Some(*target));
            *cnt += 1;
        }
    }
}

/// Hands a re-enabled SM to the running application with the fewest
/// effective SMs (deterministic tie-break: lowest app id). Shared by
/// both layouts.
fn hand_recovered_sm(apps: &[AppRuntime], sms: &mut impl SmSlab, enabled: &[bool], sm: u32) {
    let mut best: Option<(u32, AppId)> = None;
    for (i, app) in apps.iter().enumerate() {
        if app.finished {
            continue;
        }
        let id = AppId(i as u16);
        let cnt = sm_count_over(sms, enabled, id);
        let better = match best {
            None => true,
            Some((c, _)) => cnt < c,
        };
        if better {
            best = Some((cnt, id));
        }
    }
    if let Some((_, id)) = best {
        sms.get_mut(sm as usize).request_handoff(Some(id));
    }
}

/// Effective SM count for `app` over any SM layout (see
/// [`Gpu::sm_count`]).
fn sm_count_over(sms: &impl SmSlab, enabled: &[bool], app: AppId) -> u32 {
    let mut count = 0;
    for (i, &en) in enabled.iter().enumerate().take(sms.len()) {
        if !en {
            continue;
        }
        let sm = sms.get(i);
        let owned = match sm.pending_owner {
            Some(p) => p == app,
            None => sm.owner == Some(app),
        };
        if owned {
            count += 1;
        }
    }
    count
}

/// Base address for an app's address space (prevents cross-app cache
/// aliasing).
fn app_base(app: AppId) -> u64 {
    (u64::from(app.0) + 1) << 44
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::{AccessPattern, Op, PatternId};

    fn alu_kernel(name: &str, blocks: u32) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            grid_blocks: blocks,
            warps_per_block: 2,
            iters_per_warp: 20,
            body: vec![Op::Alu { latency: 4 }],
            patterns: vec![],
            active_lanes: 32,
        }
    }

    fn mem_kernel(name: &str, blocks: u32, ws: u64) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            grid_blocks: blocks,
            warps_per_block: 2,
            iters_per_warp: 20,
            body: vec![Op::Load(PatternId(0)), Op::Alu { latency: 4 }],
            patterns: vec![AccessPattern::streaming(ws)],
            active_lanes: 32,
        }
    }

    #[test]
    fn single_app_runs_to_completion() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let app = gpu.launch(alu_kernel("a", 16)).unwrap();
        gpu.partition_even();
        gpu.run(1_000_000).unwrap();
        let s = gpu.stats().app(app);
        assert!(s.finished());
        assert_eq!(
            s.thread_insts,
            16 * 2 * 20 * 32,
            "every thread instruction accounted"
        );
        assert!(s.runtime_cycles() > 0);
    }

    #[test]
    fn two_apps_share_the_device() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(mem_kernel("a", 8, 1 << 22)).unwrap();
        let b = gpu.launch(alu_kernel("b", 8)).unwrap();
        gpu.partition_even();
        assert_eq!(gpu.sm_count(a), 4);
        assert_eq!(gpu.sm_count(b), 4);
        gpu.run(2_000_000).unwrap();
        assert!(gpu.stats().app(a).finished());
        assert!(gpu.stats().app(b).finished());
    }

    #[test]
    fn phase_profile_sums_to_cycles_and_leaves_stats_identical() {
        let run = |profile: bool| {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            gpu.set_profiling(profile);
            gpu.launch(mem_kernel("a", 8, 1 << 22)).unwrap();
            gpu.launch(alu_kernel("b", 8)).unwrap();
            gpu.partition_even();
            gpu.run(2_000_000).unwrap();
            (gpu.stats().clone(), gpu.cycle(), gpu.phase_cycles())
        };
        let (s_off, c_off, p_off) = run(false);
        let (s_on, c_on, p_on) = run(true);
        assert_eq!(p_off, None, "profiling is off by default");
        let p = p_on.expect("profiling was requested");
        assert_eq!(p.total(), c_on, "every cycle lands in exactly one bucket");
        assert!(p.issue > 0, "the run issued instructions");
        assert_eq!((s_off, c_off), (s_on, c_on), "profiling never perturbs results");
    }

    #[test]
    fn phase_profile_accounts_windowed_runs() {
        // run_for's window barrier must keep the invariant too (clamped
        // horizons land in the smra bucket).
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.set_profiling(true);
        gpu.launch(mem_kernel("a", 8, 1 << 22)).unwrap();
        gpu.partition_even();
        while !gpu.all_done() && gpu.cycle() < 2_000_000 {
            gpu.run_for(500);
        }
        assert!(gpu.all_done());
        let p = gpu.phase_cycles().unwrap();
        assert_eq!(p.total(), gpu.cycle());
    }

    #[test]
    fn timeout_reported() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.launch(mem_kernel("a", 64, 1 << 22)).unwrap();
        gpu.partition_even();
        assert!(matches!(gpu.run(10), Err(SimError::Timeout { .. })));
    }

    #[test]
    fn deadlock_detected_without_sms() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.launch(alu_kernel("a", 4)).unwrap();
        // No partition: no SM ever owns the app.
        assert!(matches!(
            gpu.run(1_000_000),
            Err(SimError::Deadlock { .. })
        ));
    }

    #[test]
    fn oversized_block_rejected() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let k = KernelDesc {
            warps_per_block: 1000,
            ..alu_kernel("big", 1)
        };
        assert!(matches!(gpu.launch(k), Err(SimError::InvalidKernel(_))));
    }

    #[test]
    fn transfer_sms_drains() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(mem_kernel("a", 32, 1 << 22)).unwrap();
        let b = gpu.launch(mem_kernel("b", 32, 1 << 22)).unwrap();
        gpu.partition_even();
        gpu.run_for(200);
        let moved = gpu.transfer_sms(a, b, 2);
        assert_eq!(moved, 2);
        assert_eq!(gpu.sm_count(a), 2);
        assert_eq!(gpu.sm_count(b), 6);
        gpu.run(4_000_000).unwrap();
        assert!(gpu.all_done());
    }

    #[test]
    fn more_sms_means_faster_for_parallel_app() {
        let run_with = |sms: u32| {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            let app = gpu.launch(alu_kernel("a", 64)).unwrap();
            let ids: Vec<u32> = (0..sms).collect();
            gpu.assign_sms(app, &ids);
            gpu.run(10_000_000).unwrap();
            gpu.stats().app(app).runtime_cycles()
        };
        let slow = run_with(1);
        let fast = run_with(8);
        assert!(
            fast * 3 < slow,
            "8 SMs should be much faster: {fast} vs {slow}"
        );
    }

    #[test]
    fn finished_apps_donate_sms() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(alu_kernel("short", 4)).unwrap();
        let b = gpu.launch(mem_kernel("long", 64, 1 << 22)).unwrap();
        gpu.partition_even();
        gpu.run(10_000_000).unwrap();
        assert!(gpu.app_finished(a) && gpu.app_finished(b));
        // After `a` finished its SMs must flow to `b`.
        assert_eq!(gpu.sm_count(b), 8);
    }

    #[test]
    fn three_way_even_partition() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(alu_kernel("a", 4)).unwrap();
        let b = gpu.launch(alu_kernel("b", 4)).unwrap();
        let c = gpu.launch(alu_kernel("c", 4)).unwrap();
        gpu.partition_even();
        // 8 SMs across 3 apps: 3/3/2 with the remainder to the earliest.
        assert_eq!(gpu.sm_count(a), 3);
        assert_eq!(gpu.sm_count(b), 3);
        assert_eq!(gpu.sm_count(c), 2);
        gpu.run(10_000_000).unwrap();
        assert!(gpu.all_done());
    }

    #[test]
    fn partition_counts_leaves_rest_unowned() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(alu_kernel("a", 2)).unwrap();
        gpu.partition_counts(&[3]);
        assert_eq!(gpu.sm_count(a), 3);
        gpu.run(10_000_000).unwrap();
        assert!(gpu.app_finished(a));
    }

    #[test]
    fn device_throughput_accumulates_across_apps() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(alu_kernel("a", 8)).unwrap();
        let b = gpu.launch(alu_kernel("b", 8)).unwrap();
        gpu.partition_even();
        gpu.run(10_000_000).unwrap();
        let total = gpu.stats().app(a).thread_insts + gpu.stats().app(b).thread_insts;
        let thr = gpu.stats().device_throughput();
        assert!((thr - total as f64 / gpu.cycle() as f64).abs() < 1e-9);
    }

    #[test]
    fn run_for_stops_at_budget() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let k = KernelDesc {
            iters_per_warp: 100_000,
            ..alu_kernel("a", 64)
        };
        let app = gpu.launch(k).unwrap();
        gpu.partition_even();
        gpu.run_for(500);
        assert_eq!(gpu.cycle(), 500);
        assert!(!gpu.app_finished(app));
    }

    #[test]
    fn launch_limit() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        for i in 0..MAX_APPS {
            gpu.launch(alu_kernel(&format!("k{i}"), 1)).unwrap();
        }
        assert_eq!(
            gpu.launch(alu_kernel("extra", 1)).unwrap_err(),
            SimError::TooManyApps
        );
    }

    #[test]
    fn error_display() {
        let err = SimError::Timeout {
            cycle: 5,
            diag: Default::default(),
        };
        assert!(err.to_string().contains('5'));
    }

    #[test]
    fn sm_disable_drains_and_survivors_shrink() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(mem_kernel("a", 32, 1 << 22)).unwrap();
        gpu.partition_even();
        gpu.install_fault_plan(FaultPlan::new().disable_sm(100, 3))
            .unwrap();
        gpu.run_for(150);
        // The outage cycle has fired: SM 3 is out of the surviving set
        // and no longer counts toward the app's share.
        assert!(!gpu.sm_in_service(3));
        assert_eq!(gpu.num_enabled_sms(), 7);
        assert_eq!(gpu.sm_count(a), 7);
        assert_eq!(gpu.surviving_sms(), [0, 1, 2, 4, 5, 6, 7]);
        gpu.run(20_000_000).unwrap();
        assert!(gpu.all_done());
        // Drained out of service: released, still disabled.
        assert!(gpu.sms[3].owner.is_none());
    }

    #[test]
    fn sm_reenable_hands_sm_to_neediest_app() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(mem_kernel("a", 64, 1 << 22)).unwrap();
        let b = gpu.launch(mem_kernel("b", 64, 1 << 22)).unwrap();
        gpu.partition_even();
        gpu.install_fault_plan(FaultPlan::new().disable_sm(50, 0).enable_sm(5_000, 0))
            .unwrap();
        gpu.run_for(5_001);
        assert!(gpu.sm_in_service(0));
        // SM 0 came back to app `a` (3 SMs vs b's 4 after the outage).
        assert_eq!(gpu.sm_count(a) + gpu.sm_count(b), 8);
        gpu.run(40_000_000).unwrap();
        assert!(gpu.all_done());
    }

    #[test]
    fn fault_replay_is_bit_identical_across_step_modes() {
        let run_with = |mode: StepMode| {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            gpu.set_step_mode(mode);
            gpu.launch(mem_kernel("a", 24, 1 << 22)).unwrap();
            gpu.launch(alu_kernel("b", 24)).unwrap();
            gpu.partition_even();
            let plan = FaultPlan::new()
                .disable_sm(400, 1)
                .enable_sm(3_000, 1)
                .mem_latency_window(800, 2_000, 30, 90)
                .mshr_window(1_000, 2_500, 4);
            gpu.install_fault_plan(plan).unwrap();
            gpu.run(40_000_000).unwrap();
            (gpu.cycle(), gpu.stats().clone())
        };
        let (c1, s1) = run_with(StepMode::Cycle);
        let (c2, s2) = run_with(StepMode::EventHorizon);
        assert_eq!(c1, c2, "final cycles diverge across step modes");
        assert_eq!(s1, s2, "stats diverge across step modes");
    }

    #[test]
    fn all_sm_outage_rejected_at_install() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let mut plan = FaultPlan::new();
        for sm in 0..8 {
            plan = plan.disable_sm(10 + sm, sm as u32);
        }
        assert!(matches!(
            gpu.install_fault_plan(plan),
            Err(SimError::InvalidConfig(_))
        ));
    }

    #[test]
    fn mem_latency_fault_slows_memory_bound_app() {
        let run_with = |plan: Option<FaultPlan>| {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            let app = gpu.launch(mem_kernel("a", 24, 1 << 22)).unwrap();
            gpu.partition_even();
            if let Some(p) = plan {
                gpu.install_fault_plan(p).unwrap();
            }
            gpu.run(40_000_000).unwrap();
            gpu.stats().app(app).runtime_cycles()
        };
        let healthy = run_with(None);
        let degraded = run_with(Some(FaultPlan::new().mem_latency_window(
            0,
            u64::MAX,
            200,
            600,
        )));
        assert!(
            degraded > healthy,
            "latency fault had no effect: {degraded} vs {healthy}"
        );
    }

    fn rand_kernel(name: &str, blocks: u32, ws: u64) -> KernelDesc {
        KernelDesc {
            name: name.into(),
            grid_blocks: blocks,
            warps_per_block: 2,
            iters_per_warp: 20,
            body: vec![
                Op::Load(PatternId(0)),
                Op::Alu { latency: 4 },
                Op::Store(PatternId(1)),
            ],
            patterns: vec![
                AccessPattern::random(ws, 4),
                AccessPattern::streaming(ws),
            ],
            active_lanes: 32,
        }
    }

    fn record_alone(kernel: KernelDesc) -> (KernelTrace, u64, crate::stats::SimStats) {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let app = gpu.launch(kernel).unwrap();
        gpu.enable_trace_recording(app).unwrap();
        gpu.partition_even();
        gpu.run(40_000_000).unwrap();
        let cycles = gpu.cycle();
        let stats = gpu.stats().clone();
        let trace = gpu.take_trace(app).expect("recording was enabled");
        (trace, cycles, stats)
    }

    #[test]
    fn record_then_replay_alone_is_bit_identical() {
        for kernel in [mem_kernel("m", 16, 1 << 22), rand_kernel("r", 16, 1 << 22)] {
            let (trace, cycles, stats) = record_alone(kernel);
            trace.validate().unwrap();
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            gpu.launch_traced(Arc::new(trace)).unwrap();
            gpu.partition_even();
            gpu.run(40_000_000).unwrap();
            assert_eq!(gpu.cycle(), cycles, "replay cycle count diverges");
            assert_eq!(*gpu.stats(), stats, "replay stats diverge");
        }
    }

    #[test]
    fn replay_is_bit_identical_across_step_modes() {
        let (trace, cycles, stats) = record_alone(rand_kernel("r", 16, 1 << 22));
        let trace = Arc::new(trace);
        for mode in [StepMode::Cycle, StepMode::EventHorizon] {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            gpu.set_step_mode(mode);
            gpu.launch_traced(Arc::clone(&trace)).unwrap();
            gpu.partition_even();
            gpu.run(40_000_000).unwrap();
            assert_eq!(gpu.cycle(), cycles, "{mode:?} cycle count diverges");
            assert_eq!(*gpu.stats(), stats, "{mode:?} stats diverge");
        }
    }

    #[test]
    fn trace_recorded_in_corun_replays_bit_identically_in_context() {
        // Record member A while co-running with a Random-pattern partner,
        // then replay traced-A next to the same synthetic partner. The
        // RNG-parity burn keeps the partner's per-SM stream untouched.
        let run = |traced: Option<Arc<KernelTrace>>| {
            let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
            let a = match &traced {
                Some(t) => gpu.launch_traced(Arc::clone(t)).unwrap(),
                None => {
                    let a = gpu.launch(mem_kernel("a", 16, 1 << 22)).unwrap();
                    gpu.enable_trace_recording(a).unwrap();
                    a
                }
            };
            gpu.launch(rand_kernel("b", 16, 1 << 22)).unwrap();
            gpu.partition_even();
            gpu.run(40_000_000).unwrap();
            let trace = gpu.take_trace(a);
            (gpu.cycle(), gpu.stats().clone(), trace)
        };
        let (c1, s1, trace) = run(None);
        let trace = Arc::new(trace.expect("recording was enabled"));
        let (c2, s2, none) = run(Some(trace));
        assert!(none.is_none(), "replay app records nothing");
        assert_eq!(c1, c2, "co-run replay cycle count diverges");
        assert_eq!(s1, s2, "co-run replay stats diverge");
    }

    #[test]
    fn trace_recording_state_errors() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let a = gpu.launch(mem_kernel("a", 4, 1 << 20)).unwrap();
        gpu.partition_even();
        gpu.run_for(10);
        // Too late: the app has already started issuing.
        assert!(matches!(
            gpu.enable_trace_recording(a),
            Err(SimError::InvalidConfig(_))
        ));
        // Replaying apps can't also record.
        let (trace, _, _) = record_alone(mem_kernel("m", 4, 1 << 20));
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        let r = gpu.launch_traced(Arc::new(trace)).unwrap();
        assert!(matches!(
            gpu.enable_trace_recording(r),
            Err(SimError::InvalidConfig(_))
        ));
        assert!(gpu.take_trace(r).is_none());
    }

    #[test]
    fn launch_traced_rejects_invalid_trace() {
        let (mut trace, _, _) = record_alone(mem_kernel("m", 4, 1 << 20));
        trace.warps.pop();
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        assert!(matches!(
            gpu.launch_traced(Arc::new(trace)),
            Err(SimError::InvalidKernel(_))
        ));
    }

    #[test]
    fn diagnostics_capture_device_shape() {
        let mut gpu = Gpu::new(GpuConfig::test_small()).unwrap();
        gpu.launch(mem_kernel("a", 16, 1 << 22)).unwrap();
        gpu.partition_even();
        gpu.run_for(50);
        let diag = gpu.diagnostics();
        assert_eq!(diag.cycle, 50);
        assert_eq!(diag.sms.len(), 8);
        assert_eq!(diag.slices.len(), 2);
        assert_eq!(diag.enabled_sms(), 8);
        assert!(diag.to_string().contains("8/8 SMs enabled"));
    }
}
