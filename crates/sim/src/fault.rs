//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a cycle-stamped schedule of device degradations:
//! SM outages (drain-based — the SM finishes its resident blocks, then
//! sits idle until re-enabled), L2/DRAM latency inflation over cycle
//! windows, and MSHR-capacity throttling. The plan is installed on a
//! [`Gpu`](crate::gpu::Gpu) *after* construction — it is deliberately
//! **not** part of [`GpuConfig`](crate::config::GpuConfig), so sweep
//! cache fingerprints (which hash every config field) are unaffected,
//! exactly like [`StepMode`](crate::gpu::StepMode).
//!
//! Determinism: a plan is a plain sorted event list. Whether it was
//! written by hand with the builder methods or drawn from
//! [`FaultPlan::random`] (seeded [`SimRng`]), replaying the same plan
//! on the same workload yields bit-identical simulations regardless of
//! sweep thread count or step mode — faults fire at exact cycle stamps,
//! never at wall-clock or iteration-count boundaries.

use crate::config::GpuConfig;
use crate::memsys::MemSys;
use crate::rng::SimRng;
use crate::sm::Sm;

/// One kind of device degradation (or recovery).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Take SM `sm` out of service. The SM stops accepting new blocks
    /// immediately and is released from its owner once its resident
    /// blocks drain (the same mechanism as an SMRA handoff).
    DisableSm {
        /// Index of the SM to disable.
        sm: u32,
    },
    /// Return SM `sm` to service. The device hands it to the running
    /// application with the fewest SMs (deterministic tie-break: lowest
    /// app id).
    EnableSm {
        /// Index of the SM to re-enable.
        sm: u32,
    },
    /// Add `extra_l2` cycles to every L2 access and `extra_dram` cycles
    /// to every DRAM data return, until the next `MemLatency` event.
    /// `MemLatency { extra_l2: 0, extra_dram: 0 }` restores nominal
    /// timing.
    MemLatency {
        /// Extra L2 access latency in cycles.
        extra_l2: u32,
        /// Extra DRAM data latency in cycles.
        extra_dram: u32,
    },
    /// Clamp each L2 slice's miss-status-holding-register file to `cap`
    /// entries (nominal capacity is
    /// [`GpuConfig::MAX_MSHRS_PER_SLICE`]). Values are clamped to
    /// `[1, MAX_MSHRS_PER_SLICE]`; setting the maximum restores nominal
    /// capacity.
    MshrCap {
        /// New per-slice MSHR capacity.
        cap: u32,
    },
}

/// Applies one fault event to the device state. Returns the id of a
/// re-enabled SM that still needs handing to an application (the
/// device does that — app state is not visible here).
pub(crate) fn apply_fault_event(
    ev: FaultEvent,
    sms: &mut [Sm],
    enabled: &mut [bool],
    memsys: &mut MemSys,
) -> Option<u32> {
    match ev.kind {
        FaultKind::DisableSm { sm } => {
            let idx = sm as usize;
            enabled[idx] = false;
            let s = &mut sms[idx];
            // Cancel any in-flight handoff; the SM drains and is
            // released (phase 4) once its resident blocks finish.
            s.pending_owner = None;
            if s.owner.is_some() && s.is_empty() {
                s.request_handoff(None);
            }
            None
        }
        FaultKind::EnableSm { sm } => {
            let idx = sm as usize;
            if !enabled[idx] {
                enabled[idx] = true;
                Some(sm)
            } else {
                None
            }
        }
        FaultKind::MemLatency {
            extra_l2,
            extra_dram,
        } => {
            memsys.set_extra_latency(extra_l2, extra_dram);
            None
        }
        FaultKind::MshrCap { cap } => {
            memsys.set_mshr_cap(cap);
            None
        }
    }
}

/// A [`FaultKind`] scheduled at an absolute device cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Device cycle at which the fault takes effect (applied at the
    /// start of that cycle, before issue).
    pub cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A deterministic, cycle-stamped schedule of faults.
///
/// Build one with the fluent methods, or draw a seeded random plan with
/// [`FaultPlan::random`]; install it with
/// [`Gpu::install_fault_plan`](crate::gpu::Gpu::install_fault_plan),
/// which validates it against the device configuration.
///
/// ```
/// use gcs_sim::fault::FaultPlan;
///
/// let plan = FaultPlan::new()
///     .disable_sm(2_000, 3)
///     .enable_sm(9_000, 3)
///     .mem_latency_window(4_000, 6_000, 50, 120)
///     .mshr_window(5_000, 7_000, 8);
/// assert_eq!(plan.events().len(), 6); // each window is two events
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    events: Vec<FaultEvent>,
    /// Cursor into `events`: index of the first not-yet-applied event.
    next: usize,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        Self::default()
    }

    /// The full event schedule, sorted by cycle once installed.
    pub fn events(&self) -> &[FaultEvent] {
        &self.events
    }

    /// True when the plan contains no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends a raw event.
    pub fn push(mut self, cycle: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { cycle, kind });
        self
    }

    /// Schedules SM `sm` to go out of service at `cycle`.
    pub fn disable_sm(self, cycle: u64, sm: u32) -> Self {
        self.push(cycle, FaultKind::DisableSm { sm })
    }

    /// Schedules SM `sm` to return to service at `cycle`.
    pub fn enable_sm(self, cycle: u64, sm: u32) -> Self {
        self.push(cycle, FaultKind::EnableSm { sm })
    }

    /// Inflates L2/DRAM latency by (`extra_l2`, `extra_dram`) cycles
    /// over `[start, end)`, restoring nominal timing at `end`.
    pub fn mem_latency_window(self, start: u64, end: u64, extra_l2: u32, extra_dram: u32) -> Self {
        self.push(start, FaultKind::MemLatency { extra_l2, extra_dram })
            .push(
                end,
                FaultKind::MemLatency {
                    extra_l2: 0,
                    extra_dram: 0,
                },
            )
    }

    /// Throttles per-slice MSHR capacity to `cap` over `[start, end)`,
    /// restoring nominal capacity at `end`.
    pub fn mshr_window(self, start: u64, end: u64, cap: u32) -> Self {
        self.push(start, FaultKind::MshrCap { cap }).push(
            end,
            FaultKind::MshrCap {
                cap: GpuConfig::MAX_MSHRS_PER_SLICE,
            },
        )
    }

    /// Draws a seeded random chaos schedule for a device described by
    /// `cfg`, with all events inside `[horizon/8, horizon)`: one or two
    /// SM outage windows (disable + re-enable), one memory-latency
    /// spike window, and one MSHR-throttle window. The same
    /// `(seed, cfg, horizon)` triple always yields the same plan.
    ///
    /// # Panics
    ///
    /// Panics if `horizon < 16` (no room to place windows).
    pub fn random(seed: u64, cfg: &GpuConfig, horizon: u64) -> Self {
        assert!(horizon >= 16, "horizon too short for a fault schedule");
        let mut rng = SimRng::seed_from_u64(seed ^ 0xFA17_1A7E_5EED_0001);
        let lo = horizon / 8;
        let span = horizon - lo;
        let at = |rng: &mut SimRng| lo + rng.gen_range(span);
        let mut plan = FaultPlan::new();

        // 1-2 SM outage windows (only if the device can spare an SM).
        if cfg.num_sms > 1 {
            let outages = 1 + rng.gen_range(2);
            for _ in 0..outages {
                let sm = rng.gen_range(u64::from(cfg.num_sms)) as u32;
                let a = at(&mut rng);
                let b = at(&mut rng);
                let (start, end) = if a <= b { (a, b) } else { (b, a) };
                plan = plan.disable_sm(start, sm).enable_sm(end.max(start + 1), sm);
            }
        }

        // One memory-latency spike window.
        let a = at(&mut rng);
        let b = at(&mut rng);
        let (start, end) = if a <= b { (a, b) } else { (b, a) };
        let extra_l2 = 10 + rng.gen_range(91) as u32;
        let extra_dram = 20 + rng.gen_range(181) as u32;
        plan = plan.mem_latency_window(start, end.max(start + 1), extra_l2, extra_dram);

        // One MSHR-throttle window.
        let a = at(&mut rng);
        let b = at(&mut rng);
        let (start, end) = if a <= b { (a, b) } else { (b, a) };
        let cap = 1 + rng.gen_range(u64::from(GpuConfig::MAX_MSHRS_PER_SLICE) / 2) as u32;
        plan.mshr_window(start, end.max(start + 1), cap)
    }

    /// Validates the plan against `cfg` and sorts events by cycle
    /// (stable, so same-cycle events apply in insertion order). Called
    /// by `Gpu::install_fault_plan`.
    ///
    /// Rejects: SM indices out of range, a zero MSHR cap, and any
    /// prefix of the schedule that would leave the device with no
    /// enabled SM.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&mut self, cfg: &GpuConfig) -> Result<(), String> {
        self.events.sort_by_key(|e| e.cycle);
        self.next = 0;
        let mut enabled = vec![true; cfg.num_sms as usize];
        let mut live = cfg.num_sms;
        for (i, ev) in self.events.iter().enumerate() {
            match ev.kind {
                FaultKind::DisableSm { sm } | FaultKind::EnableSm { sm } => {
                    if sm >= cfg.num_sms {
                        return Err(format!(
                            "fault event {i} targets SM {sm} but device has {} SMs",
                            cfg.num_sms
                        ));
                    }
                    let on = matches!(ev.kind, FaultKind::EnableSm { .. });
                    let slot = &mut enabled[sm as usize];
                    if *slot != on {
                        *slot = on;
                        if on {
                            live += 1;
                        } else {
                            live -= 1;
                        }
                    }
                    if live == 0 {
                        return Err(format!(
                            "fault event {i} (cycle {}) would disable every SM",
                            ev.cycle
                        ));
                    }
                }
                FaultKind::MshrCap { cap } => {
                    if cap == 0 {
                        return Err(format!("fault event {i} sets a zero MSHR capacity"));
                    }
                }
                FaultKind::MemLatency { .. } => {}
            }
        }
        Ok(())
    }

    /// Returns the slice of events due at or before `now`, advancing
    /// the cursor past them. Subsequent calls never return the same
    /// event twice.
    pub fn due(&mut self, now: u64) -> &[FaultEvent] {
        let start = self.next;
        while self.next < self.events.len() && self.events[self.next].cycle <= now {
            self.next += 1;
        }
        &self.events[start..self.next]
    }

    /// Cycle of the next pending event, if any.
    pub fn next_cycle(&self) -> Option<u64> {
        self.events.get(self.next).map(|e| e.cycle)
    }

    /// Rewinds the cursor so the plan can be replayed from cycle 0.
    pub fn reset(&mut self) {
        self.next = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_windows_emit_paired_events() {
        let p = FaultPlan::new()
            .mem_latency_window(100, 200, 10, 20)
            .mshr_window(150, 250, 4);
        assert_eq!(p.events().len(), 4);
        assert!(matches!(
            p.events()[1].kind,
            FaultKind::MemLatency {
                extra_l2: 0,
                extra_dram: 0
            }
        ));
        assert!(matches!(
            p.events()[3].kind,
            FaultKind::MshrCap {
                cap: GpuConfig::MAX_MSHRS_PER_SLICE
            }
        ));
    }

    #[test]
    fn validate_sorts_and_accepts_good_plan() {
        let cfg = GpuConfig::test_small();
        let mut p = FaultPlan::new().enable_sm(900, 2).disable_sm(300, 2);
        p.validate(&cfg).unwrap();
        assert_eq!(p.events()[0].cycle, 300);
        assert_eq!(p.events()[1].cycle, 900);
    }

    #[test]
    fn validate_rejects_out_of_range_sm() {
        let cfg = GpuConfig::test_small(); // 8 SMs
        let mut p = FaultPlan::new().disable_sm(10, 8);
        assert!(p.validate(&cfg).unwrap_err().contains("SM 8"));
    }

    #[test]
    fn validate_rejects_total_outage() {
        let mut cfg = GpuConfig::test_small();
        cfg.num_sms = 2;
        let mut p = FaultPlan::new().disable_sm(10, 0).disable_sm(20, 1);
        assert!(p.validate(&cfg).unwrap_err().contains("every SM"));
    }

    #[test]
    fn validate_rejects_zero_mshr_cap() {
        let cfg = GpuConfig::test_small();
        let mut p = FaultPlan::new().push(5, FaultKind::MshrCap { cap: 0 });
        assert!(p.validate(&cfg).unwrap_err().contains("zero MSHR"));
    }

    #[test]
    fn cursor_drains_in_order_and_resets() {
        let cfg = GpuConfig::test_small();
        let mut p = FaultPlan::new()
            .disable_sm(10, 1)
            .enable_sm(30, 1)
            .disable_sm(20, 2)
            .enable_sm(40, 2);
        p.validate(&cfg).unwrap();
        assert_eq!(p.next_cycle(), Some(10));
        assert_eq!(p.due(9).len(), 0);
        let due = p.due(25);
        assert_eq!(due.len(), 2);
        assert!(matches!(due[0].kind, FaultKind::DisableSm { sm: 1 }));
        assert!(matches!(due[1].kind, FaultKind::DisableSm { sm: 2 }));
        assert_eq!(p.next_cycle(), Some(30));
        assert_eq!(p.due(1000).len(), 2);
        assert_eq!(p.next_cycle(), None);
        p.reset();
        assert_eq!(p.next_cycle(), Some(10));
    }

    #[test]
    fn random_plans_are_seed_deterministic() {
        let cfg = GpuConfig::test_small();
        let a = FaultPlan::random(7, &cfg, 100_000);
        let b = FaultPlan::random(7, &cfg, 100_000);
        let c = FaultPlan::random(8, &cfg, 100_000);
        assert_eq!(a, b);
        assert_ne!(a, c);
        let mut v = a.clone();
        v.validate(&cfg).unwrap();
    }

    #[test]
    fn random_plan_respects_horizon() {
        let cfg = GpuConfig::gtx480();
        let p = FaultPlan::random(3, &cfg, 50_000);
        for e in p.events() {
            assert!(e.cycle >= 50_000 / 8 && e.cycle < 50_000 + 1, "{e:?}");
        }
    }
}
