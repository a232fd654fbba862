//! The scheduler daemon: the one discrete-event loop plus a request
//! handler and serve loop.
//!
//! [`EventCore`] is the scheduling loop in *incremental* form: jobs are
//! pushed one at a time with [`EventCore::submit`] and the run is
//! finished with [`EventCore::drain`]. The batch
//! [`OnlineScheduler::run`](crate::OnlineScheduler::run), the daemon and
//! the heterogeneous fleet (`gcs_fleet::run_fleet`) all drive it, so a
//! daemon session that submits the same jobs at the same logical cycles
//! produces a byte-identical [`SchedReport`] — equivalence by
//! construction, not by keeping loops in sync.
//!
//! The tie order, defined here only: at any timestamp, completions free
//! devices first, then admissions enter in submission order, then the
//! re-plan tick check runs, then dispatch. Dispatch at the current
//! timestamp is *deferred* until time must advance (or the run drains),
//! so every same-cycle submission lands in the census before the policy
//! plans over it. A dispatch step that finds jobs waiting first sends the
//! policy its epoch notice ([`Policy::epoch`]), then fills free devices
//! in ascending order from the front of the cached plan, planning lazily
//! over the free devices ([`Policy::plan_over`]). An unplaced group takes
//! the lowest free device and [`SchedConfig::alloc`]; a placed group
//! ([`Plan::placements`]) runs on its own free device at its budgets, and
//! a placed plan may leave jobs pending for the next round.
//!
//! [`DaemonCore`] wraps an `EventCore` with the wire protocol
//! ([`Request`] → [`Response`]), bounded-admission backpressure
//! ([`Response::Rejected`] with a retry hint), graceful drain, and an
//! overload ladder ([`OverloadPolicy`]) that degrades planning —
//! configured policy → cached plan → class-aware greedy — under
//! queue pressure, recording every shed as a
//! [`Degradation::OverloadShed`]. [`DaemonCore::serve`] runs it over
//! any [`Listener`] (TCP or the in-process virtual link), turning
//! malformed frames into typed [`Response::Error`]s instead of panics
//! and read-deadline expiry into a typed timeout plus connection
//! close (the slow-loris defence).

use std::collections::VecDeque;
use std::time::Instant;

use gcs_core::fault::Degradation;
use gcs_core::runner::{AllocationPolicy, GroupResult, Pipeline};
use gcs_core::{CoreError, NanoStats, WindowedNanoStats};
use gcs_sim::SimError;
use gcs_workloads::Benchmark;

use crate::policy::{GreedyClass, Placement, Plan, Policy};
use crate::proto::{Request, Response};
use crate::queue::{AdmissionQueue, Job, JobId};
use crate::report::{GroupDispatch, JobFailure, JobOutcome, SchedReport};
use crate::scheduler::SchedConfig;
use crate::transport::{Listener, Transport, TransportError};
use crate::SchedError;

/// Measurement backend for planning and dispatched groups.
///
/// Production code uses [`Pipeline`] (co-runs route through the
/// memoized sweep engine) or the fleet's per-device measure; tests
/// substitute stubs that return synthetic cycle counts or inject
/// [`SimError`]s to exercise the failure paths deterministically — the
/// real simulator offers no reliable way to force a timeout on demand.
pub trait Measure {
    /// Plans dispatch groups over `pending` with `policy` ([`Policy::plan_over`]).
    ///
    /// # Errors
    ///
    /// Propagates policy/pipeline failures.
    fn plan(
        &mut self,
        policy: &mut dyn Policy,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError>;

    /// Passes `policy` its once-per-epoch notice ([`Policy::epoch`]); a
    /// backend without a pipeline (a test stub) sends none.
    ///
    /// # Errors
    ///
    /// Propagates policy/pipeline failures.
    fn epoch(&mut self, policy: &mut dyn Policy, queue: &AdmissionQueue) -> Result<(), CoreError> {
        let _ = (policy, queue);
        Ok(())
    }

    /// Measures one co-run group on `device` under `split`.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    fn run_group(
        &mut self,
        device: usize,
        benches: &[Benchmark],
        split: Split<'_>,
    ) -> Result<GroupResult, CoreError>;

    /// Alone-run cycles of `bench` on `device` (for STP accounting).
    fn alone_cycles(&self, device: usize, bench: Benchmark) -> u64;
}

/// How a dispatched group shares its device's SMs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Split<'a> {
    /// An unplaced group: [`SchedConfig::alloc`].
    Alloc(AllocationPolicy),
    /// A placed group: each member's SM budget, in group order.
    Budgets(&'a [u32]),
}

/// The pipeline's devices are identical, so the device index is only
/// a slot. A placed plan's budgets are sized for a fleet device the
/// pipeline does not model; running one is an error.
impl Measure for Pipeline {
    fn plan(
        &mut self,
        policy: &mut dyn Policy,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError> {
        policy.plan_over(self, pending, free)
    }

    fn epoch(&mut self, policy: &mut dyn Policy, queue: &AdmissionQueue) -> Result<(), CoreError> {
        policy.epoch(self, queue)
    }

    fn run_group(
        &mut self,
        _device: usize,
        benches: &[Benchmark],
        split: Split<'_>,
    ) -> Result<GroupResult, CoreError> {
        match split {
            Split::Alloc(alloc) => Pipeline::run_group(self, benches, alloc),
            Split::Budgets(_) => Err(CoreError::BadQueue(
                "a placed group needs a per-device measure (gcs_fleet::FleetMeasure)".into(),
            )),
        }
    }

    fn alone_cycles(&self, _device: usize, bench: Benchmark) -> u64 {
        self.profile(bench).cycles
    }
}

/// Overload-shedding thresholds; both default to `None` (off), which
/// reproduces batch semantics exactly.
///
/// The ladder has two rungs, applied in order of increasing pressure:
///
/// 1. **cached plan** — while more than `replan_pending_limit` jobs
///    are pending, an admission no longer invalidates a cached
///    non-empty plan. The census grows stale but dispatch keeps
///    consuming groups the last (expensive) solve produced.
/// 2. **greedy fallback** — when a plan *is* needed and more than
///    `ilp_pending_limit` jobs are pending, the configured policy is
///    bypassed and the class-aware greedy pairing plans instead
///    (`O(n log n)` versus the ILP's branch & bound).
///
/// Every shed is recorded as [`Degradation::OverloadShed`] in the
/// final report, so degraded decisions are auditable, never silent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OverloadPolicy {
    /// Rung 1 threshold: pending count above which cached plans
    /// survive admissions.
    pub replan_pending_limit: Option<usize>,
    /// Rung 2 threshold: pending count above which planning falls
    /// back to [`GreedyClass`].
    pub ilp_pending_limit: Option<usize>,
}

/// The incremental discrete-event scheduling engine.
///
/// Holds the same state as one batch run — admission queue, device
/// busy-until times, cached plan, re-plan tick cursor and the report
/// accumulators — but is driven by [`submit`](EventCore::submit) /
/// [`drain`](EventCore::drain) calls instead of a trace loop. See the
/// module docs for the tie-order contract.
pub struct EventCore {
    cfg: SchedConfig,
    overload: OverloadPolicy,
    queue: AdmissionQueue,
    /// `busy[g]` is `Some(cycle at which device g frees up)`.
    busy: Vec<Option<u64>>,
    /// The pending jobs and idle devices a plan is made over, refilled
    /// before each plan, and a group's jobs and benchmarks, refilled per
    /// group.
    pending: Vec<Job>,
    free: Vec<usize>,
    members: Vec<Job>,
    benches: Vec<Benchmark>,
    plan: Option<VecDeque<Vec<JobId>>>,
    /// The cached plan's placements, front first; empty when unplaced.
    placements: VecDeque<Placement>,
    last_tick: u64,
    now: u64,
    /// Whether the tick-check + dispatch steps have run at `now`.
    /// Reset on every admission and every time advance, so all
    /// same-cycle submissions precede planning.
    settled: bool,
    jobs: Vec<JobOutcome>,
    rejections: Vec<crate::queue::Rejection>,
    failed: Vec<JobFailure>,
    groups: Vec<GroupDispatch>,
    degradations: Vec<Degradation>,
    /// Wall time of the most recent planning decisions; the lifetime
    /// count survives eviction.
    decisions: WindowedNanoStats,
}

/// Planning decisions whose latency [`EventCore::decision_stats`]
/// summarizes: the most recent ones, so a long-lived daemon's memory
/// stays bounded. Large enough that a 2 000-arrival run is summarized
/// over every decision it made.
const DECISION_WINDOW: usize = 4096;

impl EventCore {
    /// Creates an engine at cycle 0 with all devices idle.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadConfig`] if `cfg.num_gpus` is 0.
    pub fn new(cfg: SchedConfig, overload: OverloadPolicy) -> Result<Self, SchedError> {
        if cfg.num_gpus == 0 {
            return Err(SchedError::BadConfig("num_gpus must be at least 1".into()));
        }
        Ok(EventCore {
            cfg,
            overload,
            queue: AdmissionQueue::new(cfg.queue_capacity),
            busy: vec![None; cfg.num_gpus as usize],
            pending: Vec::new(),
            free: Vec::with_capacity(cfg.num_gpus as usize),
            members: Vec::new(),
            benches: Vec::new(),
            plan: None,
            placements: VecDeque::new(),
            last_tick: 0,
            now: 0,
            settled: false,
            jobs: Vec::new(),
            rejections: Vec::new(),
            failed: Vec::new(),
            groups: Vec::new(),
            degradations: Vec::new(),
            decisions: WindowedNanoStats::new(DECISION_WINDOW),
        })
    }

    /// Current simulated cycle.
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Jobs waiting in the admission queue.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// Devices currently running a group.
    pub fn running(&self) -> usize {
        self.busy.iter().flatten().count()
    }

    /// Jobs completed so far.
    pub fn completed(&self) -> usize {
        self.jobs.len()
    }

    /// Arrivals bounced off the full queue so far.
    pub fn rejected(&self) -> usize {
        self.rejections.len()
    }

    /// Jobs whose dispatched group died in the simulator.
    pub fn failures(&self) -> &[JobFailure] {
        &self.failed
    }

    /// Degradations recorded so far (solver downgrades and overload
    /// sheds).
    fn degradation_count(&self) -> usize {
        self.degradations.len()
    }

    /// Cycles until the next device frees up (`1` when all are idle) —
    /// the retry hint attached to [`Response::Rejected`].
    pub fn retry_after(&self) -> u64 {
        self.busy
            .iter()
            .flatten()
            .copied()
            .min()
            .map_or(1, |done| done.saturating_sub(self.now).max(1))
    }

    /// Wall-clock statistics over the most recent planning decisions
    /// (up to 4 096); `count` is the lifetime number of decisions.
    /// Kept out of the canonical report JSON — wall time is not
    /// byte-reproducible.
    pub fn decision_stats(&self) -> NanoStats {
        NanoStats {
            count: self.decisions.total_pushed(),
            ..self.decisions.stats()
        }
    }

    /// Submits one job. `job.arrival` is the logical cycle; it is
    /// clamped to the engine's current time, which reproduces the
    /// batch loop's handling of a trace whose next arrival is already
    /// due. Returns whether the job was admitted; a bounced job is
    /// recorded as a [`Rejection`](crate::queue::Rejection) exactly as
    /// in batch mode.
    ///
    /// # Errors
    ///
    /// Non-simulator pipeline failures ([`SchedError::Core`]).
    /// Simulator timeouts/deadlocks of dispatched groups are *not*
    /// errors: the group's jobs are recorded in
    /// [`failures`](EventCore::failures) and the device frees on the
    /// next cycle.
    pub fn submit(
        &mut self,
        m: &mut dyn Measure,
        policy: &mut dyn Policy,
        job: Job,
    ) -> Result<bool, SchedError> {
        let at = job.arrival.max(self.now);
        if at > self.now {
            self.settle(m, policy)?;
            self.pump_until(m, policy, Some(at))?;
        }
        match self.queue.offer(job) {
            Ok(()) => {
                self.settled = false;
                // Overload rung 1: under pressure, a cached non-empty
                // plan survives the census change.
                let keep = self
                    .overload
                    .replan_pending_limit
                    .is_some_and(|lim| self.queue.len() > lim)
                    && self.plan.as_ref().is_some_and(|p| !p.is_empty());
                if keep {
                    self.degradations.push(Degradation::OverloadShed {
                        from: "replan",
                        to: "cached-plan",
                        pending: self.queue.len(),
                    });
                } else {
                    self.plan = None;
                }
                Ok(true)
            }
            Err(r) => {
                self.rejections.push(r);
                Ok(false)
            }
        }
    }

    /// Finishes the run: dispatches everything pending, advances
    /// through all remaining completions and returns the final report
    /// (consuming the accumulated state).
    ///
    /// # Errors
    ///
    /// [`SchedError::Stalled`] if jobs wait with no event that could
    /// dispatch them; pipeline failures as in
    /// [`submit`](EventCore::submit).
    pub fn drain(
        &mut self,
        m: &mut dyn Measure,
        policy: &mut dyn Policy,
    ) -> Result<SchedReport, SchedError> {
        self.settle(m, policy)?;
        self.pump_until(m, policy, None)?;
        if !self.queue.is_empty() {
            return Err(SchedError::Stalled {
                waiting: self.queue.len(),
                at: self.now,
            });
        }
        let mut jobs = std::mem::take(&mut self.jobs);
        jobs.sort_unstable_by_key(|j| j.id);
        let groups = std::mem::take(&mut self.groups);
        let makespan = groups.iter().map(|g| g.end).max().unwrap_or(0);
        Ok(SchedReport {
            policy: policy.name().to_string(),
            num_gpus: self.cfg.num_gpus,
            queue_capacity: self.cfg.queue_capacity,
            jobs,
            rejections: std::mem::take(&mut self.rejections),
            failed: std::mem::take(&mut self.failed),
            groups,
            degradations: std::mem::take(&mut self.degradations),
            makespan,
        })
    }

    /// A report over the state accumulated *so far*, without settling
    /// or draining — the daemon's mid-run `report` op. Jobs dispatched
    /// but pending settle are not yet visible; the snapshot is still a
    /// pure function of the submission history.
    fn snapshot_report(&self, policy_name: &str) -> SchedReport {
        let mut jobs = self.jobs.clone();
        jobs.sort_unstable_by_key(|j| j.id);
        let makespan = self.groups.iter().map(|g| g.end).max().unwrap_or(0);
        SchedReport {
            policy: policy_name.to_string(),
            num_gpus: self.cfg.num_gpus,
            queue_capacity: self.cfg.queue_capacity,
            jobs,
            rejections: self.rejections.clone(),
            failed: self.failed.clone(),
            groups: self.groups.clone(),
            degradations: self.degradations.clone(),
            makespan,
        }
    }

    /// Earliest future internal event: a completion, or a re-plan tick
    /// while work is waiting.
    fn next_event(&self) -> Option<u64> {
        let next_done = self.busy.iter().flatten().copied().min();
        let next_tick = match self.cfg.replan_interval {
            Some(iv) if iv > 0 && !self.queue.is_empty() => Some(((self.now / iv) + 1) * iv),
            _ => None,
        };
        [next_done, next_tick].into_iter().flatten().min()
    }

    /// Frees every device whose group ended at or before `now`.
    fn free_completions(&mut self) {
        for slot in &mut self.busy {
            if slot.is_some_and(|until| until <= self.now) {
                *slot = None;
            }
        }
    }

    /// Runs the tick-check + dispatch steps at `now`, once.
    fn settle(&mut self, m: &mut dyn Measure, policy: &mut dyn Policy) -> Result<(), SchedError> {
        if self.settled {
            return Ok(());
        }
        if let Some(iv) = self.cfg.replan_interval {
            if iv > 0 && self.now / iv > self.last_tick {
                self.last_tick = self.now / iv;
                self.plan = None;
            }
        }
        self.dispatch(m, policy)?;
        self.settled = true;
        Ok(())
    }

    /// Processes internal events strictly before `target` (every one
    /// without), then lands at `target` with completions freed and
    /// dispatch deferred.
    fn pump_until(
        &mut self,
        m: &mut dyn Measure,
        policy: &mut dyn Policy,
        target: Option<u64>,
    ) -> Result<(), SchedError> {
        while let Some(next) = self.next_event() {
            if target.is_some_and(|t| next >= t) {
                break;
            }
            debug_assert!(next > self.now, "events must move time forward");
            self.now = next;
            self.settled = false;
            self.free_completions();
            self.settle(m, policy)?;
        }
        if let Some(t) = target {
            self.now = t;
            self.settled = false;
            self.free_completions();
        }
        Ok(())
    }

    /// The dispatch step (see the module docs), planning through the
    /// overload ladder.
    fn dispatch(&mut self, m: &mut dyn Measure, policy: &mut dyn Policy) -> Result<(), SchedError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        m.epoch(policy, &self.queue)?;
        while !self.queue.is_empty() {
            let Some(lowest_free) = self.busy.iter().position(Option::is_none) else {
                break;
            };
            let planned_now = self.plan.is_none();
            if planned_now {
                self.pending.clear();
                self.pending.extend(self.queue.pending().copied());
                let pending = &self.pending;
                self.free.clear();
                self.free
                    .extend((0..self.busy.len()).filter(|&g| self.busy[g].is_none()));
                let mut greedy = GreedyClass;
                // Overload rung 2: bypass an expensive policy for the
                // class-aware greedy pairing above the limit.
                let shed = self
                    .overload
                    .ilp_pending_limit
                    .is_some_and(|lim| pending.len() > lim)
                    && policy.name() != greedy.name();
                let t0 = Instant::now();
                let fresh = if shed {
                    self.degradations.push(Degradation::OverloadShed {
                        from: policy.name(),
                        to: greedy.name(),
                        pending: pending.len(),
                    });
                    m.plan(&mut greedy, pending, &self.free)?
                } else {
                    m.plan(policy, pending, &self.free)?
                };
                let spent = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                self.decisions.push(spent);
                self.degradations.extend(fresh.degradations);
                self.plan = Some(fresh.groups.into());
                self.placements = fresh.placements.into();
            }
            let Some(group_ids) = self.plan.as_mut().and_then(VecDeque::pop_front) else {
                if planned_now {
                    // Nothing to dispatch now: a placed plan may leave
                    // jobs for the next round.
                    break;
                }
                // A cached plan can exhaust while jobs still wait when
                // overload rung 1 let the census grow past it, or after
                // a placed plan's round — the census needs a fresh
                // plan, not a stall.
                self.plan = None;
                continue;
            };
            let placement = self.placements.pop_front();
            let gpu = placement.as_ref().map_or(lowest_free, |p| p.device);
            assert!(
                self.busy.get(gpu) == Some(&None),
                "a placed group must name a free device"
            );
            self.queue.take(&group_ids, &mut self.members);
            self.benches.clear();
            self.benches.extend(self.members.iter().map(|j| j.bench));
            let split = match &placement {
                Some(p) => Split::Budgets(&p.budgets),
                None => Split::Alloc(self.cfg.alloc),
            };
            match m.run_group(gpu, &self.benches, split) {
                Ok(result) => {
                    let mut stp = 0.0;
                    for (member, app) in self.members.iter().zip(&result.apps) {
                        let alone = m.alone_cycles(gpu, member.bench);
                        stp += alone as f64 / app.cycles as f64;
                        self.jobs.push(JobOutcome {
                            id: member.id,
                            bench: member.bench,
                            arrival: member.arrival,
                            dispatch: self.now,
                            completion: self.now + app.cycles,
                            gpu: gpu as u32,
                            alone_cycles: alone,
                            corun_cycles: app.cycles,
                        });
                    }
                    // A group always occupies its device for at least
                    // one cycle, or same-timestamp dispatch would loop
                    // forever.
                    let end = self.now + result.makespan.max(1);
                    self.busy[gpu] = Some(end);
                    self.groups.push(GroupDispatch {
                        gpu: gpu as u32,
                        start: self.now,
                        end,
                        jobs: group_ids,
                        budgets: placement.map_or_else(Vec::new, |p| p.budgets),
                        stp,
                    });
                }
                Err(CoreError::Sim(e @ (SimError::Timeout { .. } | SimError::Deadlock { .. }))) => {
                    let (kind, cycle, diag) = match &e {
                        SimError::Timeout { cycle, diag } => ("timeout", *cycle, diag.to_string()),
                        SimError::Deadlock { cycle, diag } => ("deadlock", *cycle, diag.to_string()),
                        _ => unreachable!("matched above"),
                    };
                    for member in &self.members {
                        self.failed.push(JobFailure {
                            id: member.id,
                            bench: member.bench,
                            arrival: member.arrival,
                            dispatch: self.now,
                            kind,
                            cycle,
                            diag: diag.clone(),
                        });
                    }
                    // The device held the doomed group for one cycle;
                    // the run continues without it.
                    self.busy[gpu] = Some(self.now + 1);
                }
                Err(e) => return Err(e.into()),
            }
        }
        Ok(())
    }
}

/// Daemon configuration: the scheduling knobs plus the overload
/// ladder. Transport deadlines live on the [`Listener`] handed to
/// [`DaemonCore::serve`], not here.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonConfig {
    /// The batch scheduler's knobs (devices, capacity, allocation,
    /// re-plan cadence).
    pub sched: SchedConfig,
    /// Overload-shedding thresholds (default: off).
    pub overload: OverloadPolicy,
}

/// The daemon: protocol handler over an [`EventCore`].
///
/// Owns the policy, borrows the measurement backend, and maps every
/// [`Request`] to exactly one [`Response`] — malformed or unlucky
/// input degrades to typed errors, never a panic or a dead daemon.
pub struct DaemonCore<'p> {
    measure: &'p mut dyn Measure,
    policy: Box<dyn Policy>,
    core: EventCore,
    draining: bool,
    drained_json: Option<String>,
}

impl<'p> DaemonCore<'p> {
    /// Creates a daemon over `measure` with `policy`.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadConfig`] for an unusable configuration.
    pub fn new(
        measure: &'p mut dyn Measure,
        policy: Box<dyn Policy>,
        cfg: DaemonConfig,
    ) -> Result<Self, SchedError> {
        Ok(DaemonCore {
            measure,
            policy,
            core: EventCore::new(cfg.sched, cfg.overload)?,
            draining: false,
            drained_json: None,
        })
    }

    /// Whether a drain has completed (the final report was emitted).
    pub fn drained(&self) -> bool {
        self.drained_json.is_some()
    }

    /// Wall-clock statistics over every planning decision so far.
    pub fn decision_stats(&self) -> NanoStats {
        self.core.decision_stats()
    }

    /// Handles one request. Never panics; every outcome — including a
    /// simulator death inside a dispatched group — maps to a typed
    /// response.
    pub fn handle(&mut self, req: Request) -> Response {
        match req {
            Request::Submit { id, bench, at } => self.handle_submit(id, bench, at),
            Request::Status => Response::Status {
                now: self.core.now(),
                pending: self.core.pending(),
                running: self.core.running(),
                completed: self.core.completed(),
                rejected: self.core.rejected(),
                failed: self.core.failures().len(),
                degradations: self.core.degradation_count(),
                draining: self.draining,
            },
            Request::Report => Response::Report {
                json: self
                    .core
                    .snapshot_report(self.policy.name())
                    .to_json(),
            },
            Request::Drain => self.handle_drain(),
        }
    }

    fn handle_submit(&mut self, id: u64, bench: Benchmark, at: u64) -> Response {
        if self.draining {
            return Response::Rejected {
                id,
                retry_after: self.core.retry_after(),
                draining: true,
            };
        }
        let job = Job {
            id: id as usize,
            bench,
            arrival: at,
        };
        let failed_before = self.core.failures().len();
        match self.core.submit(self.measure, self.policy.as_mut(), job) {
            Ok(admitted) => {
                // A simulator death while advancing time outranks the
                // admission outcome: surface it with its diagnostic
                // snapshot (the jobs are also in the report's `failed`
                // rows).
                if self.core.failures().len() > failed_before {
                    let f = &self.core.failures()[self.core.failures().len() - 1];
                    return Response::Error {
                        kind: format!("sim-{}", f.kind),
                        detail: format!(
                            "job {id} {}; group with job {} died at cycle {} \
                             (recorded in the report's failed rows)",
                            if admitted { "admitted" } else { "rejected" },
                            f.id,
                            f.cycle,
                        ),
                        diag: Some(f.diag.clone()),
                    };
                }
                if admitted {
                    Response::Submitted { id }
                } else {
                    Response::Rejected {
                        id,
                        retry_after: self.core.retry_after(),
                        draining: false,
                    }
                }
            }
            Err(e) => Response::Error {
                kind: "pipeline".into(),
                detail: e.to_string(),
                diag: None,
            },
        }
    }

    fn handle_drain(&mut self) -> Response {
        if let Some(json) = &self.drained_json {
            return Response::Drained { json: json.clone() };
        }
        self.draining = true;
        match self.core.drain(self.measure, self.policy.as_mut()) {
            Ok(report) => {
                let json = report.to_json();
                self.drained_json = Some(json.clone());
                Response::Drained { json }
            }
            Err(SchedError::Stalled { waiting, at }) => Response::Error {
                kind: "stalled".into(),
                detail: format!("drain stalled at cycle {at} with {waiting} jobs waiting"),
                diag: None,
            },
            Err(e) => Response::Error {
                kind: "pipeline".into(),
                detail: e.to_string(),
                diag: None,
            },
        }
    }

    /// Serves connections until a drain completes (after which the
    /// final report has been delivered and the daemon's work is done)
    /// or the listener closes. Connections are handled one at a time;
    /// a listener accept timeout just re-checks for shutdown.
    ///
    /// # Errors
    ///
    /// Fatal listener failures; per-connection errors are contained.
    pub fn serve<L: Listener>(&mut self, listener: &mut L) -> Result<(), TransportError> {
        loop {
            let mut conn = match listener.accept() {
                Ok(c) => c,
                Err(TransportError::Closed) => return Ok(()),
                Err(TransportError::TimedOut) => {
                    if self.drained() {
                        return Ok(());
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            self.serve_conn(&mut conn);
            if self.drained() {
                return Ok(());
            }
        }
    }

    /// Serves one connection until it closes or desyncs.
    ///
    /// Error policy: header-level protocol violations (bad magic,
    /// unsupported version, oversize, peer death mid-frame) and read
    /// deadline expiry desync the framing — a typed error response is
    /// sent and the connection closed. Payload-level corruption
    /// (checksum or JSON) leaves framing intact — a typed error is
    /// sent and the connection stays live.
    fn serve_conn(&mut self, conn: &mut dyn Transport) {
        loop {
            let frame = match conn.recv_frame() {
                Ok(f) => f,
                Err(TransportError::Closed) => return,
                Err(TransportError::TimedOut) => {
                    let r = Response::Error {
                        kind: "timeout".into(),
                        detail: "read deadline exceeded".into(),
                        diag: None,
                    };
                    let _ = conn.send_bytes(&r.encode());
                    conn.close();
                    return;
                }
                Err(TransportError::Proto(e)) => {
                    let r = Response::Error {
                        kind: e.kind().into(),
                        detail: e.to_string(),
                        diag: None,
                    };
                    let _ = conn.send_bytes(&r.encode());
                    conn.close();
                    return;
                }
                Err(TransportError::Io(_)) => return,
            };
            let resp = match Request::decode(&frame) {
                Ok(req) => self.handle(req),
                Err(e) => Response::Error {
                    kind: e.kind().into(),
                    detail: e.to_string(),
                    diag: None,
                },
            };
            if conn.send_bytes(&resp.encode()).is_err() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::Fcfs;
    use crate::transport::virtual_pair;
    use gcs_sim::DiagSnapshot;

    /// Synthetic backend: pairs jobs FCFS, every job runs `cycles`
    /// co-run cycles (`2 * cycles` alone), and any group containing a
    /// benchmark in `fail` dies with a simulator timeout.
    struct StubMeasure {
        cycles: u64,
        fail: Vec<Benchmark>,
    }

    impl StubMeasure {
        fn new(cycles: u64) -> Self {
            StubMeasure {
                cycles,
                fail: Vec::new(),
            }
        }
    }

    impl Measure for StubMeasure {
        fn plan(
            &mut self,
            _policy: &mut dyn Policy,
            pending: &[Job],
            _free: &[usize],
        ) -> Result<Plan, CoreError> {
            Ok(Plan {
                groups: pending
                    .chunks(2)
                    .map(|c| c.iter().map(|j| j.id).collect())
                    .collect(),
                ..Plan::default()
            })
        }

        fn run_group(
            &mut self,
            _device: usize,
            benches: &[Benchmark],
            _split: Split<'_>,
        ) -> Result<GroupResult, CoreError> {
            if benches.iter().any(|b| self.fail.contains(b)) {
                return Err(CoreError::Sim(SimError::Timeout {
                    cycle: 77,
                    diag: DiagSnapshot::default(),
                }));
            }
            Ok(GroupResult {
                apps: benches
                    .iter()
                    .map(|&bench| gcs_core::runner::AppRun {
                        bench,
                        cycles: self.cycles,
                        thread_insts: self.cycles,
                        ipc: 1.0,
                    })
                    .collect(),
                makespan: self.cycles,
            })
        }

        fn alone_cycles(&self, _device: usize, _bench: Benchmark) -> u64 {
            2 * self.cycles
        }
    }

    fn daemon_cfg(capacity: usize) -> DaemonConfig {
        DaemonConfig {
            sched: SchedConfig {
                queue_capacity: capacity,
                ..SchedConfig::default()
            },
            overload: OverloadPolicy::default(),
        }
    }

    #[test]
    fn submit_status_drain_round_trip() {
        let mut m = StubMeasure::new(100);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(8)).unwrap();
        for i in 0..3u64 {
            let r = d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Gups,
                at: 0,
            });
            assert_eq!(r, Response::Submitted { id: i });
        }
        match d.handle(Request::Status) {
            Response::Status {
                pending, draining, ..
            } => {
                assert_eq!(pending, 3, "dispatch defers until time advances");
                assert!(!draining);
            }
            other => panic!("unexpected {other:?}"),
        }
        let json = match d.handle(Request::Drain) {
            Response::Drained { json } => json,
            other => panic!("unexpected {other:?}"),
        };
        assert!(json.contains("\"policy\": \"fcfs\""));
        assert!(d.drained());
        // Drain is idempotent: the same report comes back.
        assert_eq!(d.handle(Request::Drain), Response::Drained { json });
        // Post-drain submits bounce with the draining flag set.
        match d.handle(Request::Submit {
            id: 9,
            bench: Benchmark::Hs,
            at: 1000,
        }) {
            Response::Rejected { draining, .. } => assert!(draining),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn backpressure_rejects_with_retry_hint() {
        let mut m = StubMeasure::new(100);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(2)).unwrap();
        for i in 0..2u64 {
            d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Gups,
                at: 0,
            });
        }
        match d.handle(Request::Submit {
            id: 2,
            bench: Benchmark::Hs,
            at: 0,
        }) {
            Response::Rejected {
                id,
                retry_after,
                draining,
            } => {
                assert_eq!(id, 2);
                assert!(retry_after >= 1);
                assert!(!draining);
            }
            other => panic!("unexpected {other:?}"),
        }
        // The rejection shows up in the final report like batch mode.
        let json = match d.handle(Request::Drain) {
            Response::Drained { json } => json,
            other => panic!("unexpected {other:?}"),
        };
        assert!(json.contains("\"capacity\":2"));
    }

    #[test]
    fn sim_death_becomes_typed_error_with_diag_and_failed_rows() {
        let mut m = StubMeasure::new(100);
        m.fail.push(Benchmark::Hs);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(8)).unwrap();
        for i in 0..2u64 {
            d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Hs,
                at: 0,
            });
        }
        // Advancing time dispatches the doomed group; the response
        // carries the simulator diagnostic.
        match d.handle(Request::Submit {
            id: 2,
            bench: Benchmark::Gups,
            at: 500,
        }) {
            Response::Error { kind, diag, .. } => {
                assert_eq!(kind, "sim-timeout");
                assert!(diag.unwrap().contains("SMs enabled"));
            }
            other => panic!("unexpected {other:?}"),
        }
        match d.handle(Request::Status) {
            Response::Status { failed, .. } => assert_eq!(failed, 2),
            other => panic!("unexpected {other:?}"),
        }
        // The daemon survives: the healthy job still completes.
        let json = match d.handle(Request::Drain) {
            Response::Drained { json } => json,
            other => panic!("unexpected {other:?}"),
        };
        assert!(json.contains("\"kind\":\"timeout\""));
        assert!(json.contains("\"cycle\":77"));
    }

    #[test]
    fn overload_ladder_sheds_and_records() {
        let mut m = StubMeasure::new(1_000);
        let cfg = DaemonConfig {
            sched: SchedConfig {
                queue_capacity: 64,
                ..SchedConfig::default()
            },
            overload: OverloadPolicy {
                replan_pending_limit: Some(1),
                ilp_pending_limit: Some(6),
            },
        };
        let mut d = DaemonCore::new(&mut m, Box::new(crate::policy::IlpEpoch), cfg).unwrap();
        // t=0: 3 jobs, dispatch once (1 device busy), then flood.
        for i in 0..3u64 {
            d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Gups,
                at: 0,
            });
        }
        // Advance to t=1 to force a settle (plans once, occupies the
        // device), then flood the queue at t=1.
        for i in 3..12u64 {
            d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Gups,
                at: 1,
            });
        }
        let json = match d.handle(Request::Drain) {
            Response::Drained { json } => json,
            other => panic!("unexpected {other:?}"),
        };
        assert!(
            json.contains("shed to cached-plan"),
            "rung 1 must record: {json}"
        );
        assert!(
            json.contains("shed to greedy"),
            "rung 2 must record: {json}"
        );
        // Every job still completes despite the shedding.
        assert!(json.contains("\"id\":11"), "all 12 jobs in report: {json}");
    }

    #[test]
    fn decision_latency_is_sampled() {
        let mut m = StubMeasure::new(10);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(8)).unwrap();
        for i in 0..4u64 {
            d.handle(Request::Submit {
                id: i,
                bench: Benchmark::Gups,
                at: 0,
            });
        }
        d.handle(Request::Drain);
        let stats = d.decision_stats();
        assert!(stats.count >= 1, "at least one planning decision");
        assert!(stats.p99_ns >= stats.p50_ns);
    }

    #[test]
    fn decision_window_is_bounded_and_counts_every_decision() {
        // One arrival per free device: every submit plans once.
        const DECISIONS: usize = DECISION_WINDOW + 904;
        let mut m = StubMeasure::new(10);
        let mut core = EventCore::new(SchedConfig::default(), OverloadPolicy::default()).unwrap();
        for i in 0..DECISIONS {
            let job = Job {
                id: i,
                bench: Benchmark::Gups,
                arrival: 100 * i as u64,
            };
            core.submit(&mut m, &mut Fcfs, job).unwrap();
        }
        core.drain(&mut m, &mut Fcfs).unwrap();
        assert_eq!(core.decision_stats().count, DECISIONS, "lifetime count");
        assert_eq!(core.decisions.len(), DECISION_WINDOW, "memory bound");
        assert_eq!(core.decisions.total_pushed(), DECISIONS);
    }

    #[test]
    fn over_budget_drain_report_is_answered_with_a_decodable_error() {
        const JOBS: u64 = 6_000;
        let mut m = StubMeasure::new(10);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(JOBS as usize)).unwrap();
        let (mut client, mut server) = virtual_pair();
        for id in 0..JOBS {
            let submit = Request::Submit {
                id,
                bench: Benchmark::Gups,
                at: 0,
            };
            client.send_bytes(&submit.encode()).unwrap();
        }
        client.send_bytes(&Request::Drain.encode()).unwrap();
        // A garbage header makes the daemon hang up, ending `serve_conn`.
        client.send_bytes(b"NOPE----------------").unwrap();
        d.serve_conn(&mut server);

        for id in 0..JOBS {
            let r = Response::decode(&client.recv_frame().unwrap()).unwrap();
            assert_eq!(r, Response::Submitted { id });
        }
        // The escaped report is over the 1 MiB frame budget: the client
        // must get a frame it can read, not one it refuses as oversize.
        match Response::decode(&client.recv_frame().expect("in-budget frame")).unwrap() {
            Response::Error { kind, .. } => assert_eq!(kind, "oversize"),
            other => panic!("unexpected {other:?}"),
        }
        assert!(d.drained(), "the drain itself completed");
    }

    #[test]
    fn serve_conn_survives_corrupt_payload_and_closes_on_bad_header() {
        let mut m = StubMeasure::new(10);
        let mut d = DaemonCore::new(&mut m, Box::new(Fcfs), daemon_cfg(8)).unwrap();
        let (mut client, mut server) = virtual_pair();

        // Frame 1: valid submit.
        client
            .send_bytes(
                &Request::Submit {
                    id: 0,
                    bench: Benchmark::Gups,
                    at: 0,
                }
                .encode(),
            )
            .unwrap();
        // Frame 2: valid framing, corrupt payload (checksum mismatch).
        let mut bad = Request::Status.encode();
        let n = bad.len();
        bad[n - 1] ^= 0x01;
        client.send_bytes(&bad).unwrap();
        // Frame 3: still alive? A status must answer.
        client.send_bytes(&Request::Status.encode()).unwrap();
        // Frame 4: garbage header — daemon sends a typed error and
        // hangs up (so serve_conn returns without needing client EOF).
        client.send_bytes(b"NOPE----------------").unwrap();

        d.serve_conn(&mut server);

        let r1 = Response::decode(&client.recv_frame().unwrap()).unwrap();
        assert_eq!(r1, Response::Submitted { id: 0 });
        let r2 = Response::decode(&client.recv_frame().unwrap()).unwrap();
        assert!(matches!(r2, Response::Error { ref kind, .. } if kind == "corrupt"));
        let r3 = Response::decode(&client.recv_frame().unwrap()).unwrap();
        assert!(matches!(r3, Response::Status { pending: 1, .. }));
        let r4 = Response::decode(&client.recv_frame().unwrap()).unwrap();
        assert!(matches!(r4, Response::Error { ref kind, .. } if kind == "bad-magic"));
        assert!(matches!(
            client.recv_frame(),
            Err(TransportError::Closed | TransportError::Proto(_))
        ));
    }
}
