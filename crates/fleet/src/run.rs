//! The heterogeneous fleet event loop.
//!
//! `EventCore` dispatches interchangeable groups onto identical
//! devices, so it cannot express "this group was budgeted for the
//! 30-SM device". [`run_fleet`] is the loop that can: same
//! discrete-event discipline and tie order as `EventCore`
//! (completions → admissions → dispatch, dispatch deferred until time
//! advances), but each allocation targets concrete devices and each
//! measurement runs on that device's [`GpuConfig`] with the granted
//! per-job SM budgets ([`CorunMode::Counts`]) through the memoized
//! sweep engine — so warm reruns replay without simulation and
//! results are bit-identical across sweep thread counts.
//!
//! Two modes share the loop so the comparison is apples-to-apples:
//!
//! * [`FleetMode::MarginalGain`] — the Optimus-style allocator
//!   ([`allocate`]) over a warmed [`FleetPredictor`].
//! * [`FleetMode::WholeDeviceFcfs`] — the naive baseline: front job,
//!   whole device, no co-running. Its per-group STP is exactly 1.0 by
//!   construction, which makes "fleet beats FCFS on cross-device STP"
//!   a crisp, pinnable claim.

use std::collections::BTreeSet;

use gcs_core::runner::Pipeline;
use gcs_core::sweep::CorunMode;
use gcs_core::{CoreError, SweepEngine, Workload};
use gcs_sim::config::GpuConfig;
use gcs_sched::{AdmissionQueue, Job, JobId, Rejection};
use gcs_workloads::{ArrivalTrace, Benchmark, Scale};

use crate::alloc::{allocate, FleetPlan};
use crate::predict::FleetPredictor;
use crate::report::{FleetDevice, FleetGroup, FleetJob, FleetReport};
use crate::spec::FleetSpec;

/// Which allocator drives the loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetMode {
    /// Marginal-gain SM budgeting with co-running (the subsystem under
    /// test).
    MarginalGain,
    /// One job per device at full capacity, FCFS — the naive baseline.
    WholeDeviceFcfs,
}

impl FleetMode {
    /// Short tag used in report `mode` fields and result file names.
    pub fn tag(self) -> &'static str {
        match self {
            FleetMode::MarginalGain => "fleet",
            FleetMode::WholeDeviceFcfs => "fcfs",
        }
    }
}

/// Knobs for one fleet run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetRunConfig {
    /// Admission-queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// Allocator driving dispatch.
    pub mode: FleetMode,
}

/// Runs `trace` over `spec`'s devices and reports.
///
/// The pipeline supplies the shared base [`GpuConfig`], scale,
/// per-device group-size bound (its `concurrency`) and the memoized
/// engine; the predictor is warmed up front (every curve point through
/// the memo cache), so scheduling decisions inside the loop never
/// simulate anything that is not a dispatched group.
///
/// # Errors
///
/// Propagates profiling/co-run simulation failures ([`CoreError`]).
///
/// # Panics
///
/// Panics on internal invariant violations (a job waiting with every
/// device idle — impossible for a validated non-empty spec).
pub fn run_fleet(
    pipeline: &Pipeline,
    spec: &FleetSpec,
    cfg: &FleetRunConfig,
    trace: &ArrivalTrace,
) -> Result<FleetReport, CoreError> {
    let rc = pipeline.config();
    let census: BTreeSet<Benchmark> = trace.arrivals().iter().map(|a| a.bench).collect();
    let census: Vec<Benchmark> = census.into_iter().collect();
    let predictor = FleetPredictor::warm(pipeline.engine(), &rc.gpu, rc.scale, spec, &census)?;
    let mut exec = Exec {
        engine: pipeline.engine(),
        configs: (0..spec.len())
            .map(|d| spec.device_config(&rc.gpu, d))
            .collect(),
        scale: rc.scale,
        spec,
        predictor,
        mode: cfg.mode,
        max_group: rc.concurrency.max(1) as usize,
        queue: AdmissionQueue::new(cfg.queue_capacity),
        busy: vec![None; spec.len()],
        now: 0,
        settled: true,
        jobs: Vec::new(),
        groups: Vec::new(),
        rejections: Vec::new(),
        dev_busy: vec![0; spec.len()],
        dev_groups: vec![0; spec.len()],
        churn: 0,
        churn_map: ChurnMap::with_jobs(trace.len()),
    };

    for (i, a) in trace.arrivals().iter().enumerate() {
        if a.time > exec.now {
            exec.settle()?;
            exec.pump_to(a.time)?;
        }
        let job = Job {
            id: i,
            bench: a.bench,
            arrival: a.time,
        };
        match exec.queue.offer(job) {
            Ok(()) => exec.settled = false,
            Err(r) => exec.rejections.push(r),
        }
    }
    exec.drain()?;

    let mut jobs = exec.jobs;
    jobs.sort_unstable_by_key(|j| j.id);
    let makespan = exec.groups.iter().map(|g| g.end).max().unwrap_or(0);
    Ok(FleetReport {
        mode: cfg.mode.tag().to_string(),
        queue_capacity: cfg.queue_capacity,
        devices: spec
            .devices()
            .iter()
            .enumerate()
            .map(|(d, dev)| FleetDevice {
                id: dev.id.clone(),
                num_sms: dev.num_sms,
                groups: exec.dev_groups[d],
                busy_cycles: exec.dev_busy[d],
            })
            .collect(),
        jobs,
        rejections: exec.rejections,
        groups: exec.groups,
        degradations: Vec::new(),
        churn: exec.churn,
        makespan,
    })
}

/// Mutable run state; method receiver for the event-loop steps.
struct Exec<'a> {
    engine: &'a SweepEngine,
    /// Each device's [`GpuConfig`], built once per run.
    configs: Vec<GpuConfig>,
    scale: Scale,
    spec: &'a FleetSpec,
    predictor: FleetPredictor,
    mode: FleetMode,
    max_group: usize,
    queue: AdmissionQueue,
    /// Per-device busy-until cycle.
    busy: Vec<Option<u64>>,
    now: u64,
    settled: bool,
    jobs: Vec<FleetJob>,
    groups: Vec<FleetGroup>,
    rejections: Vec<Rejection>,
    dev_busy: Vec<u64>,
    dev_groups: Vec<u64>,
    churn: u64,
    churn_map: ChurnMap,
}

/// Each job's device in the most recent shadow plan that placed it,
/// stamped with that plan's epoch and indexed by job id (ids are trace
/// indices). It answers "where did the previous epoch plan this job"
/// as a map rebuilt every epoch would, without building one: a job the
/// previous epoch did not place carries an older stamp.
#[derive(Debug)]
struct ChurnMap {
    /// Shadow plans observed; the first is epoch 1.
    epoch: u64,
    /// `(epoch, device)` per job id; epoch 0 means never placed.
    last: Vec<(u64, usize)>,
}

impl ChurnMap {
    /// A map for job ids below `jobs`.
    fn with_jobs(jobs: usize) -> ChurnMap {
        ChurnMap {
            epoch: 0,
            last: vec![(0, 0); jobs],
        }
    }

    /// Records `plan` as the next epoch and returns how many of its
    /// jobs the previous epoch planned on a different device.
    fn observe(&mut self, plan: &FleetPlan) -> u64 {
        let prev = self.epoch;
        self.epoch += 1;
        let mut moved = 0;
        for a in &plan.assignments {
            for &id in &a.jobs {
                let (seen, device) = self.last[id];
                moved += u64::from(seen != 0 && seen == prev && device != a.device);
                self.last[id] = (self.epoch, a.device);
            }
        }
        moved
    }
}

impl Exec<'_> {
    fn free_completions(&mut self) {
        for slot in &mut self.busy {
            if slot.is_some_and(|until| until <= self.now) {
                *slot = None;
            }
        }
    }

    /// Earliest pending completion.
    fn next_event(&self) -> Option<u64> {
        self.busy.iter().flatten().copied().min()
    }

    /// Runs the dispatch step at `now`, once.
    fn settle(&mut self) -> Result<(), CoreError> {
        if self.settled {
            return Ok(());
        }
        self.dispatch()?;
        self.settled = true;
        Ok(())
    }

    /// Processes completions strictly before `target`, then lands at
    /// `target` with completions freed and dispatch deferred — the
    /// same discipline as `EventCore::pump_until`.
    fn pump_to(&mut self, target: u64) -> Result<(), CoreError> {
        while let Some(next) = self.next_event() {
            if next >= target {
                break;
            }
            self.now = next;
            self.settled = false;
            self.free_completions();
            self.settle()?;
        }
        self.now = target;
        self.settled = false;
        self.free_completions();
        Ok(())
    }

    /// Drains: dispatches everything pending and advances through all
    /// remaining completions.
    fn drain(&mut self) -> Result<(), CoreError> {
        self.settle()?;
        while let Some(next) = self.next_event() {
            debug_assert!(next > self.now, "events must move time forward");
            self.now = next;
            self.settled = false;
            self.free_completions();
            self.settle()?;
        }
        assert!(
            self.queue.is_empty(),
            "jobs waiting with every device idle — allocator failed to place"
        );
        Ok(())
    }

    fn dispatch(&mut self) -> Result<(), CoreError> {
        if self.queue.is_empty() {
            return Ok(());
        }
        let mut shadow = match self.mode {
            FleetMode::MarginalGain => Some(self.track_churn()),
            FleetMode::WholeDeviceFcfs => None,
        };
        loop {
            let free: Vec<usize> = (0..self.spec.len())
                .filter(|&d| self.busy[d].is_none())
                .collect();
            if free.is_empty() || self.queue.is_empty() {
                return Ok(());
            }
            let placed = match self.mode {
                FleetMode::MarginalGain => {
                    // With every device free, the first round's plan is
                    // the shadow plan: same pending list, same devices,
                    // and `allocate` is deterministic.
                    let plan = match shadow.take() {
                        Some(plan) if free.len() == self.spec.len() => {
                            debug_assert_eq!(plan, self.plan(&free), "reused shadow plan");
                            plan
                        }
                        _ => self.plan(&free),
                    };
                    self.dispatch_marginal(plan)?
                }
                FleetMode::WholeDeviceFcfs => self.dispatch_fcfs(&free)?,
            };
            if placed == 0 {
                return Ok(());
            }
        }
    }

    /// The marginal-gain plan for the pending jobs over `free`.
    fn plan(&self, free: &[usize]) -> FleetPlan {
        let pending = self.queue.pending_vec();
        allocate(&self.predictor, self.spec, &pending, free, self.max_group)
    }

    /// Shadow-allocates the full pending census over the whole fleet
    /// and counts jobs whose planned device moved since the previous
    /// epoch — the allocation-churn metric. Pure curve arithmetic;
    /// nothing is simulated. Returns the shadow plan.
    fn track_churn(&mut self) -> FleetPlan {
        let all: Vec<usize> = (0..self.spec.len()).collect();
        let shadow = self.plan(&all);
        self.churn += self.churn_map.observe(&shadow);
        shadow
    }

    /// Dispatches every assignment of `plan`, a marginal-gain
    /// allocation over the free devices. Returns how many jobs were
    /// dispatched.
    fn dispatch_marginal(&mut self, plan: FleetPlan) -> Result<usize, CoreError> {
        let mut placed = 0usize;
        for a in plan.assignments {
            let members = self.queue.take(&a.jobs);
            let cap = self.spec.devices()[a.device].num_sms;
            let workloads: Vec<Workload> =
                a.benches.iter().map(|&b| Workload::Bench(b)).collect();
            let mode = CorunMode::Counts(a.budgets);
            let out = self.engine.corun_workloads(
                &self.configs[a.device],
                self.scale,
                &workloads,
                &mode,
            )?;
            let CorunMode::Counts(budgets) = &mode else {
                unreachable!("built as a counts split")
            };
            let mut stp = 0.0;
            for (k, m) in members.iter().enumerate() {
                let alone = self.predictor.full_cycles(cap, m.bench);
                let corun = out.cycles[k];
                stp += alone as f64 / corun as f64;
                self.jobs.push(FleetJob {
                    id: m.id,
                    bench: m.bench,
                    device: a.device,
                    arrival: m.arrival,
                    dispatch: self.now,
                    completion: self.now + corun,
                    budget_sms: budgets[k],
                    alone_cycles: alone,
                    corun_cycles: corun,
                });
            }
            self.finish_group(a.device, out.makespan, a.jobs, stp);
            placed += members.len();
        }
        Ok(placed)
    }

    /// Whole-device FCFS baseline: the front job takes each free
    /// device at full capacity. The measurement *is* the memoized
    /// alone profile, so per-group STP is exactly 1.0.
    fn dispatch_fcfs(&mut self, free: &[usize]) -> Result<usize, CoreError> {
        let mut placed = 0usize;
        for &d in free {
            let Some(front) = self.queue.pending().next().map(|j| j.id) else {
                break;
            };
            let members = self.queue.take(&[front]);
            let m = members[0];
            let cap = self.spec.devices()[d].num_sms;
            let p = self.engine.profile_workload(
                &self.configs[d],
                self.scale,
                &Workload::Bench(m.bench),
                cap,
            )?;
            let cycles = p.cycles;
            self.jobs.push(FleetJob {
                id: m.id,
                bench: m.bench,
                device: d,
                arrival: m.arrival,
                dispatch: self.now,
                completion: self.now + cycles,
                budget_sms: cap,
                alone_cycles: cycles,
                corun_cycles: cycles,
            });
            self.finish_group(d, cycles, vec![m.id], 1.0);
            placed += 1;
        }
        Ok(placed)
    }

    /// Records a dispatched group and marks its device busy. A group
    /// always advances time (`makespan ≥ 1`), so the event loop makes
    /// progress.
    fn finish_group(&mut self, device: usize, makespan: u64, jobs: Vec<JobId>, stp: f64) {
        let span = makespan.max(1);
        let end = self.now + span;
        self.busy[device] = Some(end);
        self.dev_busy[device] += span;
        self.dev_groups[device] += 1;
        self.groups.push(FleetGroup {
            device,
            start: self.now,
            end,
            jobs,
            stp,
        });
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use gcs_sim::rng::SimRng;

    use super::*;
    use crate::alloc::DeviceAssignment;

    /// A shadow plan placing each `(job, device)` pair, grouped per
    /// device in ascending device order as `allocate` emits them.
    fn plan(placed: &[(JobId, usize)], devices: usize) -> FleetPlan {
        let assignments = (0..devices)
            .map(|device| DeviceAssignment {
                device,
                jobs: placed
                    .iter()
                    .filter(|&&(_, d)| d == device)
                    .map(|&(id, _)| id)
                    .collect(),
                benches: Vec::new(),
                budgets: Vec::new(),
            })
            .filter(|a| !a.jobs.is_empty())
            .collect();
        FleetPlan {
            assignments,
            deferred: Vec::new(),
            predicted_stp: 0.0,
        }
    }

    /// The epoch-stamped map counts exactly what rebuilding a
    /// `BTreeMap` of the previous epoch's placements counts, over
    /// seeded plan sequences in which jobs leave the shadow plan and
    /// re-enter it and move between devices.
    #[test]
    fn stamped_churn_map_matches_a_rebuilt_btreemap() {
        let mut rng = SimRng::seed_from_u64(0xC4E2);
        for case in 0..200 {
            let jobs = 1 + rng.gen_range(24) as usize;
            let devices = 1 + rng.gen_range(4) as usize;
            let mut stamped = ChurnMap::with_jobs(jobs);
            let mut last: BTreeMap<JobId, usize> = BTreeMap::new();
            let mut total = 0;
            for epoch in 0..30 {
                let mut placed: Vec<(JobId, usize)> = Vec::new();
                for id in 0..jobs {
                    if rng.gen_range(4) > 0 {
                        placed.push((id, rng.gen_range(devices as u64) as usize));
                    }
                }
                let p = plan(&placed, devices);
                let map: BTreeMap<JobId, usize> = p
                    .assignments
                    .iter()
                    .flat_map(|a| a.jobs.iter().map(move |&id| (id, a.device)))
                    .collect();
                let want = map
                    .iter()
                    .filter(|(id, d)| last.get(id).is_some_and(|prev| prev != *d))
                    .count() as u64;
                last = map;
                assert_eq!(stamped.observe(&p), want, "case {case}, epoch {epoch}");
                total += want;
            }
            if case == 0 {
                assert!(total > 0, "the sequence moves jobs");
            }
        }
    }
}
