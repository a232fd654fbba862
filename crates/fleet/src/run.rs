//! The fleet run: [`run_fleet`] drives `gcs_sched`'s `EventCore` over
//! the spec's devices, so the completions → admissions →
//! deferred-dispatch tie order lives in `crates/sched/src/daemon.rs`
//! alone. What is heterogeneous is the measurement backend,
//! [`FleetMeasure`]: each group runs on its own device's [`GpuConfig`]
//! through the memoized sweep engine, so warm reruns replay without
//! simulation and results are bit-identical across sweep thread counts.
//!
//! Two modes share the loop so the comparison is apples-to-apples:
//!
//! * [`FleetMode::MarginalGain`] — [`FleetPolicy`] over a warmed
//!   [`FleetPredictor`]: placed plans, one `allocate` over the free
//!   devices each, which may leave jobs pending for the next round.
//! * [`FleetMode::WholeDeviceFcfs`] — the naive baseline: every pending
//!   job alone in arrival order, on the lowest free device, as its
//!   memoized alone profile. Its per-group STP is exactly 1.0 by
//!   construction, which makes "fleet beats FCFS on cross-device STP" a
//!   crisp, pinnable claim.

use std::collections::BTreeSet;

use gcs_core::runner::{AllocationPolicy, AppRun, GroupResult, Pipeline};
use gcs_core::smra::SmraParams;
use gcs_core::sweep::CorunMode;
use gcs_core::{CoreError, Workload};
use gcs_sched::{
    AdmissionQueue, EventCore, Job, Measure, OverloadPolicy, Plan, Policy, SchedConfig, SchedError,
    Split,
};
use gcs_sim::config::GpuConfig;
use gcs_sim::SimError;
use gcs_workloads::{ArrivalTrace, Benchmark};

use crate::policy::FleetPolicy;
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

/// The measurement backend of a heterogeneous fleet: every group runs
/// on its device's own [`GpuConfig`] through the pipeline's memoized
/// engine. A placed group co-runs at its members' budgets
/// ([`CorunMode::Counts`]); an unplaced lone job runs alone on the whole
/// device (its memoized alone profile, so its STP is exactly 1.0); an
/// unplaced co-run group (a cold-cache fallback, a 1-device fleet's ILP
/// group) shares the device under SMRA for [`AllocationPolicy::Smra`]
/// and evenly otherwise, as the fleet keeps no per-capacity curves for a
/// profile-based split. Alone cycles are the job's full-device profile
/// on its device, from the warmed predictor or else the sweep engine.
pub struct FleetMeasure<'a> {
    pipeline: &'a Pipeline,
    /// Each device's [`GpuConfig`], built once.
    configs: Vec<GpuConfig>,
    /// Full-device alone cycles per `(device, benchmark)`, 0 until known.
    alone: Vec<u64>,
    /// `workloads[b as usize]` is benchmark `b`'s workload.
    workloads: Vec<Workload>,
    /// A placed co-run's budgets, refilled per group.
    counts: Vec<u32>,
    /// The first simulator death of a dispatched group.
    died: Option<SimError>,
}

impl<'a> FleetMeasure<'a> {
    /// A measure over `spec`'s devices, each `pipeline`'s device model
    /// resized to its SM count.
    pub fn new(pipeline: &'a Pipeline, spec: &FleetSpec) -> FleetMeasure<'a> {
        let base = &pipeline.config().gpu;
        FleetMeasure {
            pipeline,
            configs: (0..spec.len())
                .map(|d| spec.device_config(base, d))
                .collect(),
            alone: vec![0; spec.len() * Benchmark::ALL.len()],
            workloads: Benchmark::ALL.map(Workload::Bench).into(),
            counts: Vec::new(),
            died: None,
        }
    }

    /// Takes the alone cycles of `benches` on every device from a warmed
    /// `predictor`.
    fn learn(&mut self, predictor: &FleetPredictor, benches: &[Benchmark]) {
        for (d, cfg) in self.configs.iter().enumerate() {
            for &b in benches {
                self.alone[slot(d, b)] = predictor.full_cycles(cfg.num_sms, b);
            }
        }
    }

    fn measure(
        &mut self,
        device: usize,
        benches: &[Benchmark],
        split: Split<'_>,
        out: &mut GroupResult,
    ) -> Result<(), CoreError> {
        let engine = self.pipeline.engine();
        let scale = self.pipeline.config().scale;
        let cfg = &self.configs[device];
        let mode = match (split, benches) {
            (Split::Alloc(_), &[bench]) => {
                let w = &self.workloads[bench as usize];
                let p = engine.profile_workload(cfg, scale, w, cfg.num_sms)?;
                self.alone[slot(device, bench)] = p.cycles;
                out.apps.clear();
                out.apps.push(AppRun {
                    bench,
                    cycles: p.cycles,
                    thread_insts: p.thread_insts,
                    ipc: p.ipc,
                });
                out.makespan = p.cycles;
                return Ok(());
            }
            (Split::Budgets(budgets), _) => {
                self.counts.clear();
                self.counts.extend_from_slice(budgets);
                CorunMode::Counts(std::mem::take(&mut self.counts))
            }
            (Split::Alloc(AllocationPolicy::Smra), _) => {
                CorunMode::Smra(SmraParams::for_device(cfg.num_sms, benches.len() as u32))
            }
            (Split::Alloc(_), _) => CorunMode::Even,
        };
        let ws = benches.iter().map(|&b| &self.workloads[b as usize]);
        let ran = engine.corun_with(cfg, scale, ws, &mode, |o| out.assign(benches, o));
        if let CorunMode::Counts(counts) = mode {
            self.counts = counts;
        }
        ran?;
        for &b in benches {
            if self.alone[slot(device, b)] == 0 {
                let w = &self.workloads[b as usize];
                self.alone[slot(device, b)] =
                    engine.profile_workload(cfg, scale, w, cfg.num_sms)?.cycles;
            }
        }
        Ok(())
    }
}

/// Index of `(device, bench)` in [`FleetMeasure`]'s alone table.
fn slot(device: usize, bench: Benchmark) -> usize {
    device * Benchmark::ALL.len() + bench as usize
}

impl Measure for FleetMeasure<'_> {
    fn plan(
        &mut self,
        policy: &mut dyn Policy,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError> {
        policy.plan_over(self.pipeline, pending, free)
    }

    fn epoch(&mut self, policy: &mut dyn Policy, queue: &AdmissionQueue) -> Result<(), CoreError> {
        policy.epoch(self.pipeline, queue)
    }

    fn run_group(
        &mut self,
        device: usize,
        benches: &[Benchmark],
        split: Split<'_>,
        out: &mut GroupResult,
    ) -> Result<(), CoreError> {
        let result = self.measure(device, benches, split, out);
        if let Err(CoreError::Sim(e @ (SimError::Timeout { .. } | SimError::Deadlock { .. }))) =
            &result
        {
            self.died.get_or_insert_with(|| e.clone());
        }
        result
    }

    fn alone_cycles(&self, device: usize, bench: Benchmark) -> u64 {
        self.alone[slot(device, bench)]
    }
}

/// The whole-device baseline's plan: every pending job alone, in
/// arrival order.
struct WholeDevice;

impl Policy for WholeDevice {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn plan(&mut self, _pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        Ok(Plan {
            groups: pending.iter().map(|j| vec![j.id]).collect(),
            ..Plan::default()
        })
    }
}

/// Runs `trace` over `spec`'s devices and reports.
///
/// The pipeline supplies the base [`GpuConfig`], scale, per-device
/// group-size bound (its `concurrency`) and the memoized engine; the
/// predictor is warmed up front, so decisions inside the loop never
/// simulate anything but dispatched groups.
///
/// # Errors
///
/// Profiling/co-run failures ([`CoreError`]); a group that dies in the
/// simulator fails the run with the first such error after the drain.
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
    let mut measure = FleetMeasure::new(pipeline, spec);
    measure.learn(&predictor, &census);
    let mut fleet = (cfg.mode == FleetMode::MarginalGain)
        .then(|| FleetPolicy::with_predictor(spec.clone(), predictor, trace.len()));
    let mut whole = WholeDevice;
    let policy: &mut dyn Policy = match &mut fleet {
        Some(p) => p,
        None => &mut whole,
    };

    let sched = SchedConfig {
        num_gpus: spec.len() as u32,
        queue_capacity: cfg.queue_capacity,
        alloc: AllocationPolicy::Smra,
        replan_interval: None,
    };
    let unwrap = |e: SchedError| match e {
        SchedError::Core(e) => e,
        other => panic!("fleet run failed: {other}"),
    };
    let mut core = EventCore::new(sched, OverloadPolicy::default()).map_err(unwrap)?;
    for (i, a) in trace.arrivals().iter().enumerate() {
        let job = Job {
            id: i,
            bench: a.bench,
            arrival: a.time,
        };
        core.submit(&mut measure, policy, job).map_err(unwrap)?;
    }
    let report = core.drain(&mut measure, policy).map_err(unwrap)?;
    if let Some(e) = measure.died {
        return Err(CoreError::Sim(e));
    }

    // An unplaced group (the whole-device baseline, a 1-device fleet's
    // ILP group) holds the whole device.
    let mut devices: Vec<FleetDevice> = (spec.devices().iter())
        .map(|d| FleetDevice {
            id: d.id.clone(),
            num_sms: d.num_sms,
            groups: 0,
            busy_cycles: 0,
        })
        .collect();
    let mut budget = vec![0; trace.len()];
    let groups: Vec<FleetGroup> = report
        .groups
        .into_iter()
        .map(|g| {
            let dev = &mut devices[g.gpu as usize];
            dev.groups += 1;
            dev.busy_cycles += g.end - g.start;
            for (k, &id) in g.jobs.iter().enumerate() {
                budget[id] = g.budgets.get(k).copied().unwrap_or(dev.num_sms);
            }
            FleetGroup {
                device: g.gpu as usize,
                start: g.start,
                end: g.end,
                jobs: g.jobs,
                stp: g.stp,
            }
        })
        .collect();
    let jobs = report
        .jobs
        .into_iter()
        .map(|j| FleetJob {
            id: j.id,
            bench: j.bench,
            device: j.gpu as usize,
            arrival: j.arrival,
            dispatch: j.dispatch,
            completion: j.completion,
            budget_sms: budget[j.id],
            alone_cycles: j.alone_cycles,
            corun_cycles: j.corun_cycles,
        })
        .collect();
    Ok(FleetReport {
        mode: cfg.mode.tag().to_string(),
        queue_capacity: cfg.queue_capacity,
        devices,
        jobs,
        rejections: report.rejections,
        groups,
        degradations: report.degradations,
        churn: fleet.map_or(0, |p| p.stats().churn),
        makespan: report.makespan,
    })
}
