//! [`FleetPolicy`] — the one marginal-gain planner, as a scheduling
//! policy next to `Fcfs`/`GreedyClass`/`IlpEpoch`; [`run_fleet`](crate::run_fleet)
//! and `repro schedd` both drive it through `EventCore`.
//!
//! Each plan is one [`allocate`] over the free devices, returned as a
//! *placed* plan: every group names its device and its members' SM
//! budgets, and jobs the free devices cannot hold stay pending for the
//! next round. Each epoch notice shadow-allocates the whole pending
//! census over every device and counts allocation churn — jobs whose
//! planned device moved since the previous epoch. With every device
//! free, the epoch's first plan *is* the shadow plan, so it is reused
//! (a `debug_assert_eq!` checks each reuse against a fresh `allocate`).
//!
//! Curves come from the memo cache, never from a simulation inside a
//! decision; on a cold cache the policy degrades to the class-aware
//! greedy pairing (unplaced) and records a
//! [`Degradation::PredictorColdFallback`], the ILP → greedy ladder's
//! shape. A 1-device fleet *is* the single-GPU scheduler, so the policy
//! delegates to [`IlpEpoch`], name included, and its report is
//! byte-identical to a plain `IlpEpoch` run (`tests/fleet.rs`).

use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

use gcs_core::runner::Pipeline;
use gcs_core::{CoreError, Degradation};
use gcs_sched::policy::ids_for_groups;
use gcs_sched::{AdmissionQueue, IlpEpoch, Job, Placement, Plan, Policy};
use gcs_workloads::Benchmark;

use crate::alloc::{allocate, FleetPlan};
use crate::predict::FleetPredictor;
use crate::spec::FleetSpec;

/// Counters a [`FleetPolicy`] accumulates across plans, shared through
/// [`FleetPolicy::stats_handle`] so they stay readable after the
/// daemon takes ownership of the boxed policy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetPolicyStats {
    /// Plan calls served (degenerate delegation included).
    pub plans: u64,
    /// Plans degraded to greedy because predictor curves were not yet
    /// memo-cached.
    pub cold_fallbacks: u64,
    /// Jobs whose shadow-planned device changed between consecutive
    /// epochs — the fleet report's allocation churn.
    pub churn: u64,
}

/// Marginal-gain fleet allocation as an epoch policy.
pub struct FleetPolicy {
    spec: FleetSpec,
    /// Every device index, ascending: the shadow plan's devices.
    all: Vec<usize>,
    predictor: FleetPredictor,
    /// Per benchmark: whether its curve is loaded at every capacity.
    warm: [bool; Benchmark::ALL.len()],
    stats: Arc<Mutex<FleetPolicyStats>>,
    churn: ChurnMap,
    /// The census of the epoch's shadow plan, refilled each epoch.
    census: Vec<Job>,
    /// This epoch's shadow plan, until the epoch's first plan takes it.
    shadow: Option<FleetPlan>,
}

impl FleetPolicy {
    /// A policy scheduling onto `spec`'s devices, its predictor filled
    /// from the memo cache as jobs arrive.
    pub fn new(spec: FleetSpec) -> FleetPolicy {
        FleetPolicy::with_predictor(spec, FleetPredictor::new(), 0)
    }

    /// A policy over a warmed `predictor`, sized for job ids below `jobs`.
    pub(crate) fn with_predictor(spec: FleetSpec, predictor: FleetPredictor, jobs: usize) -> Self {
        let mut policy = FleetPolicy {
            all: (0..spec.len()).collect(),
            spec,
            predictor,
            warm: [false; Benchmark::ALL.len()],
            stats: Arc::new(Mutex::new(FleetPolicyStats::default())),
            churn: ChurnMap::with_jobs(jobs),
            census: Vec::new(),
            shadow: None,
        };
        policy.mark_warm();
        policy
    }

    /// Shared counters; clone survives handing the policy to a daemon.
    pub fn stats_handle(&self) -> Arc<Mutex<FleetPolicyStats>> {
        Arc::clone(&self.stats)
    }

    pub(crate) fn stats(&self) -> std::sync::MutexGuard<'_, FleetPolicyStats> {
        self.stats.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// A 1-device fleet delegates wholesale to [`IlpEpoch`].
    fn degenerate(&self) -> bool {
        self.spec.len() == 1
    }

    fn mark_warm(&mut self) {
        for b in Benchmark::ALL {
            self.warm[b as usize] = self
                .spec
                .devices()
                .iter()
                .all(|d| self.predictor.has(d.num_sms, b));
        }
    }

    /// Loads the curves `pending` needs from the memo cache (never
    /// simulating) and returns how many are still missing.
    fn missing_curves(&mut self, pipeline: &Pipeline, pending: &[Job]) -> usize {
        if pending.iter().all(|j| self.warm[j.bench as usize]) {
            return 0;
        }
        let census: BTreeSet<Benchmark> = pending.iter().map(|j| j.bench).collect();
        let census: Vec<Benchmark> = census.into_iter().collect();
        let cfg = pipeline.config();
        let missing =
            self.predictor
                .probe_merge(pipeline.engine(), &cfg.gpu, cfg.scale, &self.spec, &census);
        self.mark_warm();
        missing
    }

    /// The marginal-gain plan for `pending` over the `free` devices.
    fn allocate(&self, pipeline: &Pipeline, pending: &[Job], free: &[usize]) -> FleetPlan {
        let max_group = pipeline.config().concurrency.max(1) as usize;
        allocate(&self.predictor, &self.spec, pending, free, max_group)
    }
}

impl Policy for FleetPolicy {
    fn name(&self) -> &'static str {
        // The degenerate fleet *is* the single-GPU scheduler; naming
        // it "ilp" keeps the report byte-identical to an IlpEpoch run
        // (the equivalence pin in tests/fleet.rs).
        if self.degenerate() {
            "ilp"
        } else {
            "fleet"
        }
    }

    /// Plans as if every device were free.
    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        let all = self.all.clone();
        self.plan_over(pipeline, pending, &all)
    }

    fn plan_over(
        &mut self,
        pipeline: &Pipeline,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError> {
        self.stats().plans += 1;
        if self.degenerate() {
            return IlpEpoch.plan(pipeline, pending);
        }
        if pending.is_empty() {
            return Ok(Plan::default());
        }
        let missing = self.missing_curves(pipeline, pending);
        if missing > 0 {
            // Cold cache: degrade to the class-aware greedy pairing
            // instead of simulating inside a scheduling decision.
            self.stats().cold_fallbacks += 1;
            let benches: Vec<Benchmark> = pending.iter().map(|j| j.bench).collect();
            let groups = pipeline.group_greedy_class(&benches);
            return Ok(Plan {
                groups: ids_for_groups(pending, &groups),
                placements: Vec::new(),
                degradations: vec![Degradation::PredictorColdFallback { missing }],
            });
        }
        // With every device free, the epoch's first plan is its shadow
        // plan: same pending list, same devices, and `allocate` is
        // deterministic.
        let plan = match self.shadow.take() {
            Some(shadow) if free.len() == self.spec.len() => {
                debug_assert_eq!(
                    shadow,
                    self.allocate(pipeline, pending, free),
                    "reused shadow plan"
                );
                shadow
            }
            _ => self.allocate(pipeline, pending, free),
        };
        let mut groups = Vec::with_capacity(plan.assignments.len());
        let mut placements = Vec::with_capacity(plan.assignments.len());
        for a in plan.assignments {
            groups.push(a.jobs);
            placements.push(Placement {
                device: a.device,
                budgets: a.budgets,
            });
        }
        Ok(Plan {
            groups,
            placements,
            degradations: Vec::new(),
        })
    }

    /// Shadow-allocates the pending census over the whole fleet and
    /// counts its churn; an epoch with a cold curve counts nothing.
    fn epoch(&mut self, pipeline: &Pipeline, queue: &AdmissionQueue) -> Result<(), CoreError> {
        self.shadow = None;
        if self.degenerate() {
            return Ok(());
        }
        let mut census = std::mem::take(&mut self.census);
        census.clear();
        census.extend(queue.pending());
        if self.missing_curves(pipeline, &census) == 0 {
            let shadow = self.allocate(pipeline, &census, &self.all);
            let moved = self.churn.observe(&shadow);
            if moved > 0 {
                self.stats().churn += moved;
            }
            self.shadow = Some(shadow);
        }
        self.census = census;
        Ok(())
    }
}

/// Job ids at or above this bound are not tracked and never count as
/// churn. Trace indices stay far below it; only a daemon client can pick
/// such an id, and a dense table that long would cost it 16 MiB.
const CHURN_IDS: usize = 1 << 20;

/// Each job's device in the most recent shadow plan that placed it,
/// stamped with that plan's epoch and indexed by job id. It answers
/// "where did the previous epoch plan this job" as a map rebuilt every
/// epoch would, without building one: a job the previous epoch did not
/// place carries an older stamp.
#[derive(Debug)]
struct ChurnMap {
    /// Shadow plans observed; the first is epoch 1.
    epoch: u64,
    /// `(epoch, device)` per job id; epoch 0 means never placed.
    last: Vec<(u64, usize)>,
}

impl ChurnMap {
    /// A map sized for job ids below `jobs`; it grows past them.
    fn with_jobs(jobs: usize) -> ChurnMap {
        ChurnMap {
            epoch: 0,
            last: vec![(0, 0); jobs.min(CHURN_IDS)],
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
                if id >= self.last.len() {
                    if id >= CHURN_IDS {
                        continue;
                    }
                    let len = (id + 1).max(2 * self.last.len()).min(CHURN_IDS);
                    self.last.resize(len, (0, 0));
                }
                let (seen, device) = self.last[id];
                moved += u64::from(seen != 0 && seen == prev && device != a.device);
                self.last[id] = (self.epoch, a.device);
            }
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use gcs_sched::JobId;
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
    /// re-enter it and move between devices. Half the cases start from
    /// an empty map, which grows as ids arrive.
    #[test]
    fn stamped_churn_map_matches_a_rebuilt_btreemap() {
        let mut rng = SimRng::seed_from_u64(0xC4E2);
        for case in 0..200 {
            let jobs = 1 + rng.gen_range(24) as usize;
            let devices = 1 + rng.gen_range(4) as usize;
            let mut stamped = ChurnMap::with_jobs(if case % 2 == 0 { jobs } else { 0 });
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

    /// Ids past the dense bound are skipped rather than grown into.
    #[test]
    fn churn_map_ignores_ids_past_its_bound() {
        let mut map = ChurnMap::with_jobs(0);
        assert_eq!(map.observe(&plan(&[(CHURN_IDS, 0), (3, 1)], 2)), 0);
        assert_eq!(
            map.observe(&plan(&[(CHURN_IDS, 1), (3, 0)], 2)),
            1,
            "id 3 moved"
        );
        assert!(map.last.len() < 16, "no table past the tracked ids");
    }
}
