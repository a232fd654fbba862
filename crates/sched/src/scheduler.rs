//! The batch entry point to the discrete-event scheduling loop.
//!
//! Time is simulated GPU cycles; trace arrivals, group completions and
//! optional re-plan ticks are the events. The loop itself, with its
//! tie order for events that share a timestamp, lives in [`EventCore`]
//! in its incremental (submit-by-submit) form; [`OnlineScheduler::run`]
//! feeds a whole [`ArrivalTrace`] through it and drains. Because the
//! daemon and the fleet drive the *same* engine, a daemon session
//! submitting the same jobs at the same logical cycles produces a
//! byte-identical report — equivalence by construction, not by parallel
//! maintenance.
//!
//! Group execution itself is *measured*, not simulated here: a dispatch
//! calls [`Pipeline::run_group`], which routes through the memoized
//! sweep engine, and the resulting per-app cycle counts and group
//! makespan become the completion events. A device is busy until the
//! group's makespan elapses; an individual job completes when its own
//! co-run cycle count elapses (co-runners can finish earlier than the
//! group holds the device — same semantics as the batch pipeline's
//! accounting).
//!
//! [`Pipeline::run_group`]: gcs_core::runner::Pipeline::run_group

use gcs_core::runner::{AllocationPolicy, Pipeline};
use gcs_workloads::ArrivalTrace;

use crate::daemon::{EventCore, OverloadPolicy};
use crate::policy::Policy;
use crate::queue::Job;
use crate::report::SchedReport;
use crate::SchedError;

/// Knobs for one scheduler run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedConfig {
    /// Simulated devices to dispatch onto (≥ 1). Each runs one co-run
    /// group at a time; all share the pipeline's device model.
    pub num_gpus: u32,
    /// Admission-queue capacity; arrivals beyond it are rejected.
    pub queue_capacity: usize,
    /// SM allocation used for every dispatched group.
    pub alloc: AllocationPolicy,
    /// Optional fixed re-plan cadence: every `interval` cycles the
    /// cached plan is invalidated even without new arrivals, so
    /// stateful policies get a chance to reconsider. `None` re-plans
    /// only on admissions (the default, and what the batch-equivalence
    /// pin requires).
    pub replan_interval: Option<u64>,
}

impl Default for SchedConfig {
    /// One device, a 64-job queue, SMRA allocation, admission-driven
    /// re-planning.
    fn default() -> Self {
        SchedConfig {
            num_gpus: 1,
            queue_capacity: 64,
            alloc: AllocationPolicy::Smra,
            replan_interval: None,
        }
    }
}

/// Arrival-driven scheduler over a measurement [`Pipeline`].
///
/// Borrows the pipeline mutably for the lifetime of the scheduler so
/// co-run measurements share the pipeline's profile/curve caches (and
/// its memoized sweep engine) across runs.
pub struct OnlineScheduler<'p> {
    pipeline: &'p mut Pipeline,
    cfg: SchedConfig,
}

impl<'p> OnlineScheduler<'p> {
    /// Creates a scheduler with `cfg`.
    ///
    /// # Errors
    ///
    /// [`SchedError::BadConfig`] if `cfg.num_gpus` is 0.
    pub fn new(pipeline: &'p mut Pipeline, cfg: SchedConfig) -> Result<Self, SchedError> {
        if cfg.num_gpus == 0 {
            return Err(SchedError::BadConfig("num_gpus must be at least 1".into()));
        }
        Ok(OnlineScheduler { pipeline, cfg })
    }

    /// Runs `trace` to completion under `policy` and reports.
    ///
    /// # Errors
    ///
    /// Pipeline failures ([`SchedError::Core`]) and the pathological
    /// empty-plan-with-waiting-jobs case ([`SchedError::Stalled`]).
    pub fn run(
        &mut self,
        trace: &ArrivalTrace,
        policy: &mut dyn Policy,
    ) -> Result<SchedReport, SchedError> {
        let mut core = EventCore::new(self.cfg, OverloadPolicy::default())?;
        for (i, a) in trace.arrivals().iter().enumerate() {
            let job = Job {
                id: i,
                bench: a.bench,
                arrival: a.time,
            };
            core.submit(&mut *self.pipeline, policy, job)?;
        }
        core.drain(&mut *self.pipeline, policy)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fcfs, PolicyKind};
    use crate::queue::JobId;
    use gcs_core::interference::InterferenceMatrix;
    use gcs_core::runner::RunConfig;
    use gcs_sim::config::GpuConfig;
    use gcs_workloads::{Arrival, Benchmark, Scale};

    fn test_pipeline(concurrency: u32) -> Pipeline {
        let cfg = RunConfig {
            gpu: GpuConfig::test_small(),
            scale: Scale::TEST,
            concurrency,
        };
        Pipeline::with_matrix(cfg, InterferenceMatrix::synthetic_paper_shape())
            .expect("test pipeline")
    }

    fn trace_at_zero(benches: &[Benchmark]) -> ArrivalTrace {
        ArrivalTrace::new(
            benches
                .iter()
                .map(|&bench| Arrival { time: 0, bench })
                .collect(),
        )
    }

    #[test]
    fn zero_gpus_is_rejected() {
        let mut p = test_pipeline(2);
        let cfg = SchedConfig {
            num_gpus: 0,
            ..SchedConfig::default()
        };
        assert!(matches!(
            OnlineScheduler::new(&mut p, cfg),
            Err(SchedError::BadConfig(_))
        ));
    }

    #[test]
    fn empty_trace_yields_empty_report() {
        let mut p = test_pipeline(2);
        let trace = ArrivalTrace::new(Vec::new());
        let report = OnlineScheduler::new(&mut p, SchedConfig::default())
            .unwrap()
            .run(&trace, &mut Fcfs)
            .unwrap();
        assert!(report.jobs.is_empty());
        assert!(report.groups.is_empty());
        assert_eq!(report.makespan, 0);
    }

    #[test]
    fn single_gpu_serializes_groups() {
        let mut p = test_pipeline(2);
        let trace = trace_at_zero(&[
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Blk,
            Benchmark::Sad,
        ]);
        let report = OnlineScheduler::new(&mut p, SchedConfig::default())
            .unwrap()
            .run(&trace, &mut Fcfs)
            .unwrap();
        assert_eq!(report.jobs.len(), 4);
        assert_eq!(report.groups.len(), 2);
        // On one device the second group starts exactly when the first
        // ends.
        assert_eq!(report.groups[0].start, 0);
        assert_eq!(report.groups[1].start, report.groups[0].end);
        assert_eq!(report.makespan, report.groups[1].end);
        // FCFS: arrival order is group order.
        assert_eq!(report.groups[0].jobs, vec![0, 1]);
        assert_eq!(report.groups[1].jobs, vec![2, 3]);
    }

    #[test]
    fn two_gpus_dispatch_in_parallel() {
        let mut p = test_pipeline(2);
        let trace = trace_at_zero(&[
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Blk,
            Benchmark::Sad,
        ]);
        let cfg = SchedConfig {
            num_gpus: 2,
            ..SchedConfig::default()
        };
        let report = OnlineScheduler::new(&mut p, cfg)
            .unwrap()
            .run(&trace, &mut Fcfs)
            .unwrap();
        // Both groups start at t=0 on distinct devices.
        assert_eq!(report.groups.len(), 2);
        assert_eq!(report.groups[0].start, 0);
        assert_eq!(report.groups[1].start, 0);
        assert_ne!(report.groups[0].gpu, report.groups[1].gpu);
        assert!(report.makespan < report.groups[0].end + report.groups[1].end);
    }

    #[test]
    fn backpressure_rejects_and_still_finishes() {
        let mut p = test_pipeline(2);
        // 6 arrivals at t=0 into a capacity-4 queue: exactly 2 rejected.
        let trace = trace_at_zero(&[
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Blk,
            Benchmark::Sad,
            Benchmark::Lps,
            Benchmark::Ray,
        ]);
        let cfg = SchedConfig {
            queue_capacity: 4,
            ..SchedConfig::default()
        };
        let report = OnlineScheduler::new(&mut p, cfg)
            .unwrap()
            .run(&trace, &mut Fcfs)
            .unwrap();
        assert_eq!(report.rejections.len(), 2);
        assert_eq!(report.jobs.len(), 4);
        let rejected: Vec<JobId> = report.rejections.iter().map(|r| r.job).collect();
        assert_eq!(rejected, vec![4, 5], "last arrivals bounce");
    }

    #[test]
    fn late_arrivals_wait_for_their_timestamp() {
        let mut p = test_pipeline(2);
        let trace = ArrivalTrace::new(vec![
            Arrival {
                time: 0,
                bench: Benchmark::Gups,
            },
            Arrival {
                time: 1_000_000_000,
                bench: Benchmark::Hs,
            },
        ]);
        let report = OnlineScheduler::new(&mut p, SchedConfig::default())
            .unwrap()
            .run(&trace, &mut Fcfs)
            .unwrap();
        assert_eq!(report.jobs.len(), 2);
        // The device idles until the second arrival: no time travel.
        assert_eq!(report.jobs[1].dispatch, 1_000_000_000);
        assert_eq!(report.jobs[1].queue_delay(), 0);
    }

    #[test]
    fn replan_interval_run_matches_admission_driven_for_stateless_policies() {
        // Stateless policies plan the same groups whether or not extra
        // ticks invalidate the cache, so the reports must be identical.
        let trace = ArrivalTrace::poisson(&Benchmark::ALL, 8, 40_000.0, 7);
        let mut reports = Vec::new();
        for interval in [None, Some(25_000u64)] {
            let mut p = test_pipeline(2);
            let cfg = SchedConfig {
                replan_interval: interval,
                ..SchedConfig::default()
            };
            let mut policy = PolicyKind::GreedyClass.build();
            let r = OnlineScheduler::new(&mut p, cfg)
                .unwrap()
                .run(&trace, policy.as_mut())
                .unwrap();
            reports.push(r.to_json());
        }
        assert_eq!(reports[0], reports[1]);
    }
}
