//! `fleet_loop`: the second event loop. `run_fleet` shares queue and
//! policy code with `gcs_sched` but not the loop, and adds the
//! predictor curves and the marginal-gain allocator; the planned
//! `run_fleet` → `EventCore` merger is measured on this workload and on
//! `sched_inproc`, one on each side.

use std::hint::black_box;

use gcs_core::runner::Pipeline;
use gcs_fleet::{
    allocate, run_fleet, DeviceProfile, FleetMode, FleetPredictor, FleetRunConfig, FleetSpec,
};
use gcs_workloads::{ArrivalTrace, Benchmark};

use crate::harness::{Env, Sink, Workload};
use crate::trace::Tracer;
use crate::workloads::sched::{census_14_jobs, check_nothing_simulated, small_pipeline};

const WAVES: usize = 40;
const WAVE_LEN: usize = 5;
const WAVE_GAP: u64 = 40_000;
const JOBS: usize = WAVES * WAVE_LEN;
/// Repetitions per sample: one repetition is a few milliseconds.
const BATCH: u64 = 40;

pub struct FleetLoop {
    pipeline: Pipeline,
    spec: FleetSpec,
    trace: ArrivalTrace,
    cfg: FleetRunConfig,
    simulated_at_setup: u64,
}

fn hetero_spec() -> FleetSpec {
    let devices = [("gpu8", 8), ("gpu15", 15), ("gpu30", 30)]
        .into_iter()
        .map(|(id, num_sms)| DeviceProfile {
            id: id.into(),
            num_sms,
        })
        .collect();
    FleetSpec::new(devices).expect("valid fleet spec")
}

impl Workload for FleetLoop {
    fn setup(env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self {
        let pipeline = small_pipeline(env, tr, sink);
        let open = tr.begin("workloads.trace_gen");
        let trace = ArrivalTrace::waves(&Benchmark::ALL, WAVES, WAVE_LEN, WAVE_GAP, env.seed);
        sink.sample("workloads.trace_gen_us", tr.end(open) * 1e6);
        let mut w = FleetLoop {
            pipeline,
            spec: hetero_spec(),
            cfg: FleetRunConfig {
                queue_capacity: trace.len(),
                mode: FleetMode::MarginalGain,
            },
            trace,
            simulated_at_setup: 0,
        };
        // The warm-up repetition simulates every curve point and group.
        w.one(tr, &mut Sink::default());
        w.simulated_at_setup = w.pipeline.sweep_stats().jobs_simulated;
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        for _ in 0..BATCH {
            self.one(tr, sink);
        }
        check_nothing_simulated(&self.pipeline, self.simulated_at_setup, sink);
    }

    fn batch(&self) -> u64 {
        BATCH
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("sched_jobs_per_s", JOBS as f64)]
    }

    /// The loop's two planning steps on their own, over a warm cache.
    fn passes(&mut self, tr: &mut Tracer, sink: &mut Sink, _deep: bool) {
        let rc = self.pipeline.config();
        const LOOPS: u32 = 200;
        let warm = || {
            FleetPredictor::warm(
                self.pipeline.engine(),
                &rc.gpu,
                rc.scale,
                &self.spec,
                &Benchmark::ALL,
            )
            .expect("every curve point is cached")
        };
        let open = tr.begin("fleet.predict_warm");
        for _ in 0..LOOPS {
            black_box(warm());
        }
        sink.sample(
            "fleet.predict_warm_us",
            tr.end(open) * 1e6 / f64::from(LOOPS),
        );

        let predictor = warm();
        let pending = census_14_jobs();
        let free: Vec<usize> = (0..self.spec.len()).collect();
        let open = tr.begin("fleet.alloc");
        for _ in 0..LOOPS * 10 {
            black_box(allocate(
                &predictor,
                &self.spec,
                black_box(&pending),
                &free,
                2,
            ));
        }
        sink.sample("fleet.alloc_us", tr.end(open) * 1e6 / f64::from(LOOPS * 10));
    }
}

impl FleetLoop {
    fn one(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let open = tr.begin("fleet.run");
        let report = run_fleet(&self.pipeline, &self.spec, &self.cfg, &self.trace);
        sink.add("fleet.run_s", tr.end(open));
        sink.attempted += JOBS as u64;
        let report = match report {
            Ok(r) => r,
            Err(e) => return sink.failures.push(format!("fleet run failed: {e}")),
        };
        let open = tr.begin("fleet.report_encode");
        let json = report.to_json();
        sink.add("fleet.report_encode_us", tr.end(open) * 1e6);

        sink.check(report.jobs.len() == JOBS, || {
            format!("{} of {JOBS} jobs completed", report.jobs.len())
        });
        let conserved = report
            .jobs
            .iter()
            .all(|j| j.budget_sms >= 1 && j.budget_sms <= self.spec.devices()[j.device].num_sms);
        sink.check(conserved, || "a job's SM budget exceeds its device".into());
        let util: f64 = (0..self.spec.len()).map(|d| report.utilization(d)).sum();
        sink.exact("stp", report.stp());
        sink.exact("fleet.churn", report.churn as f64);
        sink.exact("fleet.util_mean", util / self.spec.len() as f64);
        sink.exact("fleet.rejected", report.rejections.len() as f64);
        sink.output(&json);
    }
}
