//! Run outcomes and latency/fairness metrics.
//!
//! Everything here is plain data plus arithmetic — no scheduling logic
//! — so `schedd_sim`, the smoke tests and the equivalence pins all read
//! from one source of truth. [`SchedReport::to_json`] renders a
//! canonical, byte-stable document (written through [`gcs_sim::wire`],
//! like the rest of the workspace: no serde) so determinism checks can
//! compare reports with `==` on the string.

use std::fmt::Write as _;

use gcs_core::fault::Degradation;
use gcs_sim::wire::{push_f64, push_str_escaped};
use gcs_workloads::Benchmark;

use crate::queue::{JobId, Rejection};

/// Final accounting for one job that ran to completion.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobOutcome {
    /// Trace-order id.
    pub id: JobId,
    /// Benchmark the job ran.
    pub bench: Benchmark,
    /// Arrival cycle (from the trace).
    pub arrival: u64,
    /// Cycle at which the job's group started on a device.
    pub dispatch: u64,
    /// Cycle at which the job itself finished (dispatch + its co-run
    /// cycles; co-runners in the group may finish later).
    pub completion: u64,
    /// Device index the group ran on.
    pub gpu: u32,
    /// Cycles the job needs running alone on the whole device.
    pub alone_cycles: u64,
    /// Cycles the job took inside its co-run group.
    pub corun_cycles: u64,
}

impl JobOutcome {
    /// Cycles spent waiting in the admission queue.
    pub fn queue_delay(&self) -> u64 {
        self.dispatch - self.arrival
    }

    /// Arrival-to-completion cycles.
    pub fn turnaround(&self) -> u64 {
        self.completion - self.arrival
    }

    /// Turnaround normalized by the alone runtime (the per-job term of
    /// ANTT). Always ≥ 1 in practice: co-running plus queueing can only
    /// delay a job relative to an idle dedicated device.
    pub fn normalized_turnaround(&self) -> f64 {
        self.turnaround() as f64 / self.alone_cycles as f64
    }
}

/// Final accounting for one job whose group died in simulation
/// (cycle-budget timeout or deadlock).
///
/// Failed jobs are counted *explicitly* — never folded into
/// completions — and carry the device diagnostics
/// ([`DiagSnapshot`](gcs_sim::stats::DiagSnapshot) rendering) so a
/// report reader sees *why* the job died, not just that it did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobFailure {
    /// Trace-order id.
    pub id: JobId,
    /// Benchmark the job was running.
    pub bench: Benchmark,
    /// Arrival cycle (from the trace).
    pub arrival: u64,
    /// Cycle at which the doomed group was dispatched.
    pub dispatch: u64,
    /// Failure kind: `"timeout"` or `"deadlock"`.
    pub kind: &'static str,
    /// Simulator cycle at which the group died.
    pub cycle: u64,
    /// Device diagnostics at the moment of death.
    pub diag: String,
}

/// One group dispatch: which jobs ran together, where and when.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupDispatch {
    /// Device index.
    pub gpu: u32,
    /// Dispatch cycle.
    pub start: u64,
    /// Cycle the device became free again (start + group makespan).
    pub end: u64,
    /// Member job ids, group order.
    pub jobs: Vec<JobId>,
    /// System throughput of this group: Σ alone/corun over members.
    pub stp: f64,
}

/// Nearest-rank percentile summary of a cycle-count sample set.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencyStats {
    /// 50th percentile (nearest-rank).
    pub p50: u64,
    /// 95th percentile (nearest-rank).
    pub p95: u64,
    /// 99th percentile (nearest-rank).
    pub p99: u64,
    /// Arithmetic mean.
    pub mean: f64,
    /// Maximum sample.
    pub max: u64,
}

impl LatencyStats {
    /// Summarizes `samples` (order irrelevant). All-zero for an empty
    /// set.
    pub fn from_samples(samples: &[u64]) -> LatencyStats {
        if samples.is_empty() {
            return LatencyStats::default();
        }
        let mut sorted = samples.to_vec();
        sorted.sort_unstable();
        let pct = |p: u64| -> u64 {
            // Nearest-rank: ceil(p/100 * n) as a 1-based rank.
            let rank = (p * sorted.len() as u64).div_ceil(100).max(1) as usize;
            sorted[rank - 1]
        };
        LatencyStats {
            p50: pct(50),
            p95: pct(95),
            p99: pct(99),
            mean: sorted.iter().sum::<u64>() as f64 / sorted.len() as f64,
            max: *sorted.last().expect("non-empty"),
        }
    }
}

/// Complete outcome of one scheduler run: per-job rows, dispatch log,
/// rejections, downgrades and derived metrics.
#[derive(Debug, Clone)]
pub struct SchedReport {
    /// Policy name ([`crate::Policy::name`]).
    pub policy: String,
    /// Simulated device count.
    pub num_gpus: u32,
    /// Admission-queue capacity.
    pub queue_capacity: usize,
    /// Completed jobs, ordered by id.
    pub jobs: Vec<JobOutcome>,
    /// Jobs turned away at admission, trace order.
    pub rejections: Vec<Rejection>,
    /// Jobs whose group died in simulation, dispatch order.
    pub failed: Vec<JobFailure>,
    /// Group dispatches in dispatch order (ties: device order).
    pub groups: Vec<GroupDispatch>,
    /// Downgrades recorded while planning.
    pub degradations: Vec<Degradation>,
    /// Cycle at which the last group finished (0 if nothing ran).
    pub makespan: u64,
}

impl SchedReport {
    /// Queueing-delay distribution over completed jobs.
    pub fn queue_delay_stats(&self) -> LatencyStats {
        let d: Vec<u64> = self.jobs.iter().map(JobOutcome::queue_delay).collect();
        LatencyStats::from_samples(&d)
    }

    /// Turnaround distribution over completed jobs.
    pub fn turnaround_stats(&self) -> LatencyStats {
        let d: Vec<u64> = self.jobs.iter().map(JobOutcome::turnaround).collect();
        LatencyStats::from_samples(&d)
    }

    /// System throughput: mean over dispatched groups of
    /// Σ alone/corun — the paper's STP metric applied per epoch group.
    /// 0 when nothing ran.
    pub fn stp(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        self.groups.iter().map(|g| g.stp).sum::<f64>() / self.groups.len() as f64
    }

    /// Average normalized turnaround time: mean over jobs of
    /// (completion − arrival) / alone_cycles. Unlike batch ANTT this
    /// includes queueing delay, which is the point of the online
    /// formulation. 0 when nothing ran.
    pub fn antt(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(JobOutcome::normalized_turnaround)
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Canonical JSON rendering: one line per job/group row, stable key
    /// order, floats in Rust's shortest-round-trip form. Byte-identical
    /// for identical runs (the determinism tests rely on this).
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.jobs.len() * 128);
        s.push_str("{\n  \"policy\": \"");
        push_str_escaped(&mut s, &self.policy);
        let _ = write!(
            s,
            "\",\n  \"num_gpus\": {},\n  \"queue_capacity\": {},\n  \"makespan\": {},\n  \"stp\": ",
            self.num_gpus, self.queue_capacity, self.makespan,
        );
        push_f64(&mut s, self.stp());
        s.push_str(",\n  \"antt\": ");
        push_f64(&mut s, self.antt());
        s.push_str(",\n  \"queue_delay\": ");
        push_latency(&mut s, &self.queue_delay_stats());
        s.push_str(",\n  \"turnaround\": ");
        push_latency(&mut s, &self.turnaround_stats());

        s.push_str(",\n  \"jobs\": [");
        for (i, j) in self.jobs.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"id\":{},\"bench\":\"{}\",\"arrival\":{},\"dispatch\":{},\"completion\":{},\"gpu\":{},\"alone_cycles\":{},\"corun_cycles\":{}}}",
                j.id, j.bench, j.arrival, j.dispatch, j.completion, j.gpu,
                j.alone_cycles, j.corun_cycles,
            );
        }
        s.push_str(if self.jobs.is_empty() { "],\n" } else { "\n  ],\n" });

        s.push_str("  \"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"gpu\":{},\"start\":{},\"end\":{},\"jobs\":[",
                g.gpu, g.start, g.end,
            );
            for (k, id) in g.jobs.iter().enumerate() {
                let _ = write!(s, "{}{id}", if k == 0 { "" } else { "," });
            }
            s.push_str("],\"stp\":");
            push_f64(&mut s, g.stp);
            s.push('}');
        }
        s.push_str(if self.groups.is_empty() { "],\n" } else { "\n  ],\n" });

        push_rejections(&mut s, &self.rejections);

        s.push_str("  \"failed\": [");
        for (i, x) in self.failed.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"id\":{},\"bench\":\"{}\",\"arrival\":{},\"dispatch\":{},\"kind\":\"{}\",\"cycle\":{},\"diag\":\"",
                x.id, x.bench, x.arrival, x.dispatch, x.kind, x.cycle,
            );
            push_str_escaped(&mut s, &x.diag);
            s.push_str("\"}");
        }
        s.push_str(if self.failed.is_empty() { "],\n" } else { "\n  ],\n" });

        push_degradations(&mut s, &self.degradations);
        s.push_str("}\n");
        s
    }
}

fn push_latency(s: &mut String, l: &LatencyStats) {
    let _ = write!(s, "{{\"p50\":{},\"p95\":{},\"p99\":{},\"mean\":", l.p50, l.p95, l.p99);
    push_f64(s, l.mean);
    let _ = write!(s, ",\"max\":{}}}", l.max);
}

/// The `"rejections": [...]` section (with its trailing comma), shared
/// with the fleet report.
pub fn push_rejections(s: &mut String, rejections: &[Rejection]) {
    s.push_str("  \"rejections\": [");
    for (i, r) in rejections.iter().enumerate() {
        s.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            s,
            "    {{\"job\":{},\"bench\":\"{}\",\"at\":{},\"capacity\":{}}}",
            r.job, r.bench, r.at, r.capacity,
        );
    }
    s.push_str(if rejections.is_empty() { "],\n" } else { "\n  ],\n" });
}

/// The closing `"degradations": [...]` section, shared with the fleet
/// report.
pub fn push_degradations(s: &mut String, degradations: &[Degradation]) {
    s.push_str("  \"degradations\": [");
    for (i, d) in degradations.iter().enumerate() {
        s.push_str(if i == 0 { "\n    \"" } else { ",\n    \"" });
        push_str_escaped(s, &d.to_string());
        s.push('"');
    }
    s.push_str(if degradations.is_empty() { "]\n" } else { "\n  ]\n" });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let samples: Vec<u64> = (1..=100).collect();
        let l = LatencyStats::from_samples(&samples);
        assert_eq!(l.p50, 50);
        assert_eq!(l.p95, 95);
        assert_eq!(l.p99, 99);
        assert_eq!(l.max, 100);
        assert!((l.mean - 50.5).abs() < 1e-12);

        // Tiny sets: every percentile is a real sample, never an
        // interpolation.
        let l = LatencyStats::from_samples(&[7]);
        assert_eq!((l.p50, l.p95, l.p99, l.max), (7, 7, 7, 7));
        let l = LatencyStats::from_samples(&[3, 9]);
        assert_eq!(l.p50, 3);
        assert_eq!(l.p99, 9);

        assert_eq!(LatencyStats::from_samples(&[]), LatencyStats::default());
    }

    #[test]
    fn job_outcome_derived_metrics() {
        let j = JobOutcome {
            id: 0,
            bench: Benchmark::Gups,
            arrival: 100,
            dispatch: 150,
            completion: 350,
            gpu: 0,
            alone_cycles: 125,
            corun_cycles: 200,
        };
        assert_eq!(j.queue_delay(), 50);
        assert_eq!(j.turnaround(), 250);
        assert!((j.normalized_turnaround() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_stable_and_complete() {
        let report = SchedReport {
            policy: "ilp".into(),
            num_gpus: 2,
            queue_capacity: 8,
            jobs: vec![JobOutcome {
                id: 0,
                bench: Benchmark::Gups,
                arrival: 0,
                dispatch: 0,
                completion: 10,
                gpu: 0,
                alone_cycles: 8,
                corun_cycles: 10,
            }],
            rejections: vec![Rejection {
                job: 1,
                bench: Benchmark::Hs,
                at: 5,
                capacity: 8,
            }],
            failed: vec![JobFailure {
                id: 2,
                bench: Benchmark::Blk,
                arrival: 3,
                dispatch: 4,
                kind: "timeout",
                cycle: 999,
                diag: "2/4 SMs enabled".into(),
            }],
            groups: vec![GroupDispatch {
                gpu: 0,
                start: 0,
                end: 12,
                jobs: vec![0],
                stp: 0.8,
            }],
            degradations: vec![Degradation::IlpGreedyFallback {
                reason: "node \"limit\"\n\u{1}".into(),
            }],
            makespan: 12,
        };
        let json = report.to_json();
        assert_eq!(json, report.to_json(), "rendering is deterministic");
        for needle in [
            "\"policy\": \"ilp\"",
            "\"num_gpus\": 2",
            "\"makespan\": 12",
            "\"bench\":\"GUPS\"",
            "\"at\":5",
            "\"stp\":0.8",
            "\\\"limit\\\"\\n\\u0001",
            "\"p99\":",
            "\"kind\":\"timeout\"",
            "\"diag\":\"2/4 SMs enabled\"",
        ] {
            assert!(json.contains(needle), "missing {needle} in:\n{json}");
        }
        // Empty report renders valid empty arrays, not dangling commas.
        let empty = SchedReport {
            policy: "fcfs".into(),
            num_gpus: 1,
            queue_capacity: 4,
            jobs: vec![],
            rejections: vec![],
            failed: vec![],
            groups: vec![],
            degradations: vec![],
            makespan: 0,
        };
        let j = empty.to_json();
        assert!(j.contains("\"jobs\": [],"));
        assert!(j.contains("\"failed\": [],"));
        assert!(j.contains("\"degradations\": []\n"));
        assert!((empty.stp() - 0.0).abs() < 1e-12);
        assert!((empty.antt() - 0.0).abs() < 1e-12);
    }
}
