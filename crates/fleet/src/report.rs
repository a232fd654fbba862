//! [`FleetReport`] — canonical, byte-stable JSON over a fleet run.
//!
//! Same rendering discipline as `gcs_sched`'s `SchedReport`: stable
//! key order, one line per row, floats in Rust's shortest-round-trip
//! form with a guaranteed decimal point. Identical runs render
//! byte-identically (the thread-count determinism pin in
//! `tests/fleet.rs` compares these strings with `==`), and the CI
//! fleet smoke re-runs and byte-diffs the committed artifacts.

use std::fmt::Write as _;

use gcs_core::Degradation;
use gcs_sched::report::{push_degradations, push_rejections};
use gcs_sched::{JobId, Rejection};
use gcs_sim::wire::{push_f64, push_str_escaped};
use gcs_workloads::Benchmark;

/// Per-device utilization row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetDevice {
    /// Device id from the [`FleetSpec`](crate::spec::FleetSpec).
    pub id: String,
    /// SM capacity.
    pub num_sms: u32,
    /// Groups this device ran.
    pub groups: u64,
    /// Cycles the device held a group (Σ group makespans).
    pub busy_cycles: u64,
}

/// One completed job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FleetJob {
    /// Trace-order id.
    pub id: JobId,
    /// Benchmark the job ran.
    pub bench: Benchmark,
    /// Device index the job ran on.
    pub device: usize,
    /// Arrival cycle.
    pub arrival: u64,
    /// Dispatch cycle.
    pub dispatch: u64,
    /// Completion cycle.
    pub completion: u64,
    /// SM budget the allocator granted.
    pub budget_sms: u32,
    /// Alone-run cycles on the job's device at full capacity — the
    /// STP/ANTT reference.
    pub alone_cycles: u64,
    /// Measured co-run cycles at the granted budget.
    pub corun_cycles: u64,
}

impl FleetJob {
    /// (completion − arrival) / alone — the ANTT contribution,
    /// queueing delay included.
    pub fn normalized_turnaround(&self) -> f64 {
        (self.completion - self.arrival) as f64 / self.alone_cycles.max(1) as f64
    }
}

/// One dispatched co-run group.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetGroup {
    /// Device index the group ran on.
    pub device: usize,
    /// Dispatch cycle.
    pub start: u64,
    /// Cycle the device freed (start + group makespan).
    pub end: u64,
    /// Member job ids, seeding order.
    pub jobs: Vec<JobId>,
    /// Σ alone/corun over members — the paper's per-group STP on this
    /// device.
    pub stp: f64,
}

/// Full record of one fleet run.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// `"fleet"` (marginal-gain budgeting) or `"fcfs"` (whole-device
    /// baseline).
    pub mode: String,
    /// Admission-queue bound in force.
    pub queue_capacity: usize,
    /// Per-device utilization rows, spec order.
    pub devices: Vec<FleetDevice>,
    /// Completed jobs, sorted by id.
    pub jobs: Vec<FleetJob>,
    /// Arrivals bounced off the full queue.
    pub rejections: Vec<Rejection>,
    /// Dispatched groups, dispatch order.
    pub groups: Vec<FleetGroup>,
    /// Downgrades taken while planning.
    pub degradations: Vec<Degradation>,
    /// Jobs whose (shadow-)planned device changed between consecutive
    /// allocation epochs.
    pub churn: u64,
    /// Cycle the last group ended.
    pub makespan: u64,
}

impl FleetReport {
    /// Cross-device system throughput: mean over dispatched groups of
    /// Σ alone/corun. The whole-device FCFS baseline scores exactly
    /// 1.0 per group, so "beats FCFS" means this exceeds 1.0.
    pub fn stp(&self) -> f64 {
        if self.groups.is_empty() {
            return 0.0;
        }
        self.groups.iter().map(|g| g.stp).sum::<f64>() / self.groups.len() as f64
    }

    /// Average normalized turnaround time across devices, queueing
    /// delay included. 0 when nothing ran.
    pub fn antt(&self) -> f64 {
        if self.jobs.is_empty() {
            return 0.0;
        }
        self.jobs
            .iter()
            .map(FleetJob::normalized_turnaround)
            .sum::<f64>()
            / self.jobs.len() as f64
    }

    /// Fraction of the run a device spent busy (0 when nothing ran).
    pub fn utilization(&self, device: usize) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        self.devices[device].busy_cycles as f64 / self.makespan as f64
    }

    /// Canonical JSON rendering; see the module docs.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(256 + self.jobs.len() * 160);
        s.push_str("{\n  \"mode\": \"");
        push_str_escaped(&mut s, &self.mode);
        let _ = write!(
            s,
            "\",\n  \"queue_capacity\": {},\n  \"makespan\": {},\n  \"stp\": ",
            self.queue_capacity, self.makespan,
        );
        push_f64(&mut s, self.stp());
        s.push_str(",\n  \"antt\": ");
        push_f64(&mut s, self.antt());
        let _ = write!(s, ",\n  \"churn\": {},\n", self.churn);

        s.push_str("  \"devices\": [");
        for (i, d) in self.devices.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            s.push_str("    {\"id\":\"");
            push_str_escaped(&mut s, &d.id);
            let _ = write!(
                s,
                "\",\"num_sms\":{},\"groups\":{},\"busy_cycles\":{},\"utilization\":",
                d.num_sms, d.groups, d.busy_cycles,
            );
            push_f64(&mut s, self.utilization(i));
            s.push('}');
        }
        s.push_str(if self.devices.is_empty() { "],\n" } else { "\n  ],\n" });

        s.push_str("  \"jobs\": [");
        for (i, j) in self.jobs.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"id\":{},\"bench\":\"{}\",\"device\":{},\"arrival\":{},\"dispatch\":{},\"completion\":{},\"budget_sms\":{},\"alone_cycles\":{},\"corun_cycles\":{}}}",
                j.id, j.bench, j.device, j.arrival, j.dispatch, j.completion,
                j.budget_sms, j.alone_cycles, j.corun_cycles,
            );
        }
        s.push_str(if self.jobs.is_empty() { "],\n" } else { "\n  ],\n" });

        s.push_str("  \"groups\": [");
        for (i, g) in self.groups.iter().enumerate() {
            s.push_str(if i == 0 { "\n" } else { ",\n" });
            let _ = write!(
                s,
                "    {{\"device\":{},\"start\":{},\"end\":{},\"jobs\":[",
                g.device, g.start, g.end,
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
        push_degradations(&mut s, &self.degradations);
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report() -> FleetReport {
        FleetReport {
            mode: "fleet".into(),
            queue_capacity: 4,
            devices: vec![
                FleetDevice { id: "gpu0".into(), num_sms: 8, groups: 1, busy_cycles: 50 },
                FleetDevice { id: "gpu1".into(), num_sms: 15, groups: 0, busy_cycles: 0 },
            ],
            jobs: vec![FleetJob {
                id: 0,
                bench: Benchmark::Gups,
                device: 0,
                arrival: 0,
                dispatch: 10,
                completion: 60,
                budget_sms: 5,
                alone_cycles: 40,
                corun_cycles: 50,
            }],
            rejections: vec![],
            groups: vec![FleetGroup {
                device: 0,
                start: 10,
                end: 60,
                jobs: vec![0],
                stp: 0.8,
            }],
            degradations: vec![],
            churn: 2,
            makespan: 100,
        }
    }

    #[test]
    fn metrics_follow_the_paper_shapes() {
        let r = report();
        assert!((r.stp() - 0.8).abs() < 1e-12);
        assert!((r.antt() - 1.5).abs() < 1e-12);
        assert!((r.utilization(0) - 0.5).abs() < 1e-12);
        assert_eq!(r.utilization(1), 0.0);
    }

    #[test]
    fn json_is_canonical_and_stable() {
        let r = report();
        let j = r.to_json();
        assert_eq!(j, r.clone().to_json(), "deterministic rendering");
        assert!(j.starts_with("{\n  \"mode\": \"fleet\",\n"));
        assert!(j.contains("\"utilization\":0.5"));
        assert!(j.contains("\"budget_sms\":5"));
        assert!(j.contains("\"rejections\": []"));
        assert!(j.ends_with("\"degradations\": []\n}\n"));
        // Floats always carry a decimal point.
        assert!(j.contains("\"stp\": 0.8"));
        assert!(j.contains("\"antt\": 1.5"));
        // Ids are escaped with the full set, control characters included.
        let mut hostile = r;
        hostile.devices[1].id = "g\u{1}pu\n\"1\\".into();
        assert!(hostile.to_json().contains(r#"{"id":"g\u0001pu\n\"1\\","num_sms":15,"#));
    }

    #[test]
    fn empty_report_renders_empty_arrays() {
        let r = FleetReport {
            mode: "fleet".into(),
            queue_capacity: 1,
            devices: vec![],
            jobs: vec![],
            rejections: vec![],
            groups: vec![],
            degradations: vec![],
            churn: 0,
            makespan: 0,
        };
        let j = r.to_json();
        assert!(j.contains("\"devices\": [],\n"));
        assert!(j.contains("\"jobs\": [],\n"));
        assert_eq!(r.stp(), 0.0);
        assert_eq!(r.antt(), 0.0);
    }
}
