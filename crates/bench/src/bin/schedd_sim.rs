//! schedd_sim — online scheduler policy comparison over seeded arrival
//! traces (DESIGN.md §10).
//!
//! Feeds Poisson arrivals of the thesis mix (the 14-app suite census,
//! repeated for longer queues) through the `gcs_sched` discrete-event
//! loop under all three epoch policies, on one simulated GTX 480, and
//! reports throughput (STP), fairness (ANTT) and queueing-latency
//! percentiles per policy. The offered load is set well above the
//! device's service rate so a real backlog forms — that is the regime
//! where grouping quality matters; at low load every policy degenerates
//! to "run whatever arrived".
//!
//! Writes one `SchedReport` JSON per (queue length, policy) plus a
//! summary document with FCFS→ILP deltas to `results/sched/`:
//!
//! ```text
//! results/sched/sched_{scale}_q{len}_{policy}.json
//! results/sched/summary_{scale}.json
//! ```
//!
//! Scale comes from `GCS_SCALE` as usual; the committed results are the
//! SMALL-scale run, while `scripts/ci.sh --sched-smoke` replays a TEST
//! scale pass (those files are gitignored).

use std::fs;

use gcs_bench::{build_pipeline, report_profile, header, scale_from_env};
use gcs_core::queues::thesis_queue_14;
use gcs_core::runner::AllocationPolicy;
use gcs_sched::{LatencyStats, OnlineScheduler, PolicyKind, SchedConfig, SchedReport};
use gcs_workloads::{ArrivalTrace, Benchmark};

const SEED: u64 = 42;

/// File-name tag for the active scale (`Scale`'s Debug form is a
/// struct, not a name).
fn scale_tag(scale: gcs_workloads::Scale) -> &'static str {
    if scale == gcs_workloads::Scale::FULL {
        "full"
    } else if scale == gcs_workloads::Scale::TEST {
        "test"
    } else {
        "small"
    }
}

fn f64_json(v: f64) -> String {
    let mut s = String::new();
    gcs_sim::wire::push_f64(&mut s, v);
    s
}

fn latency_json(l: &LatencyStats) -> String {
    format!(
        "{{\"p50\": {}, \"p95\": {}, \"p99\": {}, \"mean\": {}, \"max\": {}}}",
        l.p50,
        l.p95,
        l.p99,
        f64_json(l.mean),
        l.max
    )
}

fn main() {
    let scale = scale_from_env();
    let scale_tag = scale_tag(scale);
    let mut pipeline = build_pipeline(2);
    fs::create_dir_all("results/sched").expect("create results/sched");

    // Offered load: one job every mean_alone/4 cycles against a device
    // that serves roughly one job per 0.6 * mean_alone cycles — ~2.4x
    // oversubscribed, so the admission queue holds a meaningful census
    // at every epoch.
    let mean_alone: f64 = Benchmark::ALL
        .iter()
        .map(|&b| pipeline.profile(b).cycles as f64)
        .sum::<f64>()
        / Benchmark::ALL.len() as f64;
    let mean_gap = mean_alone / 4.0;

    header("schedd_sim: online policy comparison, thesis mix");
    println!(
        "scale {scale:?}; seed {SEED}; 1 device; SMRA allocation; mean inter-arrival {:.0} cycles",
        mean_gap
    );

    let mut summary_configs: Vec<String> = Vec::new();
    for repeats in [1usize, 2] {
        let mut queue: Vec<Benchmark> = Vec::new();
        for _ in 0..repeats {
            queue.extend(thesis_queue_14());
        }
        let len = queue.len();
        let trace = ArrivalTrace::poisson_from_queue(&queue, mean_gap, SEED);

        header(&format!("queue length {len} (thesis mix x{repeats})"));
        println!(
            "{:<8} {:>12} {:>8} {:>8} {:>12} {:>12} {:>12}",
            "policy", "makespan", "STP", "ANTT", "p50 delay", "p95 delay", "p99 delay"
        );

        let mut reports: Vec<(PolicyKind, SchedReport)> = Vec::new();
        for kind in PolicyKind::ALL {
            let cfg = SchedConfig {
                num_gpus: 1,
                queue_capacity: len,
                alloc: AllocationPolicy::Smra,
                replan_interval: None,
            };
            let mut policy = kind.build();
            let report = OnlineScheduler::new(&mut pipeline, cfg)
                .expect("config")
                .run(&trace, policy.as_mut())
                .expect("scheduler run");
            let delay = report.queue_delay_stats();
            println!(
                "{:<8} {:>12} {:>8.3} {:>8.3} {:>12} {:>12} {:>12}",
                report.policy,
                report.makespan,
                report.stp(),
                report.antt(),
                delay.p50,
                delay.p95,
                delay.p99
            );
            let path = format!("results/sched/sched_{scale_tag}_q{len}_{}.json", kind.name());
            fs::write(&path, report.to_json()).expect("write report");
            reports.push((kind, report));
        }

        let fcfs = &reports[0].1;
        let ilp = &reports[2].1;
        let (fd, id) = (fcfs.queue_delay_stats(), ilp.queue_delay_stats());
        println!(
            "ilp vs fcfs: STP {:+.3}, p50 {:+}, p95 {:+}, p99 {:+} cycles",
            ilp.stp() - fcfs.stp(),
            id.p50 as i64 - fd.p50 as i64,
            id.p95 as i64 - fd.p95 as i64,
            id.p99 as i64 - fd.p99 as i64,
        );

        let policy_entries: Vec<String> = reports
            .iter()
            .map(|(kind, r)| {
                format!(
                    "      \"{}\": {{\"stp\": {}, \"antt\": {}, \"makespan\": {}, \"queue_delay\": {}}}",
                    kind.name(),
                    f64_json(r.stp()),
                    f64_json(r.antt()),
                    r.makespan,
                    latency_json(&r.queue_delay_stats()),
                )
            })
            .collect();
        summary_configs.push(format!(
            "    {{\n      \"queue_len\": {len},\n{},\n      \"ilp_vs_fcfs\": {{\"stp_delta\": {}, \"p50_delay_delta\": {}, \"p95_delay_delta\": {}, \"p99_delay_delta\": {}}}\n    }}",
            policy_entries.join(",\n"),
            f64_json(ilp.stp() - fcfs.stp()),
            id.p50 as i64 - fd.p50 as i64,
            id.p95 as i64 - fd.p95 as i64,
            id.p99 as i64 - fd.p99 as i64,
        ));
    }

    let summary = format!
        (
        "{{\n  \"scale\": \"{scale_tag}\",\n  \"seed\": {SEED},\n  \"device\": \"gtx480 x1, SMRA, concurrency 2\",\n  \"configs\": [\n{}\n  ]\n}}\n",
        summary_configs.join(",\n")
    );
    let summary_path = format!("results/sched/summary_{scale_tag}.json");
    fs::write(&summary_path, summary).expect("write summary");
    println!("\nwrote results/sched/sched_{scale_tag}_q*.json and {summary_path}");

    report_profile(&pipeline);
}
