//! `repro` — regenerates every table and figure of the thesis, and runs
//! the scheduler, fleet and trace tools, as subcommands of one binary
//! (`DESIGN.md` §4 indexes the figures):
//!
//! ```text
//! cargo build --release --bin repro
//! ./target/release/repro fig41_two_app [--profile]
//! ./target/release/repro                 # lists every subcommand
//! ```
//!
//! The `GCS_*` environment knobs (`env.rs`) apply to every subcommand.
//! A missing or unknown subcommand, an argument the subcommand does not
//! take, an unknown `GCS_*` name or a malformed `GCS_*` value each exit
//! with status 2 before any simulation runs.

#![forbid(unsafe_code)]

mod args;
mod env;
mod figures;
mod fleet;
mod harness;
mod sched;
mod trace;

use args::Args;

/// One subcommand: its name, the arguments it takes, a one-line
/// description and the function that runs it.
type Subcommand = (&'static str, &'static str, &'static str, fn(Args));

/// What every figure subcommand takes.
const PROFILE: &str = "[--profile]";

/// The subcommands, in the order the thesis presents their results.
#[rustfmt::skip]
const SUBCOMMANDS: &[Subcommand] = &[
    ("fig_table32", PROFILE, "Table 3.2: per-benchmark profile and class vs the paper",
        |a| figures::table32(a.profile_only())),
    ("fig12_utilization", PROFILE, "Fig 1.2: device utilization of each benchmark alone",
        |a| figures::fig12(a.profile_only())),
    ("fig34_interference", PROFILE, "Fig 3.4: class x class co-run slowdown",
        |a| figures::fig34(a.profile_only())),
    ("fig35_scalability", PROFILE, "Fig 3.5: IPC scalability with the SM count (normalized)",
        |a| figures::sm_grid(a.profile_only(), &figures::FIG35)),
    ("fig36_ipc_cores", PROFILE, "Fig 3.6: IPC of every benchmark at 10/15/20/30 cores",
        |a| figures::sm_grid(a.profile_only(), &figures::FIG36)),
    ("fig41_two_app", PROFILE, "Fig 4.1: serial vs FCFS vs ILP pairing, 14-app queue",
        |a| figures::fixed_queue(a.profile_only(), &figures::FIG41)),
    ("fig42_pair_cycles", PROFILE, "Fig 4.2: pair cycles vs serial, ILP and FCFS pairing",
        |a| figures::group_cycles(a.profile_only(), &figures::FIG42)),
    ("fig43_two_app_dist", PROFILE, "Fig 4.3: four methods x five queue distributions, NC = 2",
        |a| figures::distributions(a.profile_only(), &[figures::FIG43])),
    ("fig44_equal_perapp", PROFILE, "Fig 4.4: per-benchmark throughput, equal queue, NC = 2",
        |a| figures::per_bench_table(a.profile_only(), &figures::FIG44)),
    ("fig45_48_dense", PROFILE, "Figs 4.5-4.8: per-benchmark throughput, skewed queues",
        |a| figures::per_bench_table(a.profile_only(), &figures::FIG45_48)),
    ("fig49_three_app", PROFILE, "Fig 4.9: serial vs FCFS vs ILP grouping, 12-app queue, NC = 3",
        |a| figures::fixed_queue(a.profile_only(), &figures::FIG49)),
    ("fig410_group_cycles", PROFILE, "Fig 4.10: group cycles vs serial, NC = 3",
        |a| figures::group_cycles(a.profile_only(), &figures::FIG410)),
    ("fig411_three_app_dist", PROFILE, "Fig 4.11: four methods x five queue distributions, NC = 3",
        |a| figures::distributions(a.profile_only(), &[figures::FIG411])),
    ("fig412_three_perapp", PROFILE, "Fig 4.12: per-benchmark throughput, equal queue, NC = 3",
        |a| figures::per_bench_table(a.profile_only(), &figures::FIG412)),
    ("appendix_a", PROFILE, "Appendix A: the worked ILP example, paper and measured matrix",
        |a| figures::appendix_a(a.profile_only())),
    ("headline", PROFILE, "the +36 % / +23 % ILP-SMRA headline over Even",
        |a| figures::distributions(a.profile_only(), &figures::HEADLINE)),
    ("ablation", "", "GTO vs LRR warp and FR-FCFS vs FCFS memory scheduling",
        |a| { a.finish(); figures::ablation() }),
    ("schedd_sim", PROFILE, "online policies over seeded arrivals -> results/sched/",
        |a| sched::schedd_sim(a.profile_only())),
    ("schedd", "[--listen ADDR]", "the scheduler daemon over TCP (GCS_SCHED_* knobs)",
        sched::schedd),
    ("schedd_client", sched::CLIENT_SYNOPSIS, "drive a daemon session; diff it with batch",
        sched::schedd_client),
    ("fleet_sim", PROFILE, "heterogeneous fleet vs whole-device FCFS -> results/fleet/",
        |a| fleet::fleet_sim(a.profile_only())),
    ("trace_record", "BENCH OUT.trace [--json OUT.json]", "record a suite benchmark's trace",
        trace::record),
    ("trace_replay", "IN.trace", "profile a recorded trace through the sweep engine",
        trace::replay),
];

fn usage() -> ! {
    eprintln!("usage: repro <subcommand> [args]\n\nsubcommands:");
    for (name, _, help, _) in SUBCOMMANDS {
        eprintln!("  {name:<22} {help}");
    }
    std::process::exit(2)
}

fn main() {
    env::reject_unknown_names();
    let mut argv = std::env::args().skip(1);
    let name = argv.next().unwrap_or_default();
    let Some(&(name, synopsis, _, run)) = SUBCOMMANDS.iter().find(|s| s.0 == name) else {
        if !name.is_empty() {
            eprintln!("unknown subcommand {name:?}");
        }
        usage()
    };
    run(Args::new(name, synopsis, argv.collect()));
}
