//! The thesis' tables and figures. Figures that differ only in data —
//! the concurrency, the queue, the titles and the paper's reference
//! numbers — share one function per family and one data row each.
//!
//! Expected shapes, per figure:
//!
//! * Fig 1.2: a wide spread of alone-run utilization, several benchmarks
//!   well under 50 % — the headroom that motivates co-execution.
//! * Fig 3.4 (§3.2.2): class M slows every class down the most (FR-FCFS
//!   keeps prioritizing the streaming apps' row hits), an MC app
//!   suffers more from M than M does from it, and A-A interferes least.
//! * Fig 3.5: LUD flat (12-block grid), HS near-ideal, LPS saturating,
//!   FFT saturating then degrading (its per-block tiles spill the shared
//!   L2 as more blocks become resident), GUPS flat-to-falling
//!   (bandwidth-saturated at every core count), BFS2 rising but far
//!   below ideal. The thesis charts 10 → 30 SMs; we also print 60.
//! * Figs 4.1 and 4.9: ILP ≈ +21 % over FCFS and > +80 % over serial
//!   for pairs; ≈ +45 % over FCFS and ≈ 2× serial for triples.
//! * Figs 4.2 and 4.10: 5 of 7 ILP pairs finish in under 50 % of their
//!   serial time (FCFS: 2 of 7); 3 of 4 ILP triples under 40 % (FCFS:
//!   1 of 4).
//! * Figs 4.3 and 4.11 and the headline: ILP-SMRA +36 % over Even on
//!   average for pairs (ILP alone +19 %), +23 % for triples. FCFS-style
//!   baselines are sensitive to arrival order, so Fig 4.3 averages
//!   three arrival-order seeds per cell.
//! * Figs 4.5–4.8: M-oriented queues gain most from ILP matching
//!   (+32.5 % vs Even), C-oriented queues from SMRA (+29 %);
//!   MC-oriented queues are roughly policy-neutral.

use std::collections::BTreeMap;

use gcs_core::classify::{classify_suite, AppClass};
use gcs_core::ilp::{solve_grouping, solve_with_e, PAPER_APPENDIX_E};
use gcs_core::interference::InterferenceMatrix;
use gcs_core::pattern::enumerate_patterns;
use gcs_core::queues::{
    queue_with_distribution, queue_with_distribution_seeded, thesis_queue_14, Distribution,
};
use gcs_core::runner::{AllocationPolicy, GroupingPolicy};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::sched::WarpSchedPolicy;
use gcs_workloads::{Benchmark, PAPER_PROFILES};

use crate::env::scale_from_env;
use crate::harness::{build_pipeline, engine, header, pct, per_bench, queue_12, report_profile};

/// The four compared methods of Figs 4.3–4.8, 4.11 and 4.12, Even (the
/// baseline every ratio divides by) first: Even, Profile-based \[17\],
/// ILP, ILP-SMRA.
const METHODS: [(GroupingPolicy, AllocationPolicy); 4] = [
    (GroupingPolicy::Fcfs, AllocationPolicy::Even),
    (GroupingPolicy::Fcfs, AllocationPolicy::ProfileBased),
    (GroupingPolicy::Ilp, AllocationPolicy::Even),
    (GroupingPolicy::Ilp, AllocationPolicy::Smra),
];

/// **Table 3.2**: per-benchmark profile (memory bandwidth, L2→L1
/// bandwidth, IPC, R) and class, next to the thesis' reference values.
pub fn table32(profile: bool) {
    let cfg = GpuConfig::gtx480();
    let engine = engine(profile);

    header("Table 3.2 — classification of Rodinia benchmarks (measured vs paper)");
    let profiles = engine
        .profile_suite(&cfg, scale_from_env(), &Benchmark::ALL)
        .unwrap_or_else(|e| panic!("profiling failed: {e}"));
    println!("[setup] {}", engine.stats());
    let (thresholds, classes) = classify_suite(&cfg, &profiles);

    println!(
        "{:>6} | {:>8} {:>8} {:>8} {:>6} {:>5} | {:>8} {:>8} {:>8} {:>6} {:>5} | match",
        "bench", "MB", "L2->L1", "IPC", "R", "class", "MB*", "L2->L1*", "IPC*", "R*", "cls*"
    );
    let mut class_matches = 0;
    for ((b, p), c) in Benchmark::ALL.iter().zip(&profiles).zip(&classes) {
        let paper = PAPER_PROFILES
            .iter()
            .find(|r| r.bench == *b)
            .expect("paper row");
        let want = AppClass::from_label(&paper.class.to_string()).expect("class letter");
        let ok = *c == want;
        class_matches += u32::from(ok);
        println!(
            "{:>6} | {:>8.1} {:>8.1} {:>8.1} {:>6.2} {:>5} | {:>8.1} {:>8.1} {:>8.1} {:>6.2} {:>5} | {}",
            b.name(),
            p.memory_bw,
            p.l2_l1_bw,
            p.ipc,
            p.r,
            c.label(),
            paper.memory_bw,
            paper.l2_l1_bw,
            paper.ipc,
            paper.r,
            want.label(),
            if ok { "yes" } else { "NO" },
        );
    }
    println!(
        "\nthresholds: alpha = {:.1} GB/s, beta = {:.1} GB/s, gamma = {:.1} GB/s, epsilon = {:.1} IPC",
        thresholds.alpha, thresholds.beta, thresholds.gamma, thresholds.epsilon
    );
    println!("classes matching the paper: {class_matches}/14");
    report_profile(&engine.stats(), profile);
}

/// **Fig 1.2**: maximum device utilization of each benchmark running
/// alone on the full device (IPC over peak thread IPC).
pub fn fig12(profile: bool) {
    let engine = engine(profile);

    header("Fig 1.2 — max utilization of Rodinia benchmarks");
    let profiles = engine
        .profile_suite(&GpuConfig::gtx480(), scale_from_env(), &Benchmark::ALL)
        .expect("profiling");
    println!("[setup] {}", engine.stats());
    println!("{:>6} {:>8} {:>10}", "bench", "util", "bar");
    let mut below_half = 0;
    for (b, p) in Benchmark::ALL.iter().zip(&profiles) {
        let pctg = p.utilization * 100.0;
        if pctg < 50.0 {
            below_half += 1;
        }
        println!(
            "{:>6} {:>7.1}% {}",
            b.name(),
            pctg,
            "#".repeat((pctg / 2.0).round() as usize)
        );
    }
    println!("\nbenchmarks under 50% utilization: {below_half}/14");
    println!("(the thesis' motivation: most apps leave the device underused)");
    report_profile(&engine.stats(), profile);
}

/// **Fig 3.4**: average per-class slowdown under pairwise co-execution
/// (even SM split) relative to running alone on the whole device.
pub fn fig34(profile: bool) {
    let engine = engine(profile);

    header("Fig 3.4 — average application slowdown due to co-execution");
    let m = InterferenceMatrix::measure_full_with(&engine, &GpuConfig::gtx480(), scale_from_env())
        .expect("interference measurement");
    println!("[setup] {}", engine.stats());
    print!("{m}");

    let col_avg = |a: AppClass| -> f64 {
        AppClass::ALL.iter().map(|&v| m.slowdown(v, a)).sum::<f64>() / 4.0
    };
    let yes_no = |ok: bool| if ok { "yes" } else { "NO" };
    println!("\naverage slowdown imposed by each aggressor class:");
    for a in AppClass::ALL {
        println!("  {:>2}: {:.2}x", a.label(), col_avg(a));
    }
    println!("\npaper shape checks:");
    println!(
        "  M imposes the largest average slowdown: {}",
        yes_no(AppClass::ALL.iter().all(|&c| col_avg(AppClass::M) >= col_avg(c)))
    );
    // §3.2.2: "when class M applications are executed along with class
    // MC applications ... class MC applications suffer more than class
    // M applications" — i.e. within the M+MC pair.
    println!(
        "  in an M+MC pair, MC suffers more:       {}",
        yes_no(m.slowdown(AppClass::Mc, AppClass::M) > m.slowdown(AppClass::M, AppClass::Mc))
    );
    println!(
        "  A-A is the gentlest pairing:            {}",
        yes_no(
            AppClass::ALL
                .iter()
                .all(|&c| m.slowdown(AppClass::A, AppClass::A) <= m.slowdown(AppClass::A, c))
        )
    );
    report_profile(&engine.stats(), profile);
}

/// An IPC grid over benchmarks × SM counts (Figs 3.5 and 3.6).
pub struct SmGrid {
    title: &'static str,
    benches: &'static [Benchmark],
    counts: &'static [u32],
    /// Fig 3.5 divides each curve by its first point and adds the ideal
    /// line; Fig 3.6 prints absolute thread IPC.
    normalized: bool,
}

/// **Fig 3.5**: normalized IPC scalability of the distinctive benchmarks.
pub const FIG35: SmGrid = SmGrid {
    title: "Fig 3.5 — scalability trends (IPC normalized to the 10-SM point)",
    benches: &[
        Benchmark::Bfs2,
        Benchmark::Lud,
        Benchmark::Fft,
        Benchmark::Lps,
        Benchmark::Gups,
        Benchmark::Hs,
    ],
    counts: &[10, 15, 20, 25, 30, 60],
    normalized: true,
};

/// **Fig 3.6**: absolute IPC of every benchmark at 10/15/20/30 cores.
pub const FIG36: SmGrid = SmGrid {
    title: "Fig 3.6 — IPC of benchmarks with different numbers of cores",
    benches: &Benchmark::ALL,
    counts: &[10, 15, 20, 30],
    normalized: false,
};

pub fn sm_grid(profile: bool, grid: &SmGrid) {
    let cfg = GpuConfig::gtx480();
    let scale = scale_from_env();
    let engine = engine(profile);
    let counts = grid.counts;

    header(grid.title);
    // Every (benchmark, SM count) point is an independent simulation:
    // fan the whole grid out at once instead of one curve at a time.
    let points = engine
        .run_parallel(grid.benches.len() * counts.len(), |i| {
            let (b, n) = (grid.benches[i / counts.len()], counts[i % counts.len()]);
            engine.profile(&cfg, scale, b, n).map(|p| p.ipc)
        })
        .expect("scalability profiling");
    println!("[setup] {}", engine.stats());
    let (width, precision, unit) = if grid.normalized { (7, 2, "SM") } else { (9, 1, "cores") };
    print!("{:>6}", "bench");
    for c in counts {
        print!(" {:>width$}", format!("{c} {unit}"));
    }
    println!("{}", if grid.normalized { "" } else { "  (thread IPC)" });
    for (b, curve) in grid.benches.iter().zip(points.chunks(counts.len())) {
        let base = if grid.normalized { curve[0].max(1e-9) } else { 1.0 };
        print!("{:>6}", b.name());
        for ipc in curve {
            print!(" {:>width$.precision$}", ipc / base);
        }
        println!();
    }
    if grid.normalized {
        print!("{:>6}", "ideal");
        for &c in counts {
            print!(" {:>7.2}", f64::from(c) / f64::from(counts[0]));
        }
        println!();
    }
    report_profile(&engine.stats(), profile);
}

/// Serial vs FCFS vs ILP grouping of one fixed queue, even SM split
/// inside groups, normalized to serial (Figs 4.1 and 4.9).
pub struct FixedQueue {
    nc: u32,
    queue: fn() -> Vec<Benchmark>,
    title: &'static str,
    /// The ILP-vs-FCFS and ILP-vs-serial lines: the text before the
    /// measured delta and the paper's value after it.
    vs_fcfs: (&'static str, &'static str),
    vs_serial: (&'static str, &'static str),
}

/// **Fig 4.1**: the 14-application queue, pairs.
pub const FIG41: FixedQueue = FixedQueue {
    nc: 2,
    queue: thesis_queue_14,
    title: "Fig 4.1 — two-application execution, 14-app queue",
    vs_fcfs: ("ILP vs FCFS: ", "   (paper: +21%)"),
    vs_serial: ("ILP vs serial: ", " (paper: >+80%)"),
};

/// **Fig 4.9**: the 12-application queue, triples.
pub const FIG49: FixedQueue = FixedQueue {
    nc: 3,
    queue: queue_12,
    title: "Fig 4.9 — three-application execution, 12-app queue",
    vs_fcfs: ("ILP vs FCFS:   ", " (paper: +45%)"),
    vs_serial: ("ILP vs serial: ", " (paper: ~2x)"),
};

pub fn fixed_queue(profile: bool, fig: &FixedQueue) {
    let mut pipeline = build_pipeline(fig.nc, profile);
    let queue = (fig.queue)();

    header(fig.title);
    let [serial, fcfs, ilp] = [GroupingPolicy::Serial, GroupingPolicy::Fcfs, GroupingPolicy::Ilp]
        .map(|g| {
            pipeline
                .run_queue(&queue, g, AllocationPolicy::Even)
                .expect("queue run")
                .device_throughput
        });
    println!("{:>8} {:>14} {:>12}", "method", "throughput", "vs serial");
    for (name, t) in [("Serial", serial), ("FCFS", fcfs), ("ILP", ilp)] {
        println!("{:>8} {:>14.1} {:>12}", name, t, pct(t / serial));
    }
    let (label, paper) = fig.vs_fcfs;
    println!("\n{label}{}{paper}", pct(ilp / fcfs));
    let (label, paper) = fig.vs_serial;
    println!("{label}{}{paper}", pct(ilp / serial));

    report_profile(&pipeline.sweep_stats(), profile);
}

/// Cycles each ILP and FCFS group takes, normalized to the sum of its
/// members' serial times (Figs 4.2 and 4.10).
pub struct GroupCycles {
    nc: u32,
    queue: fn() -> Vec<Benchmark>,
    /// Section titles: `"{title} ({policy:?} {grouping})"`.
    title: &'static str,
    grouping: &'static str,
    name_width: usize,
    /// What a group is called in the summary line.
    unit: &'static str,
    /// The fraction of serial time a group is counted as finishing under.
    under: f64,
    paper: &'static str,
}

/// **Fig 4.2**: the pairs of the 14-application queue.
pub const FIG42: GroupCycles = GroupCycles {
    nc: 2,
    queue: thesis_queue_14,
    title: "Fig 4.2 — pair cycles vs serial",
    grouping: "pairing",
    name_width: 12,
    unit: "pairs",
    under: 0.5,
    paper: "ILP 5/7 pairs under 50%, FCFS 2/7",
};

/// **Fig 4.10**: the triples of the 12-application queue.
pub const FIG410: GroupCycles = GroupCycles {
    nc: 3,
    queue: queue_12,
    title: "Fig 4.10 — group cycles vs serial",
    grouping: "grouping, NC = 3",
    name_width: 16,
    unit: "groups",
    under: 0.4,
    paper: "ILP 3/4 groups under 40%, FCFS 1/4",
};

pub fn group_cycles(profile: bool, fig: &GroupCycles) {
    let mut pipeline = build_pipeline(fig.nc, profile);
    let queue = (fig.queue)();

    // Serial time per benchmark (alone on the full device).
    let serial = pipeline
        .run_queue(&queue, GroupingPolicy::Serial, AllocationPolicy::Even)
        .expect("serial run");
    let alone: BTreeMap<Benchmark, u64> =
        serial.groups.iter().map(|g| (g.apps[0].bench, g.makespan)).collect();

    for policy in [GroupingPolicy::Ilp, GroupingPolicy::Fcfs] {
        header(&format!("{} ({policy:?} {})", fig.title, fig.grouping));
        let report = pipeline
            .run_queue(&queue, policy, AllocationPolicy::Even)
            .expect("queue run");
        let (mut under, mut full) = (0, 0);
        for g in &report.groups {
            let serial_sum: u64 = g.apps.iter().map(|a| alone[&a.bench]).sum();
            let ratio = g.makespan as f64 / serial_sum as f64;
            let names: Vec<&str> = g.apps.iter().map(|a| a.bench.name()).collect();
            println!("{:>w$}: {:.2} of serial", names.join("-"), ratio, w = fig.name_width);
            if g.apps.len() == fig.nc as usize {
                full += 1;
                if ratio < fig.under {
                    under += 1;
                }
            }
        }
        println!("{} under {:.0}% of serial: {under}/{full}", fig.unit, fig.under * 100.0);
    }
    println!("\npaper: {}", fig.paper);

    report_profile(&pipeline.sweep_stats(), profile);
}

/// Device throughput of the compared methods across the five queue
/// distributions, normalized to Even per distribution (Figs 4.3 and
/// 4.11, and the headline).
pub struct Distributions {
    nc: u32,
    len: u32,
    /// Arrival-order seeds each cell averages over.
    seeds: &'static [u64],
    title: &'static str,
    /// The full four-method table (the figures), or only ILP-SMRA
    /// against Even (the headline).
    table: bool,
    /// The paper's average gain over Even of ILP and of ILP-SMRA, where
    /// it states one.
    paper: [Option<&'static str>; 2],
}

/// **Fig 4.3**: 20-app queues, pairs.
pub const FIG43: Distributions = Distributions {
    nc: 2,
    len: 20,
    seeds: &[0, 1, 2],
    title: "Fig 4.3 — two-application execution across queue distributions",
    table: true,
    paper: [Some("+19%"), Some("+36%")],
};

/// **Fig 4.11**: 21-app queues (divisible by 3, mirroring the 20-app
/// pair queues), triples.
pub const FIG411: Distributions = Distributions {
    nc: 3,
    len: 21,
    seeds: &[0],
    title: "Fig 4.11 — three-application execution across queue distributions",
    table: true,
    paper: [None, Some("+23%")],
};

/// The thesis' **headline numbers** (abstract and §5): ILP-SMRA over
/// Even, averaged across the five distributions, for pairs and triples.
pub const HEADLINE: [Distributions; 2] = [
    Distributions {
        nc: 2,
        len: 20,
        seeds: &[0],
        title: "headline — 2 concurrent applications",
        table: false,
        paper: [None, Some("+36%")],
    },
    Distributions {
        nc: 3,
        len: 21,
        seeds: &[0],
        title: "headline — 3 concurrent applications",
        table: false,
        paper: [None, Some("+23%")],
    },
];

pub fn distributions(profile: bool, figs: &[Distributions]) {
    for fig in figs {
        let mut pipeline = build_pipeline(fig.nc, profile);
        header(fig.title);
        let methods: &[_] = if fig.table {
            println!(
                "{:>12} {:>8} {:>14} {:>10} {:>10}",
                "queue", "Even", "Profile-based", "ILP", "ILP-SMRA"
            );
            &METHODS
        } else {
            &[METHODS[0], METHODS[3]]
        };
        // gains[d][m]: method m over Even on distribution d, seed mean.
        let mut gains: Vec<Vec<f64>> = Vec::new();
        for dist in Distribution::ALL {
            let mut acc = vec![0.0; methods.len()];
            for &seed in fig.seeds {
                let queue = queue_with_distribution_seeded(dist, fig.len, seed);
                let runs: Vec<f64> = methods
                    .iter()
                    .map(|&(g, a)| {
                        pipeline.run_queue(&queue, g, a).expect("queue run").device_throughput
                    })
                    .collect();
                for (acc, t) in acc.iter_mut().zip(&runs) {
                    *acc += t / runs[0];
                }
            }
            let rel: Vec<f64> = acc.iter().map(|a| a / fig.seeds.len() as f64).collect();
            if fig.table {
                println!(
                    "{:>12} {:>8.2} {:>14.2} {:>10.2} {:>10.2}",
                    dist.label(),
                    1.0,
                    rel[1],
                    rel[2],
                    rel[3],
                );
            } else {
                println!("  {:>12}: ILP-SMRA vs Even {}", dist.label(), pct(rel[1]));
            }
            gains.push(rel);
        }
        let avg = |m: usize| gains.iter().map(|g| g[m]).sum::<f64>() / gains.len() as f64;
        let paper = |p: Option<&str>| p.map(|p| format!(" (paper: {p})")).unwrap_or_default();
        if fig.table {
            println!("\nILP average gain over Even:      {}{}", pct(avg(2)), paper(fig.paper[0]));
            println!("ILP-SMRA average gain over Even: {}{}", pct(avg(3)), paper(fig.paper[1]));
        } else {
            println!("  average: {}{}", pct(avg(1)), paper(fig.paper[1]));
        }
        report_profile(&pipeline.sweep_stats(), profile);
    }
}

/// Per-benchmark average IPC under the four methods, normalized per
/// benchmark to Even (Figs 4.4–4.8 and 4.12).
pub struct PerBenchTable {
    nc: u32,
    len: u32,
    /// One table per (title, queue distribution).
    panels: &'static [(&'static str, Distribution)],
    /// Whether each table ends with the methods' device-throughput gains.
    device_line: bool,
}

/// **Fig 4.4**: the equal-distribution queue, pairs.
pub const FIG44: PerBenchTable = PerBenchTable {
    nc: 2,
    len: 20,
    panels: &[(
        "Fig 4.4 — per-benchmark throughput, equal distribution (normalized to Even)",
        Distribution::Equal,
    )],
    device_line: false,
};

/// **Figs 4.5–4.8**: the four skewed queues, pairs.
pub const FIG45_48: PerBenchTable = PerBenchTable {
    nc: 2,
    len: 20,
    panels: &[
        (
            "Fig 4.5 — per-benchmark throughput, A-oriented queue (normalized to Even)",
            Distribution::AHeavy,
        ),
        (
            "Fig 4.6 — per-benchmark throughput, M-oriented queue (normalized to Even)",
            Distribution::MHeavy,
        ),
        (
            "Fig 4.7 — per-benchmark throughput, MC-oriented queue (normalized to Even)",
            Distribution::McHeavy,
        ),
        (
            "Fig 4.8 — per-benchmark throughput, C-oriented queue (normalized to Even)",
            Distribution::CHeavy,
        ),
    ],
    device_line: true,
};

/// **Fig 4.12**: the equal-distribution queue, triples.
pub const FIG412: PerBenchTable = PerBenchTable {
    nc: 3,
    len: 21,
    panels: &[(
        "Fig 4.12 — per-benchmark throughput, NC = 3 (normalized to Even)",
        Distribution::Equal,
    )],
    device_line: false,
};

pub fn per_bench_table(profile: bool, fig: &PerBenchTable) {
    let mut pipeline = build_pipeline(fig.nc, profile);
    for &(title, dist) in fig.panels {
        let queue = queue_with_distribution(dist, fig.len);
        let reports = METHODS
            .map(|(g, a)| pipeline.run_queue(&queue, g, a).expect("queue run"));

        header(title);
        let [e, p, i, s] = reports.each_ref().map(per_bench);
        println!(
            "{:>6} {:>8} {:>14} {:>8} {:>10}",
            "bench", "Even", "Profile-based", "ILP", "ILP-SMRA"
        );
        for (b, base) in &e {
            let rel = |m: &BTreeMap<Benchmark, f64>| {
                m.get(b).copied().unwrap_or(0.0) / base.max(1e-9)
            };
            println!(
                "{:>6} {:>8.2} {:>14.2} {:>8.2} {:>10.2}",
                b.name(),
                1.0,
                rel(&p),
                rel(&i),
                rel(&s),
            );
        }
        if fig.device_line {
            let gain = |m: usize| pct(reports[m].device_throughput / reports[0].device_throughput);
            println!("device: Profile {}  ILP {}  ILP-SMRA {}", gain(1), gain(2), gain(3));
        }
    }

    report_profile(&pipeline.sweep_stats(), profile);
}

/// Reproduces **Appendix A**: the worked ILP example with the thesis'
/// own e-coefficients — queue of 14 (2 M, 5 MC, 2 C, 5 A), NC = 2 —
/// checks the solution vector of Eq. 5.7, then re-solves with the
/// interference matrix *measured* on our simulator.
pub fn appendix_a(profile: bool) {
    header("Appendix A — worked ILP example, paper coefficients");
    let sol = solve_with_e([2, 5, 2, 5], 2, &PAPER_APPENDIX_E).expect("solve");
    println!("objective f = {:.4}", sol.objective);
    for (p, m) in &sol.multiplicities {
        println!("  {m} x {p}");
    }
    let patterns = enumerate_patterns(2);
    let mut vector = vec![0u32; patterns.len()];
    for (p, m) in &sol.multiplicities {
        vector[patterns.iter().position(|q| q == p).expect("pattern")] = *m;
    }
    println!(
        "solution vector {vector:?}\npaper (Eq. 5.7)  [0, 0, 2, 0, 2, 0, 1, 0, 0, 2] -> {}",
        if vector == [0, 0, 2, 0, 2, 0, 1, 0, 0, 2] {
            "MATCH"
        } else {
            "MISMATCH"
        }
    );

    header("same queue with OUR measured interference matrix");
    let engine = engine(profile);
    let m = InterferenceMatrix::measure_full_with(&engine, &GpuConfig::gtx480(), scale_from_env())
        .expect("interference measurement");
    println!("[setup] {}", engine.stats());
    print!("{m}");
    let sol = solve_grouping([2, 5, 2, 5], 2, &m).expect("solve");
    println!("objective f = {:.4}", sol.objective);
    for (p, mult) in &sol.multiplicities {
        println!("  {mult} x {p}");
    }
    report_profile(&engine.stats(), profile);
}

/// Runs `a` and `b` together on an even split of a bare device:
/// (cycles of `a`, cycles of `b`, device IPC).
fn co_run(cfg: &GpuConfig, a: Benchmark, b: Benchmark) -> (u64, u64, f64) {
    let scale = scale_from_env();
    let mut gpu = Gpu::new(cfg.clone()).expect("gpu");
    let ia = gpu.launch(a.kernel(scale)).expect("a");
    let ib = gpu.launch(b.kernel(scale)).expect("b");
    gpu.partition_even();
    gpu.run(500_000_000).expect("run");
    (
        gpu.stats().app(ia).runtime_cycles(),
        gpu.stats().app(ib).runtime_cycles(),
        gpu.stats().device_throughput(),
    )
}

/// Design-choice ablations (DESIGN.md §7), stepped on a bare device
/// outside the sweep engine:
///
/// 1. **Warp scheduler**: GTO (Table 4.1's choice) vs loose round-robin.
/// 2. **Memory scheduler**: FR-FCFS vs plain FCFS. The thesis blames
///    FR-FCFS's row-hit priority for class-M dominance (§3.2.2); with
///    plain FCFS the slowdown class M imposes on others should shrink.
pub fn ablation() {
    header("ablation 1 — warp scheduler: GTO vs LRR (BLK+SAD co-run)");
    for sched in [WarpSchedPolicy::Gto, WarpSchedPolicy::Lrr] {
        let mut cfg = GpuConfig::gtx480();
        cfg.sched = sched;
        let (ca, cb, thr) = co_run(&cfg, Benchmark::Blk, Benchmark::Sad);
        println!("  {sched:?}: BLK {ca} cycles, SAD {cb} cycles, device {thr:.1} IPC");
    }

    header("ablation 2 — memory scheduler: FR-FCFS vs FCFS (BLK+BP co-run)");
    let mut blk = Vec::new();
    let mut bp = Vec::new();
    for fr in [true, false] {
        let mut cfg = GpuConfig::gtx480();
        cfg.dram.fr_fcfs = fr;
        let (ca, cb, thr) = co_run(&cfg, Benchmark::Blk, Benchmark::Bp);
        let label = if fr { "FR-FCFS" } else { "FCFS   " };
        println!("  {label}: BLK {ca} cycles, BP {cb} cycles, device {thr:.1} IPC");
        blk.push(ca);
        bp.push(cb);
    }
    // Row-hit-first scheduling raises *aggregate* bandwidth, so both
    // apps run faster under FR-FCFS than under plain FCFS; the thesis'
    // point is about the *relative* advantage it hands the streaming
    // class-M application.
    let blk_gain = blk[1] as f64 / blk[0] as f64;
    let bp_gain = bp[1] as f64 / bp[0] as f64;
    println!("\nspeedup from FR-FCFS: BLK {blk_gain:.2}x vs BP {bp_gain:.2}x");
    println!(
        "class M benefits more from row-hit priority: {}",
        if blk_gain > bp_gain { "yes (the thesis' mechanism)" } else { "NO" }
    );
}
