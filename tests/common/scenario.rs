//! The engine-equivalence scenario table (pulled in with `#[path]`;
//! test-only, nothing here ships in product code).
//!
//! Each [`Scenario`] row is one simulator run written as data: a device
//! config, its launches, an optional fault plan, optional SMRA control,
//! and whether the run profiles its phases or records a trace. Every row
//! splits the SMs evenly between its launches. [`check_rows`] runs a
//! row under `StepMode::Cycle`, the oracle, and `StepMode::EventHorizon`,
//! the default lane, asserts that they agree, and diffs each mode's
//! rendered line against the row's line in `tests/golden/engine_stats.txt`
//! byte for byte, so the engine cannot drift even when both modes drift
//! together. The file is the table's rendering: one line per row, in
//! table order. Suites check rows through [`select_rows!`] tests, and
//! every row is named by one of them.

use std::fmt::Write as _;
use std::sync::Arc;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_sim::config::GpuConfig;
use gcs_sim::fault::FaultPlan;
use gcs_sim::gpu::{Gpu, PhaseCycles, StepMode};
use gcs_sim::KernelTrace;
use gcs_workloads::{phase_shift_trace, tensor_mix_trace, Benchmark, Scale};

/// `select_rows! { test_name: "row", "prefix/"; ... }` defines one test
/// per entry that checks the rows it names through [`check_rows`]. The
/// including file names this module `scenario` and marks it
/// `#[macro_use]`.
macro_rules! select_rows {
    ($($(#[$doc:meta])* $test:ident: $($row:literal),+;)*) => {$(
        $(#[$doc])*
        #[test]
        fn $test() {
            $crate::scenario::check_rows(&[$($row),+]);
        }
    )*};
}

pub const MAX_CYCLES: u64 = 50_000_000;

const GOLDEN: &str = include_str!("../golden/engine_stats.txt");

/// One application a row launches.
#[derive(Clone)]
enum Launch {
    /// A synthetic benchmark at `Scale::TEST`.
    Bench(Benchmark),
    /// A trace built for the row's device.
    Trace(fn(&GpuConfig) -> KernelTrace),
    /// A trace in hand: the replay of a recording row.
    Replay(Arc<KernelTrace>),
}

/// What a run observes beyond its statistics.
#[derive(Clone, Copy, PartialEq)]
enum Probe {
    None,
    /// Profile phases; the line carries the buckets both modes share.
    Phases,
    /// Record the first launch; the line carries the trace fingerprint,
    /// and replaying the trace in its place must reproduce the run.
    Trace,
}

/// One run of the engine, as data.
#[derive(Clone)]
struct Scenario {
    /// The line's leading word in the golden file.
    name: String,
    cfg: GpuConfig,
    launches: Vec<Launch>,
    faults: Option<FaultPlan>,
    /// SMRA control with window `tc`, for `windows` windows or to
    /// completion when `None`.
    smra: Option<(u64, Option<u32>)>,
    probe: Probe,
}

impl Scenario {
    fn new(name: impl Into<String>, cfg: GpuConfig, benches: &[Benchmark]) -> Self {
        Scenario {
            name: name.into(),
            cfg,
            launches: benches.iter().map(|&b| Launch::Bench(b)).collect(),
            faults: None,
            smra: None,
            probe: Probe::None,
        }
    }

    /// `a` next to `b` under SMRA, named after the pair and the SM count.
    fn smra(
        prefix: &str,
        cfg: GpuConfig,
        [a, b]: [Benchmark; 2],
        tc: u64,
        windows: Option<u32>,
    ) -> Self {
        let name = format!("{prefix}/{}+{}/{}sm", a.name(), b.name(), cfg.num_sms);
        Scenario {
            smra: Some((tc, windows)),
            ..Scenario::new(name, cfg, &[a, b])
        }
    }

    /// The trace `build` makes for the row's device, next to GUPS.
    fn replay(name: &str, cfg: GpuConfig, build: fn(&GpuConfig) -> KernelTrace) -> Self {
        Scenario {
            launches: vec![Launch::Trace(build), Launch::Bench(Benchmark::Gups)],
            ..Scenario::new(name, cfg, &[])
        }
    }

    fn faults(self, plan: FaultPlan) -> Self {
        Scenario {
            faults: Some(plan),
            ..self
        }
    }

    fn probe(self, probe: Probe) -> Self {
        Scenario { probe, ..self }
    }
}

/// The small test device widened to four memory controllers, so a run's
/// traffic spreads over four slices (stock `test_small` has two).
fn cfg4() -> GpuConfig {
    GpuConfig {
        num_mem_ctrls: 4,
        ..GpuConfig::test_small()
    }
}

/// A short plan of every fault kind, including the mid-run memory knobs
/// (`set_extra_latency`, `set_mshr_cap`) that must reset the slice gates.
fn short_faults() -> FaultPlan {
    FaultPlan::new()
        .disable_sm(500, 0)
        .mem_latency_window(1_000, 3_000, 40, 80)
        .mshr_window(1_500, 4_000, 2)
        .enable_sm(4_500, 0)
}

/// The shared plan: a drain-based disable of SM 0, memory-latency and
/// MSHR windows that overlap it, and a recovery handed back mid-run.
fn shared_faults() -> FaultPlan {
    FaultPlan::new()
        .disable_sm(2_000, 0)
        .mem_latency_window(5_000, 20_000, 40, 80)
        .mshr_window(8_000, 25_000, 2)
        .enable_sm(30_000, 0)
}

/// The shared plan's shape timed to finish inside the shortest faulted
/// run (`faults4/GUPS` ends at cycle 6 527 under the shared plan): both
/// windows close and SM 0 returns while work is still queued, so the
/// cap-raise and recovery paths run, on a saturated co-run too.
fn mid_faults() -> FaultPlan {
    FaultPlan::new()
        .disable_sm(1_000, 0)
        .mem_latency_window(2_000, 4_000, 40, 80)
        .mshr_window(3_000, 5_000, 2)
        .enable_sm(5_500, 0)
}

/// SPMV recorded alone on `cfg`.
fn recorded_spmv(cfg: &GpuConfig) -> KernelTrace {
    let mut gpu = Gpu::new(cfg.clone()).expect("device");
    let app = gpu
        .launch(Benchmark::Spmv.kernel(Scale::TEST))
        .expect("launch");
    gpu.enable_trace_recording(app).expect("recorder");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("recording run finishes");
    gpu.take_trace(app).expect("trace")
}

/// An MSHR cap of 2 over most of a GUPS co-run: back-pressure refuses
/// loads throughout, so replaying warps walk past refused attempts.
fn mshr_squeeze() -> FaultPlan {
    FaultPlan::new().mshr_window(1_000, 8_000, 2)
}

/// GUPS recorded next to SPMV on `cfg` under [`mshr_squeeze`]: its
/// random addresses differ on every attempt, refused ones included.
fn recorded_gups_corun(cfg: &GpuConfig) -> KernelTrace {
    let mut gpu = Gpu::new(cfg.clone()).expect("device");
    gpu.install_fault_plan(mshr_squeeze()).expect("valid plan");
    let app = gpu
        .launch(Benchmark::Gups.kernel(Scale::TEST))
        .expect("launch");
    gpu.launch(Benchmark::Spmv.kernel(Scale::TEST))
        .expect("launch");
    gpu.enable_trace_recording(app).expect("recorder");
    gpu.partition_even();
    gpu.run(MAX_CYCLES).expect("recording run finishes");
    gpu.take_trace(app).expect("trace")
}

/// The table, in golden-file order.
fn scenarios() -> Vec<Scenario> {
    use Benchmark::{Blk, Gups, Sad, Spmv};
    let small = GpuConfig::test_small;
    let issue2 = GpuConfig {
        issue_per_sm: 2,
        ..small()
    };
    let alone = |prefix: &str, cfg: fn() -> GpuConfig, probe: Probe| {
        Benchmark::ALL
            .iter()
            .map(move |&b| {
                Scenario::new(format!("{prefix}/{}", b.name()), cfg(), &[b]).probe(probe)
            })
            .collect::<Vec<_>>()
    };
    let shared = |name: &str, cfg: GpuConfig, bench: Benchmark| {
        Scenario::new(name, cfg, &[bench]).faults(shared_faults())
    };
    let mut rows = alone("alone", small, Probe::None);
    rows.extend([
        Scenario::new("even/GUPS+SPMV", small(), &[Gups, Spmv]),
        Scenario::new("even4/GUPS+SPMV", cfg4(), &[Gups, Spmv]),
        Scenario::new("even4/GUPS+SAD", cfg4(), &[Gups, Sad]),
        Scenario::new("issue2/GUPS+SAD", issue2, &[Gups, Sad]),
        Scenario::smra("smra", small(), [Gups, Sad], 400, None),
        Scenario::smra("smra", GpuConfig::gtx480(), [Gups, Spmv], 2_000, Some(10)),
        Scenario::new("fault/GUPS", small(), &[Gups]).faults(short_faults()),
        Scenario::new("fault/SPMV", small(), &[Spmv]).faults(short_faults()),
        Scenario::new("fault4/GUPS", cfg4(), &[Gups]).faults(short_faults()),
        Scenario::replay("replay/TRACE_PHASE+GUPS", small(), phase_shift_trace),
        Scenario::replay("replay/TRACE_TENSOR+GUPS", small(), tensor_mix_trace),
    ]);
    rows.extend(alone("alone4", cfg4, Probe::None));
    rows.extend([
        Scenario::smra("smra4", cfg4(), [Gups, Sad], 400, None),
        Scenario::replay("replay4/TRACE_PHASE+GUPS", cfg4(), phase_shift_trace),
        Scenario::replay("replay4/TRACE_TENSOR+GUPS", cfg4(), tensor_mix_trace),
        shared("faults/GUPS", small(), Gups),
        shared("faults/SPMV", small(), Spmv),
        shared("faults/SAD", small(), Sad),
        shared("faults4/GUPS", cfg4(), Gups),
        shared("faults4/SPMV", cfg4(), Spmv),
        Scenario {
            launches: vec![Launch::Trace(recorded_spmv)],
            ..shared("faults/replay-SPMV", small(), Spmv)
        },
        Scenario::new("profile/GUPS+SPMV", small(), &[Gups, Spmv]).probe(Probe::Phases),
        Scenario::new("profile4/GUPS+SPMV", cfg4(), &[Gups, Spmv]).probe(Probe::Phases),
        Scenario::new("record/BLK+GUPS", small(), &[Blk, Gups]).probe(Probe::Trace),
        Scenario::new("record4/BLK+GUPS", cfg4(), &[Blk, Gups]).probe(Probe::Trace),
        Scenario::smra("profile/smra", small(), [Gups, Sad], 400, None).probe(Probe::Phases),
        Scenario::smra(
            "profile/smra",
            GpuConfig::gtx480(),
            [Gups, Spmv],
            2_000,
            Some(10),
        )
        .probe(Probe::Phases),
    ]);
    rows.extend(alone("record/alone", small, Probe::Trace));
    rows.push(Scenario::smra("record/smra", small(), [Spmv, Sad], 5_000, None).probe(Probe::Trace));
    let mid = |name: &str, cfg: GpuConfig, benches: &[Benchmark]| {
        Scenario::new(name, cfg, benches).faults(mid_faults())
    };
    rows.extend([
        mid("faults-mid/GUPS", small(), &[Gups]),
        mid("faults-mid/SPMV", small(), &[Spmv]),
        mid("faults-mid/GUPS+SPMV", small(), &[Gups, Spmv]),
        mid("faults4-mid/GUPS", cfg4(), &[Gups]),
    ]);
    // A replay that advances the attempt cursor on every refusal: with
    // a recorded Random app under back-pressure, re-reading a refused
    // attempt's addresses would change the run.
    rows.push(Scenario {
        launches: vec![Launch::Trace(recorded_gups_corun), Launch::Bench(Spmv)],
        ..Scenario::new("replay/GUPS-corun+SPMV", small(), &[]).faults(mshr_squeeze())
    });
    rows
}

/// A device in `mode` that steps as one cell.
pub fn device(cfg: GpuConfig, mode: StepMode) -> Gpu {
    let mut gpu = Gpu::new(cfg).expect("device");
    gpu.set_step_mode(mode);
    assert_eq!(
        (gpu.shards(), gpu.mem_shards(), gpu.shard_workers()),
        (1, 1, 1),
        "the device steps as a single cell"
    );
    gpu
}

/// A finished run: the device, its SMRA action list and its recording.
pub struct Run {
    pub gpu: Gpu,
    pub actions: Vec<SmraAction>,
    pub trace: Option<KernelTrace>,
}

/// Runs `row` in `mode`.
fn run(row: &Scenario, mode: StepMode) -> Run {
    let mut gpu = device(row.cfg.clone(), mode);
    gpu.set_profiling(row.probe == Probe::Phases);
    if let Some(plan) = &row.faults {
        gpu.install_fault_plan(plan.clone()).expect("valid plan");
    }
    let ids: Vec<_> = row
        .launches
        .iter()
        .map(|launch| match launch {
            Launch::Bench(b) => gpu.launch(b.kernel(Scale::TEST)),
            Launch::Trace(build) => gpu.launch_traced(Arc::new(build(&row.cfg))),
            Launch::Replay(trace) => gpu.launch_traced(Arc::clone(trace)),
        })
        .collect::<Result<_, _>>()
        .expect("launch");
    if row.probe == Probe::Trace {
        gpu.enable_trace_recording(ids[0]).expect("recording");
    }
    gpu.partition_even();
    let mut actions = Vec::new();
    match row.smra {
        None => gpu.run(MAX_CYCLES).expect("run finishes"),
        Some((tc, windows)) => {
            let params = SmraParams {
                tc,
                ..SmraParams::for_device(gpu.config().num_sms, ids.len() as u32)
            };
            let mut ctl = SmraController::new(params, ids.clone(), &gpu);
            match windows {
                None => ctl
                    .run_to_completion(&mut gpu, MAX_CYCLES)
                    .expect("smra run"),
                Some(n) => {
                    for _ in 0..n {
                        gpu.run_for(tc);
                        if gpu.all_done() {
                            break;
                        }
                        ctl.decide(&mut gpu);
                    }
                }
            }
            actions = ctl.actions().to_vec();
        }
    }
    let trace =
        (row.probe == Probe::Trace).then(|| gpu.take_trace(ids[0]).expect("recording was on"));
    Run {
        gpu,
        actions,
        trace,
    }
}

/// Runs `run` under both step modes and asserts the event-horizon lane
/// reproduced the cycle oracle: the same SMRA actions (first: a diverging
/// decision means the controller saw different samples), final cycle,
/// `SimStats` and recorded trace; phases that sum to the final cycle in
/// each mode, and that agree in every bucket unless run windows clamped
/// a jump (`windowed`), when [`assert_phases_match`] applies. Returns the
/// cycle-stepped run, then the event-horizon one.
pub fn cycle_matches_horizon(
    name: &str,
    windowed: bool,
    run: impl Fn(StepMode) -> Run,
) -> [Run; 2] {
    let runs = [run(StepMode::Cycle), run(StepMode::EventHorizon)];
    let [c, e] = &runs;
    let what = "event-horizon stepping diverged from the cycle oracle";
    assert_eq!(c.actions, e.actions, "{name}: SMRA actions: {what}");
    assert_eq!(c.gpu.cycle(), e.gpu.cycle(), "{name}: final cycle: {what}");
    assert_eq!(c.gpu.stats(), e.gpu.stats(), "{name}: SimStats: {what}");
    assert!(c.trace == e.trace, "{name}: recorded trace: {what}");
    for r in &runs {
        if let Some(phases) = r.gpu.phase_cycles() {
            assert_eq!(
                phases.total(),
                r.gpu.cycle(),
                "{name}: phases do not sum to the cycles: {phases:?}"
            );
        }
    }
    match (c.gpu.phase_cycles(), e.gpu.phase_cycles()) {
        (Some(pc), Some(pe)) if windowed => assert_phases_match(name, &pc, &pe),
        (pc, pe) => assert_eq!(pc, pe, "{name}: phases: {what}"),
    }
    runs
}

/// Phase totals agree up to the one attribution that differs by
/// design: a jump the window barrier clamps is booked to `smra` by
/// event-horizon stepping, while cycle stepping books each of those
/// cycles to its wait phase. Issue cycles are stepped in both modes and
/// must match exactly.
fn assert_phases_match(name: &str, cycle: &PhaseCycles, eh: &PhaseCycles) {
    assert_eq!(cycle.issue, eh.issue, "{name}: issue cycles diverged");
    assert_eq!(cycle.total(), eh.total(), "{name}: phase totals diverged");
    assert_eq!(
        cycle.smra, 0,
        "{name}: cycle stepping books no barrier spans"
    );
    for (bucket, c, e) in [
        ("l1", cycle.l1, eh.l1),
        ("l2", cycle.l2, eh.l2),
        ("dram", cycle.dram, eh.dram),
        ("idle", cycle.idle, eh.idle),
    ] {
        assert!(e <= c, "{name}: {bucket} {e} above the cycle-stepped {c}");
    }
}

/// Every statistic a run produced, as one canonical line: the final
/// cycle, the bits of the `l2_hit_rate` diagnostic, the SMRA action list
/// and every per-app `SimStats` field, spelled out so that renaming a
/// field in the program does not move the file. A profiled row adds the
/// phase buckets both modes share; a recording row, the trace's
/// fingerprint.
fn stats_line(row: &Scenario, run: &Run) -> String {
    let gpu = &run.gpu;
    let mut line = format!(
        "{} cycle={} l2_hit_bits={:016x}",
        row.name,
        gpu.cycle(),
        gpu.l2_hit_rate().to_bits()
    );
    for a in &run.actions {
        match a {
            SmraAction::Hold => line.push_str(" hold"),
            SmraAction::Move { from, to, n } => write!(line, " move:{from}>{to}x{n}").unwrap(),
            SmraAction::Revert => line.push_str(" revert"),
            SmraAction::FaultDetected { surviving } => write!(line, " fault:{surviving}").unwrap(),
        }
    }
    for (id, s) in gpu.stats().iter().take(gpu.num_apps()) {
        write!(
            line,
            " {id}:warp_insts={},thread_insts={},mem_insts={},alu_insts={},l1_hits={},\
             l1_misses={},dram_read_bytes={},dram_write_bytes={},l2_to_l1_bytes={},\
             dram_row_hits={},dram_row_misses={},start_cycle={},finish_cycle={},blocks_done={}",
            s.warp_insts,
            s.thread_insts,
            s.mem_insts,
            s.alu_insts,
            s.l1_hits,
            s.l1_misses,
            s.dram_read_bytes,
            s.dram_write_bytes,
            s.l2_to_l1_bytes,
            s.dram_row_hits,
            s.dram_row_misses,
            s.start_cycle,
            s.finish_cycle,
            s.blocks_done,
        )
        .unwrap();
    }
    match gpu.phase_cycles() {
        Some(p) if row.smra.is_some() => {
            write!(line, " phases=issue:{},total:{}", p.issue, p.total())
        }
        Some(p) => write!(
            line,
            " phases=issue:{},l1:{},l2:{},dram:{},smra:{},idle:{}",
            p.issue, p.l1, p.l2, p.dram, p.smra, p.idle
        ),
        None => Ok(()),
    }
    .unwrap();
    if let Some(trace) = &run.trace {
        write!(line, " trace={:016x}", trace.fingerprint()).unwrap();
    }
    line
}

/// Runs `row` in both modes, asserts they agree, and diffs each mode's
/// line against `want`. A recording row then replays its trace, decoded
/// from the wire format, in both modes in place of the recorded launch;
/// each replay must reproduce the recording run's stats, final cycle and
/// SMRA actions.
fn check_row(row: &Scenario, want: &str) {
    let runs = cycle_matches_horizon(&row.name, row.smra.is_some(), |mode| run(row, mode));
    for (mode, r) in [StepMode::Cycle, StepMode::EventHorizon].iter().zip(&runs) {
        let got = stats_line(row, r);
        assert!(
            got == want,
            "{} ({mode:?}) differs from tests/golden/engine_stats.txt\n want: {want}\n  got: {got}",
            row.name
        );
    }
    let [recorded, _] = &runs;
    if let Some(trace) = &recorded.trace {
        let decoded = KernelTrace::decode(&trace.encode()).expect("recorded trace decodes");
        let mut replay = row.clone().probe(Probe::None);
        replay.launches[0] = Launch::Replay(Arc::new(decoded));
        for mode in [StepMode::Cycle, StepMode::EventHorizon] {
            let got = run(&replay, mode);
            assert_eq!(
                (got.gpu.stats(), got.gpu.cycle(), &got.actions),
                (
                    recorded.gpu.stats(),
                    recorded.gpu.cycle(),
                    &recorded.actions
                ),
                "{} ({mode:?}): the replay diverged from the recording run",
                row.name
            );
        }
    }
}

/// Checks the rows `names` lists, each of which must exist; a name
/// ending in `/` stands for every row under that prefix. The golden file
/// and the table must name the same rows in the same order.
pub fn check_rows(names: &[&str]) {
    let rows = scenarios();
    let want: Vec<&str> = GOLDEN.lines().collect();
    let file_names: Vec<&str> = want
        .iter()
        .map(|l| l.split(' ').next().unwrap_or(""))
        .collect();
    let row_names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
    assert_eq!(
        file_names, row_names,
        "golden file and scenario table list different runs"
    );
    let hit = |name: &str, row: &str| row == name || name.ends_with('/') && row.starts_with(name);
    for name in names {
        assert!(
            row_names.iter().any(|row| hit(name, row)),
            "no row matches {name:?}"
        );
    }
    for (row, want) in rows.iter().zip(&want) {
        if names.iter().any(|name| hit(name, &row.name)) {
            check_row(row, want);
        }
    }
}
