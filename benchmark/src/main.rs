//! The repo benchmark. See `README.md` in this directory.
//!
//! ```text
//! gcs-benchmark [run] [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//!               [--json FILE] [--record] [--quick] [--bless]
//! gcs-benchmark compare A B
//! ```

mod compare;
mod harness;
mod json;
mod report;
mod stats;
mod trace;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use harness::{bench_dir, Options};
use report::Manifest;

const USAGE: &str = "usage: gcs-benchmark [run] [--workload NAME] [--seed N] [--seconds S] \
[--trace [0|1]] [--json FILE] [--record] [--quick] [--bless]\n       gcs-benchmark compare A B";

struct Cli {
    /// `None` runs every workload, each in a child process.
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    json: Option<PathBuf>,
    record: bool,
    quick: bool,
    bless: bool,
    /// Set on the re-executed process of a one-CPU workload.
    pinned: bool,
}

fn parse_run(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        json: None,
        record: false,
        quick: false,
        bless: false,
        pinned: false,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(value("a name")?.clone()),
            "--seed" => {
                cli.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                cli.seconds = Some(s);
            }
            "--json" => cli.json = Some(PathBuf::from(value("a file")?)),
            // The driver passes `--trace 0|1`; by hand a bare `--trace` is enough.
            "--trace" => {
                cli.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--record" => cli.record = true,
            "--quick" => cli.quick = true,
            "--bless" => cli.bless = true,
            "--pinned" => cli.pinned = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

/// The CPUs this process may run on, as the kernel lists them.
fn cpus_allowed() -> Option<String> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status
        .lines()
        .find(|l| l.starts_with("Cpus_allowed_list:"))?;
    Some(line.split_whitespace().nth(1)?.to_string())
}

/// Runs this same command again confined to the last allowed CPU, for a
/// workload that asks for one (see `workloads::one_cpu`). `None` when
/// there is nothing to confine or no `taskset` to do it with; the run
/// then goes ahead unconfined and its `cpus_allowed` stamp says so.
fn rerun_on_one_cpu(args: &[String]) -> Option<bool> {
    let allowed = cpus_allowed()?;
    let last = allowed.rsplit([',', '-']).next()?;
    if last == allowed {
        return None;
    }
    let exe = std::env::current_exe().ok()?;
    let status = std::process::Command::new("taskset")
        .args(["-c", last])
        .arg(exe)
        .arg("run")
        .args(args)
        .arg("--pinned")
        .status()
        .ok()?;
    Some(status.success())
}

/// One workload, in this process.
fn run_one(cli: &Cli, workload: &str, m: &Manifest, args: &[String]) -> Result<bool, String> {
    if workloads::one_cpu(workload) && !cli.pinned {
        if let Some(ok) = rerun_on_one_cpu(args) {
            return Ok(ok);
        }
    }
    let seconds = cli.seconds.unwrap_or(m.run_seconds) * if cli.quick { 0.1 } else { 1.0 };
    let opts = Options {
        workload: workload.to_string(),
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        quick: cli.quick,
        bless: cli.bless,
    };
    std::fs::create_dir_all(bench_dir().join("out")).map_err(|e| format!("benchmark/out: {e}"))?;
    let mut record = workloads::dispatch(&opts).ok_or(format!("unknown workload {workload:?}"))?;
    let cpus = cpus_allowed().unwrap_or_else(|| "unknown".into());
    record.stamps.insert("cpus_allowed".into(), cpus);
    report::print_table(&record, m);
    if record.traced {
        for (what, ok) in report::predictions(&record, m) {
            println!(
                "   prediction {}: {what}",
                if ok { "holds" } else { "MISSED" }
            );
        }
    }
    let line = report::record_line(&record, m, &report::commit());
    let history = bench_dir().join("history.jsonl");
    for path in cli.json.iter().chain(cli.record.then_some(&history)) {
        report::append_line(path, &line).map_err(|e| format!("{}: {e}", path.display()))?;
    }
    println!("{}", report::driver_line(&record, m));
    let unlisted = report::unlisted(&record, m);
    if !unlisted.is_empty() {
        return Err(format!("metrics missing from BENCHMARK.json: {unlisted:?}"));
    }
    Ok(record.failures.is_empty())
}

/// Every workload, each in a child process of its own so that peak
/// memory, allocator state and thread pools do not leak between them.
fn run_all(m: &Manifest, args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut ok = true;
    for workload in &m.workloads {
        let status = std::process::Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", workload])
            .status()
            .map_err(|e| format!("{workload}: {e}"))?;
        ok &= status.success();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    harness::scrub_env();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => Manifest::load().and_then(|m| {
            let read = |p: &String| {
                std::fs::read_to_string(p)
                    .map_err(|e| format!("{p}: {e}"))
                    .and_then(|t| compare::read_results(&t).map_err(|e| format!("{p}: {e}")))
            };
            Ok(compare::compare(&read(&args[1])?, &read(&args[2])?, &m))
        }),
        Some("compare" | "--help" | "-h") => Err(USAGE.to_string()),
        first => {
            let rest = if first == Some("run") {
                &args[1..]
            } else {
                &args[..]
            };
            parse_run(rest).and_then(|cli| {
                let m = Manifest::load()?;
                match &cli.workload {
                    Some(w) => run_one(&cli, w, &m, rest),
                    None => run_all(&m, rest),
                }
            })
        }
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
