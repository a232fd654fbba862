//! What a finished run is turned into: the table a person reads, the
//! line appended to a result file, the last line the driver reads, and
//! the written predictions checked against a traced run.

use std::io::Write;
use std::path::Path;

use crate::harness::{bench_dir, Record};
use crate::json::{self, Value};

#[derive(Debug, Clone)]
pub struct MetricDef {
    pub name: String,
    pub unit: String,
    pub higher_is_better: bool,
    /// Share of the parent's median an end-to-end metric may worsen by.
    pub bound: Option<f64>,
}

/// `BENCHMARK.json`: the one place metric names, units, directions and
/// bounds are written down.
pub struct Manifest {
    pub run_seconds: f64,
    pub workloads: Vec<String>,
    pub end_to_end: Vec<MetricDef>,
    pub per_layer: Vec<MetricDef>,
}

impl Manifest {
    pub fn load() -> Result<Manifest, String> {
        let path = bench_dir().join("../BENCHMARK.json");
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Manifest::parse(&text)
    }

    pub fn parse(text: &str) -> Result<Manifest, String> {
        let v = json::parse(text)?;
        let defs = |key: &str| -> Result<Vec<MetricDef>, String> {
            v.get(key)
                .ok_or_else(|| format!("BENCHMARK.json: no {key}"))?
                .arr()
                .iter()
                .map(|m| {
                    let field = |k: &str| {
                        m.get(k)
                            .and_then(Value::str)
                            .ok_or_else(|| format!("{key}: metric without {k}"))
                    };
                    Ok(MetricDef {
                        name: field("name")?.to_string(),
                        unit: field("unit")?.to_string(),
                        higher_is_better: field("better")? == "higher",
                        bound: m.get("bound").and_then(Value::num),
                    })
                })
                .collect()
        };
        Ok(Manifest {
            run_seconds: v
                .get("run_seconds")
                .and_then(Value::num)
                .ok_or("BENCHMARK.json: no run_seconds")?,
            workloads: v
                .get("workloads")
                .map(|w| {
                    w.arr()
                        .iter()
                        .filter_map(|w| w.get("name")?.str().map(String::from))
                        .collect()
                })
                .unwrap_or_default(),
            end_to_end: defs("end_to_end")?,
            per_layer: defs("per_layer")?,
        })
    }

    pub fn def(&self, name: &str) -> Option<&MetricDef> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|d| d.name == name)
    }

    /// The value `r` reports for `name`: the best sample in the
    /// metric's own direction (see [`Summary::best`]).
    pub fn value(&self, r: &Record, name: &str) -> Option<f64> {
        let higher = self.def(name).is_some_and(|d| d.higher_is_better);
        r.metric(name).map(|x| x.summary.best(higher))
    }
}

/// The commit the checkout is at; a checkout that is not a repository
/// (the driver's) has none.
pub fn commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .current_dir(bench_dir())
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |s| s.trim().to_string())
}

/// Metrics the run produced that `BENCHMARK.json` does not list — a
/// defect of the benchmark itself.
pub fn unlisted<'a>(r: &'a Record, m: &Manifest) -> Vec<&'a str> {
    let names = r.metrics.iter().map(|x| x.name.as_str());
    names.filter(|n| m.def(n).is_none()).collect()
}

pub fn print_table(r: &Record, m: &Manifest) {
    println!(
        "\n== {} (seed {}, {} s, batch {}, {}) ==",
        r.workload,
        r.seed,
        r.seconds,
        r.batch,
        if r.traced {
            "untraced + traced"
        } else {
            "untraced"
        }
    );
    for (k, v) in &r.stamps {
        println!("   {k} = {v}");
    }
    println!(
        "{:<34} {:>9} {:>6} {:>14} {:>14} {:>14} {:>14}  tail",
        "metric", "unit", "n", "best", "median", "q1", "q3"
    );
    let listed = m.end_to_end.iter().chain(&m.per_layer);
    for def in listed {
        let Some(metric) = r.metric(&def.name) else {
            continue;
        };
        let s = &metric.summary;
        let tail = s.top.map_or(String::new(), |(p, v)| format!("p{p}={v:.6}"));
        println!(
            "{:<34} {:>9} {:>6} {:>14.6} {:>14.6} {:>14.6} {:>14.6}  {tail}",
            def.name,
            def.unit,
            s.n,
            s.best(def.higher_is_better),
            s.median,
            s.q1,
            s.q3
        );
    }
    println!(
        "digest {:016x}; {} operations attempted, {} failed",
        r.digest,
        r.attempted,
        r.failures.len()
    );
    for f in r.failures.iter().take(20) {
        println!("   FAILED: {f}");
    }
}

/// The record as one JSON line, the format of result files and of
/// `history.jsonl`.
pub fn record_line(r: &Record, m: &Manifest, commit: &str) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|x| {
            let s = &x.summary;
            let (top_p, top) = s.top.unwrap_or((0.0, 0.0));
            format!(
                "{}:{{\"unit\":{},\"value\":{},\"n\":{},\"median\":{},\"q1\":{},\"q3\":{},\"top_p\":{},\"top\":{},\"exact\":{}}}",
                json::quote(&x.name),
                json::quote(m.def(&x.name).map_or("", |d| d.unit.as_str())),
                json::number(m.value(r, &x.name).unwrap_or(s.median)),
                s.n,
                json::number(s.median),
                json::number(s.q1),
                json::number(s.q3),
                json::number(top_p),
                json::number(top),
                x.exact
            )
        })
        .collect();
    let stamps: Vec<String> = r
        .stamps
        .iter()
        .map(|(k, v)| format!("{}:{}", json::quote(k), json::quote(v)))
        .collect();
    let failures: Vec<String> = r.failures.iter().take(20).map(|f| json::quote(f)).collect();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    format!(
        "{{\"commit\":{},\"nproc\":{nproc},\"workload\":{},\"seed\":{},\"seconds\":{},\"traced\":{},\"batch\":{},\
         \"digest\":\"{:016x}\",\"attempted\":{},\"failed\":{},\"failures\":[{}],\"stamps\":{{{}}},\"metrics\":{{{}}}}}",
        json::quote(commit),
        json::quote(&r.workload),
        r.seed,
        json::number(r.seconds),
        r.traced,
        r.batch,
        r.digest,
        r.attempted,
        r.failures.len(),
        failures.join(","),
        stamps.join(","),
        metrics.join(",")
    )
}

pub fn append_line(path: &Path, line: &str) -> std::io::Result<()> {
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(f, "{line}")
}

/// The last line of standard output: every end-to-end metric of an
/// untraced run, every per-layer metric of a traced one. A layer metric
/// the workload does not exercise reads 0.
pub fn driver_line(r: &Record, m: &Manifest) -> String {
    let defs = if r.traced {
        &m.per_layer
    } else {
        &m.end_to_end
    };
    let metrics: Vec<String> = defs
        .iter()
        .map(|d| {
            let v = m.value(r, &d.name).unwrap_or(0.0);
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                json::quote(&d.name),
                json::number(v),
                json::quote(&d.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        r.failures.is_empty(),
        r.attempted.max(1),
        r.failures.len(),
        metrics.join(",")
    )
}

/// The predictions `README.md` writes down, checked against a traced
/// run. A miss is printed, not counted as a failed operation: most of
/// these rest on timings.
pub fn predictions(r: &Record, m: &Manifest) -> Vec<(String, bool)> {
    let get = |name: &str| m.value(r, name);
    let mut out = Vec::new();
    let mut expect = |what: String, ok: Option<bool>| {
        if let Some(ok) = ok {
            out.push((what, ok));
        }
    };
    let share = |part: Option<f64>, whole: Option<f64>| Some(part? / whole?);

    let root = get("trace.root_self_ratio");
    expect(
        format!("time no layer span covers is under 5 % of the repetition ({root:.4?})"),
        root.map(|v| v < 0.05),
    );
    let over = get("trace.overhead_ratio");
    expect(
        format!("tracing overhead is under 5 % ({over:.4?})"),
        over.map(|v| v < 0.05),
    );

    let w = r.workload.as_str();
    if w.starts_with("sim_") {
        let s = share(get("sim.run_s"), get("wall_s"));
        expect(
            format!("sim.run_s is at least 90 % of wall_s ({s:.4?})"),
            s.map(|v| v >= 0.90),
        );
        let mem = share(
            Some(get("sim.phase.l2").unwrap_or(0.0) + get("sim.phase.dram").unwrap_or(0.0)),
            get("sim.cycles"),
        );
        if w == "sim_lat_smra" {
            expect(
                format!("L2 + DRAM waits are the majority of simulated cycles ({mem:.4?})"),
                mem.map(|v| v > 0.5),
            );
            let d = share(get("core.smra.decide_s"), get("wall_s"));
            expect(
                format!("SMRA decisions are under 2 % of wall_s ({d:.4?})"),
                d.map(|v| v < 0.02),
            );
        } else {
            expect(
                format!("L2 + DRAM waits are under 5 % of simulated cycles ({mem:.4?})"),
                mem.map(|v| v < 0.05),
            );
        }
    }
    if matches!(
        w,
        "sweep_warm" | "schedd_tcp" | "sched_inproc" | "fleet_loop"
    ) {
        let n = get("core.sweep.jobs_simulated");
        expect(
            format!("nothing is simulated after set-up ({n:?} jobs)"),
            n.map(|v| v == 0.0),
        );
    }
    if w == "sched_inproc" {
        let p = get("sched.pair_share");
        expect(
            format!("at least half the dispatched groups are pairs ({p:.4?})"),
            p.map(|v| v >= 0.5),
        );
    }
    if w == "schedd_tcp" {
        let t = share(get("sched.transport_us"), get("req_p50_us"));
        expect(
            format!("transport is at least half of the median round trip ({t:.4?})"),
            t.map(|v| v >= 0.5),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed `BENCHMARK.json` against the limits the driver
    /// states and against what this crate can run.
    #[test]
    fn committed_manifest_meets_the_contract() {
        let m = Manifest::load().expect("BENCHMARK.json parses");
        assert_eq!(m.workloads, crate::workloads::NAMES);
        assert!((1.0..=60.0).contains(&m.run_seconds) && m.run_seconds.fract() == 0.0);
        assert!((1..=16).contains(&m.end_to_end.len()) && (1..=128).contains(&m.per_layer.len()));
        let setup = m.def("setup_s").expect("setup_s is required");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        let mut seen = std::collections::BTreeSet::new();
        for d in m.end_to_end.iter().chain(&m.per_layer) {
            assert!(seen.insert(&d.name), "{} is listed twice", d.name);
            let ok = |s: &str, extra: &str, max: usize| {
                !s.is_empty()
                    && s.len() <= max
                    && s.chars()
                        .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
            };
            assert!(
                ok(&d.name, "_.-", 64) && d.name.chars().next().unwrap().is_ascii_alphanumeric(),
                "{}",
                d.name
            );
            assert!(ok(&d.unit, "_/%.-", 16), "{}: unit {:?}", d.name, d.unit);
        }
        for d in &m.end_to_end {
            assert!(
                d.bound.is_some_and(|b| (0.0..=0.25).contains(&b)),
                "{}",
                d.name
            );
            assert!(
                m.end_to_end.iter().all(|o| o.bound <= setup.bound),
                "setup_s has the largest bound"
            );
        }
        assert!(m.per_layer.iter().all(|d| d.bound.is_none()));
    }
}
