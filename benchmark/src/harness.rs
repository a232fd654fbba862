//! Runs one workload: repeated set-up (each with its discarded warm-up),
//! timed samples with tracing off — in a traced run taking turns with
//! samples whose spans are kept — then the passes that sit outside the
//! repetitions.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use crate::stats::{summarize, LogHistogram, Summary};
use crate::trace::{self_time_by_layer, Tracer};

/// The benchmark's own directory (`benchmark/`), fixed at build time:
/// the program is always built from the checkout it measures.
pub fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

/// Removes every `GCS_*` and `BENCH_*` variable so the crates' default
/// knobs are what is measured. Called first thing in `main`, before any
/// thread exists.
pub fn scrub_env() {
    let doomed: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| {
            let k = k.to_string_lossy();
            k.starts_with("GCS_") || k.starts_with("BENCH_")
        })
        .collect();
    for k in doomed {
        std::env::remove_var(k);
    }
}

/// FNV-1a 64 over `bytes`. The benchmark keeps its own copy on purpose:
/// a golden digest must not change because the program's hash did.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Peak resident set of this process in MiB (`VmHWM`).
fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// Where a workload's measurements go. One per phase (untraced, traced).
#[derive(Default)]
pub struct Sink {
    samples: BTreeMap<String, Vec<f64>>,
    /// Per-repetition timings added up until the sample ends.
    sums: BTreeMap<String, f64>,
    pools: BTreeMap<&'static str, LogHistogram>,
    exact: BTreeMap<String, f64>,
    pub stamps: BTreeMap<String, String>,
    pub attempted: u64,
    pub failures: Vec<String>,
    digest: Option<u64>,
}

impl Sink {
    /// One measurement of a timing, rate or ratio.
    pub fn sample(&mut self, name: &str, v: f64) {
        match self.samples.get_mut(name) {
            Some(list) => list.push(v),
            None => drop(self.samples.insert(name.to_string(), vec![v])),
        }
    }

    /// Part of a per-repetition timing. The parts of one sample are
    /// added up and recorded once, as the mean per repetition, so that
    /// every recorded timing covers a whole sample (50 ms or more).
    pub fn add(&mut self, name: &str, v: f64) {
        match self.sums.get_mut(name) {
            Some(sum) => *sum += v,
            None => drop(self.sums.insert(name.to_string(), v)),
        }
    }

    /// One measurement for a distribution over the whole run (request
    /// round trips), read back with [`Sink::pooled`].
    pub fn pool(&mut self, name: &'static str, v: f64) {
        self.pools
            .entry(name)
            .or_insert_with(LogHistogram::new)
            .record(v);
    }

    pub fn pooled(&self, name: &str) -> Option<&LogHistogram> {
        self.pools.get(name)
    }

    fn end_sample(&mut self, batch: f64) {
        for (name, sum) in std::mem::take(&mut self.sums) {
            self.sample(&name, sum / batch);
        }
    }

    /// A count made by the deterministic program. It must read the same
    /// every time it is reported; a change counts as a failed operation.
    pub fn exact(&mut self, name: &str, v: f64) {
        if let Some(prev) = self.exact.insert(name.to_string(), v) {
            if prev != v {
                self.failures.push(format!(
                    "{name} changed between repetitions: {prev} then {v}"
                ));
            }
        }
    }

    /// Counts one checked operation; `what` names it when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// The canonical text one repetition produced. Every repetition of
    /// a run must produce the same bytes.
    pub fn output(&mut self, text: &str) {
        let d = fnv1a(text.as_bytes());
        let same = *self.digest.get_or_insert(d) == d;
        self.check(same, || "output changed between repetitions".into());
    }

    pub fn median(&self, name: &str) -> Option<f64> {
        self.summary(name).map(|s| s.median)
    }

    fn summary(&self, name: &str) -> Option<Summary> {
        match self.samples.get(name) {
            Some(v) => summarize(v),
            None => self.exact.get(name).map(|&v| Summary {
                n: 1,
                min: v,
                max: v,
                median: v,
                q1: v,
                q3: v,
                top: None,
            }),
        }
    }
}

/// What a workload is handed at set-up.
pub struct Env {
    pub seed: u64,
    /// Empty directory private to this set-up (memo caches go here,
    /// never `results/cache`).
    pub dir: PathBuf,
    pub nproc: usize,
}

pub trait Workload: Sized {
    /// Everything before the first timed repetition, one discarded
    /// warm-up repetition included.
    fn setup(env: &Env, tr: &mut Tracer, sink: &mut Sink) -> Self;

    /// One timed sample: `batch()` repetitions of the workload's fixed
    /// work, with a span around every call into a layer.
    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink);

    /// Repetitions per sample; above 1 where one repetition is shorter
    /// than the 50 ms a sample must last.
    fn batch(&self) -> u64 {
        1
    }

    /// `(rate metric, units of work in one repetition)`; the first is
    /// the workload's headline rate, reported as `work_per_s` too.
    fn work(&self) -> Vec<(&'static str, f64)>;

    /// Called once per sink after its last sample, for metrics taken
    /// over everything the samples pooled ([`Sink::pool`]).
    fn end_samples(&self, _sink: &mut Sink) {}

    /// Passes outside the timed repetitions (in-process replays, codec
    /// loops, per-job sweeps). `deep` is set in a traced run, where the
    /// passes too long for every run are made.
    fn passes(&mut self, _tr: &mut Tracer, _sink: &mut Sink, _deep: bool) {}
}

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    pub bless: bool,
}

/// One metric of a finished run.
pub struct Metric {
    pub name: String,
    pub summary: Summary,
    /// A program count that repeats exactly, as opposed to a timing.
    pub exact: bool,
}

pub struct Record {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub batch: u64,
    pub digest: u64,
    pub attempted: u64,
    pub failures: Vec<String>,
    pub stamps: BTreeMap<String, String>,
    pub metrics: Vec<Metric>,
}

impl Record {
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

/// Set-up is repeated until this many are done or this much time is
/// spent, so that cheap set-ups are timed three times and dear ones do
/// not eat the run.
const SETUPS: usize = 3;
const SETUP_BUDGET: Duration = Duration::from_millis(2500);

/// An end-to-end metric has no layer prefix. In a traced run these
/// still come from the untraced repetitions.
pub fn is_end_to_end(name: &str) -> bool {
    !name.contains('.')
}

fn fresh_dir(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).expect("create the workload's temp dir under benchmark/out");
}

/// One timed sample into `sink`, with spans kept when `record` is set.
fn sample_once<W: Workload>(w: &mut W, tr: &mut Tracer, sink: &mut Sink, record: bool) {
    let batch = w.batch() as f64;
    tr.set_recording(record);
    tr.unit = sink.samples.get("wall_s").map_or(0, Vec::len) as u64;
    let root = tr.begin("benchmark.rep");
    w.sample(tr, sink);
    let wall = tr.end(root) / batch;
    sink.end_sample(batch);
    sink.sample("wall_s", wall);
    for (i, (name, units)) in w.work().into_iter().enumerate() {
        sink.sample(name, units / wall);
        if i == 0 {
            sink.sample("work_per_s", units / wall);
        }
    }
}

/// What tracing cost and where the traced repetitions spent their time.
fn trace_metrics(tr: &Tracer, plain: &Sink, traced: &mut Sink, batch: u64) {
    let reps = traced.samples["wall_s"].len() as f64 * batch as f64;
    let by_layer = self_time_by_layer(tr.spans());
    for (layer, secs) in &by_layer {
        traced.sample(&format!("trace.self_s.{layer}"), secs / reps);
    }
    let root: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent == 0)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e9)
        .sum();
    traced.sample("trace.root_self_ratio", by_layer["benchmark"] / root);
    let best = |sink: &Sink| {
        summarize(&sink.samples["wall_s"])
            .expect("timed samples")
            .min
    };
    traced.sample("trace.overhead_ratio", best(traced) / best(plain) - 1.0);
}

pub fn run<W: Workload>(opts: &Options) -> Record {
    let out = bench_dir().join("out");
    let tmp = out.join(format!("tmp-{}-{}", opts.workload, std::process::id()));
    let env = Env {
        seed: opts.seed,
        dir: tmp.clone(),
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
    };
    let mut tr = Tracer::new();
    let mut plain = Sink::default();
    let mut traced = Sink::default();

    let setups_started = Instant::now();
    let mut w = loop {
        fresh_dir(&tmp);
        let t = Instant::now();
        let w = W::setup(&env, &mut tr, &mut plain);
        plain.sample("setup_s", t.elapsed().as_secs_f64());
        let done =
            plain.samples["setup_s"].len() >= SETUPS || setups_started.elapsed() >= SETUP_BUDGET;
        if done || opts.quick {
            break w;
        }
    };

    // Untraced and traced samples take turns, so that a slow spell of
    // the host falls on both alike.
    let min = if opts.quick { 1 } else { 2 };
    let started = Instant::now();
    let mut n = 0;
    while n < min || started.elapsed().as_secs_f64() < opts.seconds {
        sample_once(&mut w, &mut tr, &mut plain, false);
        if opts.trace {
            sample_once(&mut w, &mut tr, &mut traced, true);
        }
        n += 1;
    }
    w.end_samples(&mut plain);
    if opts.trace {
        w.end_samples(&mut traced);
        trace_metrics(&tr, &plain, &mut traced, w.batch());
    }
    let layers = if opts.trace { &mut traced } else { &mut plain };
    w.passes(&mut tr, layers, opts.trace);
    let batch = w.batch();
    drop(w);
    let _ = std::fs::remove_dir_all(&tmp);

    if opts.trace {
        let path = out.join(format!("trace_{}.jsonl", opts.workload));
        if let Err(e) = tr.write_jsonl(&path) {
            traced
                .failures
                .push(format!("cannot write {}: {e}", path.display()));
        }
        let same = traced.digest == plain.digest;
        plain.check(same, || "traced run produced a different output".into());
    }
    let digest = plain.digest.unwrap_or(0);
    check_golden(opts, digest, &mut plain);
    if let Some(mib) = peak_rss_mib() {
        plain.sample("peak_rss_mb", mib);
    }
    let failed = (plain.failures.len() + traced.failures.len()) as f64;
    let attempted = plain.attempted + traced.attempted;
    plain.exact("fail_ratio", failed / attempted.max(1) as f64);

    // Layer metrics from the traced samples where there are any,
    // everything else (end-to-end, set-up) from the untraced ones.
    let mut names: Vec<&String> = plain.samples.keys().chain(plain.exact.keys()).collect();
    names.extend(traced.samples.keys().chain(traced.exact.keys()));
    names.sort();
    names.dedup();
    let metrics = names
        .into_iter()
        .filter_map(|name| {
            let from = if !is_end_to_end(name) && traced.summary(name).is_some() {
                &traced
            } else {
                &plain
            };
            from.summary(name).map(|summary| Metric {
                name: name.clone(),
                summary,
                exact: from.exact.contains_key(name),
            })
        })
        .collect();

    let mut failures = plain.failures;
    failures.extend(traced.failures);
    let mut stamps = plain.stamps;
    stamps.extend(traced.stamps);
    Record {
        workload: opts.workload.clone(),
        seed: opts.seed,
        seconds: opts.seconds,
        traced: opts.trace,
        batch,
        digest,
        attempted,
        failures,
        stamps,
        metrics,
    }
}

fn golden_path(workload: &str, seed: u64) -> PathBuf {
    bench_dir()
        .join("golden")
        .join(format!("{workload}.seed{seed}.txt"))
}

/// Compares against `golden/<workload>.seed<N>.txt` when that seed has
/// one; other seeds are held to the repetition-to-repetition check
/// alone. `--bless` rewrites the file instead.
fn check_golden(opts: &Options, digest: u64, sink: &mut Sink) {
    let path = golden_path(&opts.workload, opts.seed);
    let line = format!("{digest:016x}\n");
    if opts.bless {
        std::fs::write(&path, &line).expect("write golden digest");
        return;
    }
    if let Ok(want) = std::fs::read_to_string(&path) {
        sink.check(want == line, || {
            format!(
                "digest {} does not match {} ({})",
                line.trim(),
                want.trim(),
                path.display()
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn a_count_or_output_that_changes_is_a_failure() {
        let mut s = Sink::default();
        s.exact("sim.cycles", 10.0);
        s.exact("sim.cycles", 10.0);
        s.output("same");
        s.output("same");
        assert!(s.failures.is_empty());
        assert_eq!(s.attempted, 2);
        s.exact("sim.cycles", 11.0);
        s.output("other");
        assert_eq!(s.failures.len(), 2);
    }
}
