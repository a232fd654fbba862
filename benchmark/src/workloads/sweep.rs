//! The cold and the warm `fig41_two_app` path: build the measurement
//! pipeline (14 alone profiles + 105 pair co-runs through the sweep
//! engine) and run the thesis queue under Serial, FCFS and ILP grouping.
//!
//! `sweep_cold` starts every repetition from an empty cache directory,
//! so `core.sweep` simulates and writes; `sweep_warm` starts from the
//! directory a cold repetition left, so it reads and parses and `sim`
//! stays idle. A simulator speed-up must move the first and not the
//! second; a cache-format or codec change the reverse.
//!
//! The suite and the queue are the paper's fixed inputs: `--seed` does
//! not change these two.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use gcs_core::classify::classify_suite;
use gcs_core::queues::{paper_class, thesis_queue_14};
use gcs_core::runner::{AllocationPolicy, GroupingPolicy, Pipeline, QueueReport, RunConfig};
use gcs_core::sweep::{CorunMode, SweepEngine};
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

use crate::harness::{Env, Sink, Workload};
use crate::trace::Tracer;

const GROUPINGS: [(GroupingPolicy, &str, &str); 3] = [
    (
        GroupingPolicy::Serial,
        "core.run_queue.serial",
        "core.run_queue_s.serial",
    ),
    (
        GroupingPolicy::Fcfs,
        "core.run_queue.fcfs",
        "core.run_queue_s.fcfs",
    ),
    (
        GroupingPolicy::Ilp,
        "core.run_queue.ilp",
        "core.run_queue_s.ilp",
    ),
];

fn run_config() -> RunConfig {
    RunConfig {
        gpu: GpuConfig::gtx480(),
        scale: Scale::TEST,
        concurrency: 2,
    }
}

fn report_text(out: &mut String, tag: &str, r: &QueueReport) {
    write!(
        out,
        "{tag}:cycles={},insts={}",
        r.total_cycles, r.total_thread_insts
    )
    .unwrap();
    for g in &r.groups {
        out.push_str(" [");
        for a in &g.apps {
            write!(out, "{}:{}:{};", a.bench.name(), a.cycles, a.thread_insts).unwrap();
        }
        write!(out, "{}]", g.makespan).unwrap();
    }
    writeln!(out, " degraded={}", r.degradations.len()).unwrap();
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum()
}

/// One repetition of the fig41 path on a fresh engine over `cache`.
/// Returns `(jobs, simulated cycles)`. Writing the three reports out
/// costs 5 % of a warm repetition, so a batched caller asks for the
/// `digest` once a sample; the engine's exact counts hold the rest.
fn fig41(
    cache: &Path,
    threads: usize,
    digest: bool,
    tr: &mut Tracer,
    sink: &mut Sink,
) -> (u64, u64) {
    let open = tr.begin("core.engine_new");
    let engine = Arc::new(SweepEngine::new(threads).with_cache_dir(cache));
    tr.end(open);
    let open = tr.begin("core.pipeline_new");
    let built = Pipeline::new_with_engine(run_config(), Arc::clone(&engine));
    sink.add("core.pipeline_new_s", tr.end(open));
    let Ok(mut pipeline) = built else {
        sink.check(false, || {
            format!("pipeline build failed: {:?}", built.err())
        });
        return (0, 0);
    };

    let queue = thesis_queue_14();
    let mut text = String::new();
    for (grouping, span, metric) in GROUPINGS {
        let open = tr.begin(span);
        let report = pipeline.run_queue(&queue, grouping, AllocationPolicy::Even);
        sink.add(metric, tr.end(open));
        match report {
            Ok(r) if digest => report_text(&mut text, metric, &r),
            Ok(_) => {}
            Err(e) => sink.check(false, || format!("{metric}: {e}")),
        }
    }
    if digest {
        for b in Benchmark::ALL {
            write!(text, "{}={} ", b.name(), pipeline.class_of(b)).unwrap();
        }
        sink.output(&text);
    }

    let matches = Benchmark::ALL
        .iter()
        .filter(|&&b| pipeline.class_of(b) == paper_class(b))
        .count();
    sink.exact("class_match", matches as f64);

    // The plan and the counters as the engine itself reports them.
    let open = tr.begin("core.sweep.stats");
    let s = engine.stats();
    tr.end(open);
    sink.stamps
        .insert("sweep.threads".into(), engine.threads().to_string());
    sink.stamps
        .insert("sweep.sim_threads".into(), engine.sim_threads().to_string());
    sink.attempted += s.jobs_total;
    sink.add("core.sweep.wall_s", s.wall_nanos as f64 / 1e9);
    sink.add("core.sweep.serial_s", s.serial_nanos as f64 / 1e9);
    sink.add("core.sweep.speedup", s.speedup());
    sink.exact("core.sweep.jobs_simulated", s.jobs_simulated as f64);
    sink.exact("core.sweep.jobs_cached", s.jobs_cached as f64);
    sink.exact(
        "core.sweep.hit_ratio",
        s.jobs_cached as f64 / s.jobs_total.max(1) as f64,
    );
    sink.exact("core.sweep.sim_cycles", s.sim_cycles as f64);
    sink.exact("sim.cycles", s.sim_cycles as f64);
    sink.exact("core.sweep.retried", s.jobs_retried as f64);
    sink.exact("core.sweep.quarantined", s.jobs_quarantined as f64);
    if s.jobs_cached > 0 && s.jobs_simulated == 0 {
        sink.add(
            "core.sweep.cached_job_us",
            s.wall_nanos as f64 / 1e3 / s.jobs_cached as f64,
        );
    }
    (s.jobs_total, s.sim_cycles)
}

pub struct SweepCold {
    cache: PathBuf,
    threads: usize,
    jobs: u64,
    cycles: u64,
}

impl Workload for SweepCold {
    fn setup(env: &Env, tr: &mut Tracer, _sink: &mut Sink) -> Self {
        let mut w = SweepCold {
            cache: env.dir.join("cache"),
            threads: env.nproc,
            jobs: 0,
            cycles: 0,
        };
        w.sample(tr, &mut Sink::default());
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        let _ = std::fs::remove_dir_all(&self.cache);
        (self.jobs, self.cycles) = fig41(&self.cache, self.threads, true, tr, sink);
        sink.exact("core.sweep.cache_bytes", dir_bytes(&self.cache) as f64);
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![
            ("sim_cycles_per_s", self.cycles as f64),
            ("jobs_per_s", self.jobs as f64),
        ]
    }

    /// Traced run only: the 119 jobs again, one at a time on a
    /// sequential engine without a cache, host seconds summed by the
    /// class (pair) of the job. Locates a change in the memory-, cache-
    /// or compute-bound regime.
    fn passes(&mut self, tr: &mut Tracer, sink: &mut Sink, deep: bool) {
        if !deep {
            return;
        }
        let cfg = run_config();
        let engine = SweepEngine::sequential();
        let mut by_class = std::collections::BTreeMap::<String, f64>::new();
        let mut unit = 0;
        let root = tr.begin("benchmark.job_pass");
        for b in Benchmark::ALL {
            tr.unit = unit;
            unit += 1;
            let open = tr.begin("core.sweep.job");
            let done = engine.profile(&cfg.gpu, cfg.scale, b, cfg.gpu.num_sms);
            *by_class
                .entry(format!("alone-{}", paper_class(b)))
                .or_default() += tr.end(open);
            sink.check(done.is_ok(), || {
                format!("alone {}: {:?}", b.name(), done.err())
            });
        }
        for (i, a) in Benchmark::ALL.into_iter().enumerate() {
            for b in &Benchmark::ALL[i..] {
                tr.unit = unit;
                unit += 1;
                let open = tr.begin("core.sweep.job");
                let done = engine.corun(&cfg.gpu, cfg.scale, &[a, *b], &CorunMode::Even);
                let (lo, hi) = {
                    let (x, y) = (paper_class(a), paper_class(*b));
                    if x.index() <= y.index() {
                        (x, y)
                    } else {
                        (y, x)
                    }
                };
                *by_class.entry(format!("{lo}-{hi}")).or_default() += tr.end(open);
                sink.check(done.is_ok(), || {
                    format!("pair {}+{}: {:?}", a.name(), b.name(), done.err())
                });
            }
        }
        tr.end(root);
        for (class, secs) in by_class {
            sink.sample(&format!("core.sweep.job_s.{class}"), secs);
        }
    }
}

pub struct SweepWarm {
    cache: PathBuf,
    threads: usize,
    jobs: u64,
}

/// Repetitions per sample: one warm repetition is a few milliseconds.
const WARM_BATCH: u64 = 40;

impl Workload for SweepWarm {
    fn setup(env: &Env, tr: &mut Tracer, _sink: &mut Sink) -> Self {
        let cache = env.dir.join("cache");
        // The cold repetition that fills the directory.
        let (jobs, _) = fig41(&cache, env.nproc, false, tr, &mut Sink::default());
        let mut w = SweepWarm {
            cache,
            threads: env.nproc,
            jobs,
        };
        w.sample(tr, &mut Sink::default());
        w
    }

    fn sample(&mut self, tr: &mut Tracer, sink: &mut Sink) {
        for rep in 0..WARM_BATCH {
            fig41(&self.cache, self.threads, rep == 0, tr, sink);
        }
        sink.exact("core.sweep.cache_bytes", dir_bytes(&self.cache) as f64);
    }

    fn batch(&self) -> u64 {
        WARM_BATCH
    }

    fn work(&self) -> Vec<(&'static str, f64)> {
        vec![("jobs_per_s", self.jobs as f64)]
    }

    /// The two pure-compute steps of a warm repetition on their own.
    fn passes(&mut self, tr: &mut Tracer, sink: &mut Sink, _deep: bool) {
        let cfg = run_config();
        let engine = Arc::new(SweepEngine::sequential().with_cache_dir(&self.cache));
        let profiles = engine
            .profile_suite(&cfg.gpu, cfg.scale, &Benchmark::ALL)
            .expect("profiles are cached");
        let pipeline = Pipeline::new_with_engine(cfg.clone(), engine).expect("warm pipeline");
        let queue = thesis_queue_14();
        const LOOPS: u32 = 2_000;
        let open = tr.begin("core.classify");
        for _ in 0..LOOPS {
            std::hint::black_box(classify_suite(&cfg.gpu, std::hint::black_box(&profiles)));
        }
        sink.sample("core.classify_us", tr.end(open) * 1e6 / f64::from(LOOPS));
        let open = tr.begin("core.group_ilp");
        for _ in 0..LOOPS {
            let groups = pipeline.group(std::hint::black_box(&queue), GroupingPolicy::Ilp);
            std::hint::black_box(groups.expect("ilp grouping"));
        }
        sink.sample("core.group_ilp_us", tr.end(open) * 1e6 / f64::from(LOOPS));
    }
}
