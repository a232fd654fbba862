//! Parallel co-run sweep engine with memoized simulation results.
//!
//! Every experiment in this repository reduces to a bag of *independent*
//! device simulations: alone-run profiles, pair co-runs for the
//! interference matrix, and whole-group co-runs under an allocation
//! policy. Each job is a pure function of `(GpuConfig, Scale, benches,
//! mode)` — the simulator seeds its per-SM RNGs from the SM index alone
//! (see `gcs_sim::rng`), so a job's outcome does not depend on wall
//! clock, thread scheduling, or what else ran before it.
//!
//! [`SweepEngine`] exploits both properties:
//!
//! * **Parallelism** — [`SweepEngine::run_parallel`] fans jobs across a
//!   fixed thread pool (`std::thread::scope`, no external runtime) and
//!   stores each result in a slot keyed by its job index, so the
//!   assembled output is bit-identical to the sequential path at any
//!   thread count.
//! * **Memoization** — in process, every typed job is keyed by its
//!   typed description (device config, scale, members, SM count or
//!   co-run mode) and maps to its decoded result, so a warm hit formats
//!   and parses nothing. When a cache directory is configured, results
//!   also live as one small JSON file per entry under e.g.
//!   `results/cache/`, named by the FNV-1a hash of the job's canonical
//!   `v1|…` string, which is rendered only on an in-process miss. Floats
//!   are stored as IEEE-754 bit patterns so round-trips are exact; a
//!   corrupted or truncated file is treated as a miss, never an error.
//!
//! [`SweepStats`] counts what happened (jobs simulated vs. served from
//! cache, peak in-flight parallelism, simulated cycles, estimated
//! speedup) and is printed by the `gcs-bench` harness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::hash::{Hash, Hasher};
use std::iter;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, PhaseCycles, MAX_APPS};
use gcs_sim::kernel::AppId;
use gcs_sim::wire::{fnv1a, push_str_escaped, Scan, WireError};
use gcs_workloads::{Benchmark, Scale};

use gcs_sim::gpu::SimError;
use gcs_sim::KernelTrace;

use crate::fault::RetryPolicy;
use crate::profile::{
    profile_trace_with_sms_phases, profile_with_sms_phases, AppProfile, PROFILE_MAX_CYCLES,
};
use crate::smra::{SmraController, SmraParams};
use crate::CoreError;

/// A schedulable workload: a synthetic suite benchmark or a recorded /
/// hand-authored trace replayed through the simulator.
///
/// Traces are content-addressed — the cache-key token embeds the
/// trace's FNV fingerprint, so two different traces that share a name
/// can never collide in the memo cache, while `Bench` tokens stay
/// byte-identical to the pre-trace key format.
#[derive(Debug, Clone)]
pub enum Workload {
    /// A synthetic suite benchmark (scaled at launch time).
    Bench(Benchmark),
    /// A recorded or authored trace (scale-invariant content).
    Trace(Arc<KernelTrace>),
}

impl Workload {
    /// Display name (benchmark name or the trace's recorded name).
    pub fn name(&self) -> String {
        match self {
            Workload::Bench(b) => b.name().to_string(),
            Workload::Trace(t) => t.meta.name.clone(),
        }
    }

    /// Launches the workload on `gpu`.
    fn launch(&self, gpu: &mut Gpu, scale: Scale) -> Result<AppId, SimError> {
        match self {
            Workload::Bench(b) => gpu.launch(b.kernel(scale)),
            Workload::Trace(t) => gpu.launch_traced(Arc::clone(t)),
        }
    }
}

impl From<Benchmark> for Workload {
    fn from(b: Benchmark) -> Workload {
        Workload::Bench(b)
    }
}

impl From<Arc<KernelTrace>> for Workload {
    fn from(t: Arc<KernelTrace>) -> Workload {
        Workload::Trace(t)
    }
}

/// How a co-run job divides SMs among its group members.
#[derive(Debug, Clone, PartialEq)]
pub enum CorunMode {
    /// Equal split ([`Gpu::partition_even`]).
    Even,
    /// Explicit per-app SM counts ([`Gpu::partition_counts`]).
    Counts(Vec<u32>),
    /// Even start plus the Algorithm 1 dynamic controller.
    Smra(SmraParams),
}

/// Outcome of one co-run job, in launch order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupOutcome {
    /// Per-app runtime cycles (first dispatch to retirement, ≥ 1).
    pub cycles: Vec<u64>,
    /// Per-app thread instructions retired.
    pub thread_insts: Vec<u64>,
    /// Device cycles until every member finished.
    pub makespan: u64,
}

/// Snapshot of the engine's counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepStats {
    /// Typed jobs requested (cached + simulated).
    pub jobs_total: u64,
    /// Jobs that actually ran on the simulator.
    pub jobs_simulated: u64,
    /// Jobs served from the in-process or on-disk cache.
    pub jobs_cached: u64,
    /// Peak number of jobs executing concurrently.
    pub max_in_flight: usize,
    /// Simulated device cycles across all simulated jobs.
    pub sim_cycles: u64,
    /// Sum of per-job wall times (what a sequential sweep would cost).
    pub serial_nanos: u64,
    /// Wall time spent inside parallel batches.
    pub wall_nanos: u64,
    /// Jobs that failed at least once and then succeeded on retry.
    pub jobs_retried: u64,
    /// Corrupt on-disk cache entries moved to the quarantine directory.
    pub jobs_quarantined: u64,
    /// Phase-cycle totals across all *simulated* jobs; all zero unless
    /// the engine was built with [`SweepEngine::with_phase_profiling`].
    /// Cached jobs contribute nothing (their cycles are not in
    /// `sim_cycles` either), so `phases.total() == sim_cycles` whenever
    /// profiling was on for the engine's whole life.
    pub phases: PhaseCycles,
}

impl SweepStats {
    /// Estimated parallel speedup: summed per-job time over batch wall
    /// time. 1.0 when nothing ran in a batch yet.
    pub fn speedup(&self) -> f64 {
        if self.wall_nanos == 0 {
            return 1.0;
        }
        self.serial_nanos as f64 / self.wall_nanos as f64
    }

    /// Deterministic phase-profile report: pure cycle counters, no
    /// wall-clock fields, so the output is byte-identical at any worker
    /// thread count (job sums commute).
    pub fn profile_report(&self) -> String {
        let p = &self.phases;
        format!(
            "profile: issue={} l1={} l2={} dram={} smra={} idle={} total={} sim_cycles={}",
            p.issue,
            p.l1,
            p.l2,
            p.dram,
            p.smra,
            p.idle,
            p.total(),
            self.sim_cycles,
        )
    }
}

impl std::fmt::Display for SweepStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "sweep: {} jobs ({} simulated, {} cached), peak {} in flight, \
             {:.2e} simulated cycles, est. speedup {:.2}x ({:.2}s serial vs {:.2}s wall)",
            self.jobs_total,
            self.jobs_simulated,
            self.jobs_cached,
            self.max_in_flight,
            self.sim_cycles as f64,
            self.speedup(),
            self.serial_nanos as f64 / 1e9,
            self.wall_nanos as f64 / 1e9,
        )?;
        if self.jobs_retried > 0 {
            write!(f, ", {} retried", self.jobs_retried)?;
        }
        if self.jobs_quarantined > 0 {
            write!(f, ", {} cache entries quarantined", self.jobs_quarantined)?;
        }
        Ok(())
    }
}

/// A memoized job result, decoded: what a warm hit hands back.
#[derive(Debug)]
enum Memo {
    Profile(AppProfile),
    Group(GroupOutcome),
}

/// The in-process memo: the interned device configs, each with its
/// rendered [`config_key`] (only the disk path reads it), the interned
/// traces, and one map from fixed-size job key to decoded result.
#[derive(Debug, Default)]
struct MemoTable {
    configs: Vec<(GpuConfig, String)>,
    /// Trace members by name and content fingerprint, each with the
    /// first `Arc` interned under them; the member id of `traces[i]` is
    /// `BENCH_IDS + i`.
    traces: Vec<(Arc<KernelTrace>, u64)>,
    jobs: HashMap<JobKey, Memo>,
}

impl MemoTable {
    /// The key of a job, interning its config and members; `None` when
    /// the job has more members or split entries than a device has app
    /// slots ([`MAX_APPS`]), which the simulator refuses anyway.
    fn key<'a>(
        &mut self,
        cfg: &GpuConfig,
        scale: Scale,
        members: impl Iterator<Item = Member<'a>>,
        mode: Mode,
        counts: &[u32],
    ) -> Option<JobKey> {
        let cfg = self.config_id(cfg);
        let mut ids = [0; MAX_APPS];
        let mut len = 0;
        for m in members {
            *ids.get_mut(len)? = self.member_id(m);
            len += 1;
        }
        JobKey::new(cfg, scale, &ids[..len], mode, counts)
    }

    /// The intern id of `cfg`, compared with `==`.
    fn config_id(&mut self, cfg: &GpuConfig) -> u32 {
        let i = match self.configs.iter().position(|(c, _)| c == cfg) {
            Some(i) => i,
            None => {
                self.configs.push((cfg.clone(), config_key(cfg)));
                self.configs.len() - 1
            }
        };
        u32::try_from(i).expect("fewer than 2^32 device configs")
    }

    /// The member id of `m`: a benchmark's suite index, or a trace's
    /// slot in `traces` (by name and fingerprint) past the benchmarks.
    /// The `Arc` an entry was interned from matches by pointer, without
    /// re-encoding the trace; the table holds that `Arc`, so its address
    /// cannot be reused by another trace. Any other `Arc` is
    /// fingerprinted.
    fn member_id(&mut self, m: Member<'_>) -> u32 {
        let t = match m {
            Member::Bench(b) => return b as u32,
            Member::Trace(t) => t,
        };
        let seen = self.traces.iter().position(|(a, _)| Arc::ptr_eq(a, t));
        let i = seen.unwrap_or_else(|| {
            let fp = t.fingerprint();
            self.traces
                .iter()
                .position(|(a, f)| *f == fp && a.meta.name == t.meta.name)
                .unwrap_or_else(|| {
                    self.traces.push((Arc::clone(t), fp));
                    self.traces.len() - 1
                })
        });
        BENCH_IDS + u32::try_from(i).expect("fewer than 2^32 traces")
    }

    /// The display name of member `id` (a profile's `name`).
    fn member_name(&self, id: u32) -> String {
        match id.checked_sub(BENCH_IDS) {
            None => Benchmark::ALL[id as usize].name().to_string(),
            Some(t) => self.traces[t as usize].0.meta.name.clone(),
        }
    }

    /// The `v1|…` disk-cache key of `job`, byte-identical to the format
    /// every existing cache entry was written with.
    fn render(&self, job: &JobKey) -> String {
        let config_key = &self.configs[job.cfg as usize].1;
        let mut s = String::with_capacity(96 + config_key.len());
        let kind = match job.mode {
            Mode::Profile { .. } => "profile",
            _ => "corun",
        };
        let _ = write!(s, "v1|{kind}|");
        for (i, &m) in job.members().iter().enumerate() {
            if i > 0 {
                s.push('+');
            }
            match m.checked_sub(BENCH_IDS) {
                None => s.push_str(Benchmark::ALL[m as usize].name()),
                Some(t) => {
                    let (trace, fp) = &self.traces[t as usize];
                    let _ = write!(s, "trace:{}#{fp:016x}", trace.meta.name);
                }
            }
        }
        match job.mode {
            Mode::Profile { num_sms } => {
                let _ = write!(s, "|sms={num_sms}");
            }
            Mode::Even => s.push_str("|even"),
            Mode::Counts => {
                s.push_str("|counts:");
                for (i, n) in job.counts().iter().enumerate() {
                    if i > 0 {
                        s.push('-');
                    }
                    let _ = write!(s, "{n}");
                }
            }
            Mode::Smra {
                tc,
                ipc,
                bw,
                nr,
                r_min,
            } => {
                let _ = write!(
                    s,
                    "|smra:tc={tc},ipc={ipc:016x},bw={bw:016x},nr={nr},rmin={r_min}"
                );
            }
        }
        let _ = write!(s, "|i:{:016x},g:{:016x}|", job.scale[0], job.scale[1]);
        s.push_str(config_key);
        s
    }
}

/// The parallel sweep executor + memoization cache.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every
/// consumer so they pool cache hits and statistics.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    /// When set, simulated jobs run with the device phase profiler on
    /// and their [`PhaseCycles`] accumulate into `phases`. Never part of
    /// cache keys or entries: profiling does not change results.
    profile_phases: bool,
    phases: Mutex<PhaseCycles>,
    memo: Mutex<MemoTable>,
    jobs_total: AtomicU64,
    jobs_simulated: AtomicU64,
    jobs_cached: AtomicU64,
    in_flight: AtomicUsize,
    max_in_flight: AtomicUsize,
    sim_cycles: AtomicU64,
    serial_nanos: AtomicU64,
    wall_nanos: AtomicU64,
    jobs_retried: AtomicU64,
    jobs_quarantined: AtomicU64,
}

impl SweepEngine {
    /// An engine running jobs on `threads` worker threads (clamped to at
    /// least 1), with no disk cache.
    pub fn new(threads: usize) -> Self {
        SweepEngine {
            threads: threads.max(1),
            cache_dir: None,
            retry: RetryPolicy::NONE,
            profile_phases: false,
            phases: Mutex::new(PhaseCycles::default()),
            memo: Mutex::new(MemoTable::default()),
            jobs_total: AtomicU64::new(0),
            jobs_simulated: AtomicU64::new(0),
            jobs_cached: AtomicU64::new(0),
            in_flight: AtomicUsize::new(0),
            max_in_flight: AtomicUsize::new(0),
            sim_cycles: AtomicU64::new(0),
            serial_nanos: AtomicU64::new(0),
            wall_nanos: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            jobs_quarantined: AtomicU64::new(0),
        }
    }

    /// Strictly sequential engine (one worker, no disk cache) — the
    /// reference the determinism tests compare against.
    pub fn sequential() -> Self {
        Self::new(1)
    }

    /// An engine sized to the machine's available parallelism.
    pub fn auto() -> Self {
        Self::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Persists (and reads back) memoized results under `dir`, one JSON
    /// file per entry. The directory is created lazily on first store.
    #[must_use]
    pub fn with_cache_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.cache_dir = Some(dir.into());
        self
    }

    /// Retries transiently failing jobs under `policy` (the default is
    /// [`RetryPolicy::NONE`]: simulator jobs are deterministic, so a
    /// failure normally replays identically). Panics are never retried.
    #[must_use]
    pub fn with_retry_policy(mut self, policy: RetryPolicy) -> Self {
        self.retry = policy;
        self
    }

    /// Collects per-phase device cycles for every job this engine
    /// simulates (the `--profile` flag of the `repro` figures). Off by
    /// default; results and cache keys are unaffected either way.
    #[must_use]
    pub fn with_phase_profiling(mut self, on: bool) -> Self {
        self.profile_phases = on;
        self
    }

    /// Always 1; the benchmark stamps it as `sweep.sim_threads`.
    pub fn sim_threads(&self) -> usize {
        1
    }

    fn add_phases(&self, p: &PhaseCycles) {
        self.phases
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .add(p);
    }

    /// Worker thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> SweepStats {
        SweepStats {
            jobs_total: self.jobs_total.load(Ordering::Relaxed),
            jobs_simulated: self.jobs_simulated.load(Ordering::Relaxed),
            jobs_cached: self.jobs_cached.load(Ordering::Relaxed),
            max_in_flight: self.max_in_flight.load(Ordering::Relaxed),
            sim_cycles: self.sim_cycles.load(Ordering::Relaxed),
            serial_nanos: self.serial_nanos.load(Ordering::Relaxed),
            wall_nanos: self.wall_nanos.load(Ordering::Relaxed),
            jobs_retried: self.jobs_retried.load(Ordering::Relaxed),
            jobs_quarantined: self.jobs_quarantined.load(Ordering::Relaxed),
            phases: *self.phases.lock().unwrap_or_else(|e| e.into_inner()),
        }
    }

    // ------------------------------------------------------------------
    // Parallel executor
    // ------------------------------------------------------------------

    /// Runs `jobs` independent closures `f(0) .. f(jobs - 1)` across the
    /// worker pool and returns their results **in job-index order** —
    /// the output is identical at every thread count, so callers may
    /// treat a parallel sweep as a drop-in for the sequential loop.
    ///
    /// Worker threads pull indices from a shared counter; a slot per job
    /// collects the result. On failure the error of the *lowest* failing
    /// job index is returned (also deterministic). A panicking job does
    /// not take the pool down: the panic is caught per job and reported
    /// as [`CoreError::Worker`], while every other job still runs. Use
    /// [`SweepEngine::run_parallel_salvage`] to also recover the
    /// successful results of a partially failed batch.
    ///
    /// # Errors
    ///
    /// The first (by job index) error any job produced.
    pub fn run_parallel<T, F>(&self, jobs: usize, f: F) -> Result<Vec<T>, CoreError>
    where
        T: Send,
        F: Fn(usize) -> Result<T, CoreError> + Sync,
    {
        let mut out = Vec::with_capacity(jobs);
        for r in self.execute(jobs, f) {
            out.push(r?);
        }
        Ok(out)
    }

    /// Like [`SweepEngine::run_parallel`], but salvages the batch: every
    /// job's individual outcome is returned in job-index order, so the
    /// results that completed survive even when sibling jobs failed or
    /// panicked. Callers that can make progress on partial data should
    /// prefer this over aborting the whole sweep.
    pub fn run_parallel_salvage<T, F>(&self, jobs: usize, f: F) -> Vec<Result<T, CoreError>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, CoreError> + Sync,
    {
        self.execute(jobs, f)
    }

    fn execute<T, F>(&self, jobs: usize, f: F) -> Vec<Result<T, CoreError>>
    where
        T: Send,
        F: Fn(usize) -> Result<T, CoreError> + Sync,
    {
        if jobs == 0 {
            return Vec::new();
        }
        let slots: Vec<Mutex<Option<Result<T, CoreError>>>> =
            (0..jobs).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);
        let wall = Instant::now();

        let worker = |_worker_id: usize| loop {
            let i = next.fetch_add(1, Ordering::Relaxed);
            if i >= jobs {
                break;
            }
            let live = self.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
            self.max_in_flight.fetch_max(live, Ordering::Relaxed);
            let t = Instant::now();
            let r = self.run_one(i, &f);
            let spent = u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.serial_nanos.fetch_add(spent, Ordering::Relaxed);
            self.in_flight.fetch_sub(1, Ordering::Relaxed);
            *slots[i].lock().unwrap_or_else(|e| e.into_inner()) = Some(r);
        };

        let workers = self.threads.min(jobs);
        if workers <= 1 {
            worker(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..workers {
                    s.spawn(move || worker(w));
                }
            });
        }
        let spent = u64::try_from(wall.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.wall_nanos.fetch_add(spent, Ordering::Relaxed);

        slots
            .into_iter()
            .enumerate()
            .map(|(i, slot)| {
                slot.into_inner()
                    .unwrap_or_else(|e| e.into_inner())
                    .unwrap_or_else(|| {
                        Err(CoreError::Worker {
                            job: i,
                            message: "worker exited before storing a result".into(),
                        })
                    })
            })
            .collect()
    }

    /// One job with panic isolation and the engine's retry policy: a
    /// panic becomes [`CoreError::Worker`] immediately (deterministic
    /// code would just panic again), while a plain error is retried up
    /// to `max_retries` times with bounded backoff.
    fn run_one<T>(
        &self,
        i: usize,
        f: &(impl Fn(usize) -> Result<T, CoreError> + Sync),
    ) -> Result<T, CoreError> {
        let mut attempt = 0u32;
        loop {
            match catch_unwind(AssertUnwindSafe(|| f(i))) {
                Err(payload) => {
                    return Err(CoreError::Worker {
                        job: i,
                        message: panic_message(payload.as_ref()),
                    });
                }
                Ok(Ok(v)) => {
                    if attempt > 0 {
                        self.jobs_retried.fetch_add(1, Ordering::Relaxed);
                    }
                    return Ok(v);
                }
                Ok(Err(e)) => {
                    if attempt >= self.retry.max_retries {
                        return Err(e);
                    }
                    attempt += 1;
                    let pause = self.retry.backoff(attempt);
                    if !pause.is_zero() {
                        std::thread::sleep(pause);
                    }
                }
            }
        }
    }

    // ------------------------------------------------------------------
    // Typed, memoized jobs
    // ------------------------------------------------------------------

    /// Alone-run profile of `bench` on the first `num_sms` SMs, memoized.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn profile(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        bench: Benchmark,
        num_sms: u32,
    ) -> Result<AppProfile, CoreError> {
        self.profile_workload(cfg, scale, &Workload::Bench(bench), num_sms)
    }

    /// Alone-run profile of any [`Workload`] — benchmark or trace — on
    /// the first `num_sms` SMs, memoized. For `Bench` workloads this is
    /// exactly [`SweepEngine::profile`] (same cache key, same result).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn profile_workload(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        workload: &Workload,
        num_sms: u32,
    ) -> Result<AppProfile, CoreError> {
        let mode = Mode::Profile { num_sms };
        let member = iter::once(workload.member());
        self.cached(cfg, scale, member, mode, &[], AppProfile::clone, || {
            let (mut p, phases) = match workload {
                Workload::Bench(b) => {
                    profile_with_sms_phases(&b.kernel(scale), cfg, num_sms, self.profile_phases)?
                }
                Workload::Trace(t) => {
                    profile_trace_with_sms_phases(t, cfg, num_sms, self.profile_phases)?
                }
            };
            // With profiling on, account the device cycles actually
            // stepped (the app-relative runtime can undercount the tail
            // by a cycle) so phase totals partition sim_cycles exactly.
            self.account(phases, p.cycles);
            p.name = workload.name();
            Ok(p)
        })
    }

    /// Cache-only probe of [`SweepEngine::profile_workload`]: returns
    /// the memoized profile if (and only if) the exact `(workload,
    /// num_sms, config, scale)` entry is already in the in-process map
    /// or the on-disk cache, and **never simulates**. A miss returns
    /// `None` and leaves the engine untouched — no counters move, so
    /// `jobs_simulated` stays an honest record of simulation work.
    ///
    /// This is the predictor-facing entry point for planners that must
    /// stay cheap in the plan path (e.g. the fleet allocator): a warm
    /// cache serves every curve point for free, and a cold cache is a
    /// signal to degrade rather than a license to simulate.
    pub fn profile_workload_cached(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        workload: &Workload,
        num_sms: u32,
    ) -> Option<AppProfile> {
        let mode = Mode::Profile { num_sms };
        let member = iter::once(workload.member());
        self.lookup(cfg, scale, member, mode, &[], &mut AppProfile::clone)
            .ok()
    }

    /// In-process batch probe of [`SweepEngine::profile_workload`]'s
    /// `cycles`: appends one entry to `out` per budget in `sms`. An
    /// entry is `Some` when the exact job is already in the in-process
    /// map, counted as `profile_workload` counts a memo hit (one job,
    /// cached). A miss is `None`, reads no disk and moves no counter, so
    /// the caller sends it on to `profile_workload`, which counts it
    /// there — a probe-first batch keeps the counters of sending every
    /// job through `profile_workload`. The batch takes the memo lock
    /// and interns `cfg` once, and a hit reads the stored profile in
    /// place, so a benchmark workload's hit neither clones a profile
    /// nor allocates.
    pub fn profile_cycles_memo(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        workload: &Workload,
        sms: &[u32],
        out: &mut Vec<Option<u64>>,
    ) {
        let mut hits = 0u64;
        {
            let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
            let id = memo.config_id(cfg);
            let member = [memo.member_id(workload.member())];
            for &num_sms in sms {
                let mode = Mode::Profile { num_sms };
                let key = JobKey::new(id, scale, &member, mode, &[]).expect("one member");
                let cycles = match memo.jobs.get(&key) {
                    Some(Memo::Profile(p)) => Some(p.cycles),
                    _ => None,
                };
                hits += u64::from(cycles.is_some());
                out.push(cycles);
            }
        }
        self.jobs_total.fetch_add(hits, Ordering::Relaxed);
        self.jobs_cached.fetch_add(hits, Ordering::Relaxed);
    }

    /// Full-device alone profiles for `suite`, one parallel batch.
    ///
    /// # Errors
    ///
    /// Propagates the first (by suite index) profiling failure.
    pub fn profile_suite(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        suite: &[Benchmark],
    ) -> Result<Vec<AppProfile>, CoreError> {
        self.run_parallel(suite.len(), |i| self.profile(cfg, scale, suite[i], cfg.num_sms))
    }

    /// Co-runs `group` under `mode`, memoized.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty group.
    pub fn corun(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        group: &[Benchmark],
        mode: &CorunMode,
    ) -> Result<GroupOutcome, CoreError> {
        let members = group.iter().map(|&b| Member::Bench(b));
        self.corun_job(cfg, scale, members, mode, GroupOutcome::clone, || {
            let ws: Vec<Workload> = group.iter().map(|&b| Workload::Bench(b)).collect();
            simulate_corun(cfg, scale, &ws, mode, self.profile_phases)
        })
    }

    /// Co-runs a mixed group of [`Workload`]s under `mode`, memoized,
    /// and returns what `read` makes of the outcome: `read` sees it by
    /// reference — a memo hit where it is stored, under the memo lock,
    /// so `read` must not call back into the engine. The members are
    /// borrowed one by one, so a warm hit allocates nothing unless
    /// `read` does (`GroupOutcome::clone` for an owned outcome); a miss
    /// collects them to simulate. For all-`Bench` groups this is
    /// exactly [`SweepEngine::corun`] (same key, same counters).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty group.
    pub fn corun_with<'w, R>(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        group: impl ExactSizeIterator<Item = &'w Workload> + Clone,
        mode: &CorunMode,
        read: impl FnMut(&GroupOutcome) -> R,
    ) -> Result<R, CoreError> {
        let members = group.clone().map(Workload::member);
        self.corun_job(cfg, scale, members, mode, read, || {
            let ws: Vec<Workload> = group.cloned().collect();
            simulate_corun(cfg, scale, &ws, mode, self.profile_phases)
        })
    }

    fn corun_job<'a, R>(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        members: impl ExactSizeIterator<Item = Member<'a>>,
        mode: &CorunMode,
        read: impl FnMut(&GroupOutcome) -> R,
        simulate: impl FnOnce() -> Result<(GroupOutcome, Option<PhaseCycles>), CoreError>,
    ) -> Result<R, CoreError> {
        assert!(members.len() > 0, "empty co-run group");
        let (mode, counts) = Mode::of(mode);
        self.cached(cfg, scale, members, mode, counts, read, || {
            let (out, phases) = simulate()?;
            self.account(phases, out.makespan);
            Ok(out)
        })
    }

    /// Runs a batch of co-run jobs in parallel, results in job order.
    ///
    /// # Errors
    ///
    /// The first (by job index) failure.
    pub fn corun_batch(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        jobs: &[(Vec<Benchmark>, CorunMode)],
    ) -> Result<Vec<GroupOutcome>, CoreError> {
        self.run_parallel(jobs.len(), |i| self.corun(cfg, scale, &jobs[i].0, &jobs[i].1))
    }

    /// Adds one simulated job's cycles: the profiled phase total when
    /// profiling is on, otherwise `cycles`.
    fn account(&self, phases: Option<PhaseCycles>, cycles: u64) {
        match phases {
            Some(ph) => {
                self.sim_cycles.fetch_add(ph.total(), Ordering::Relaxed);
                self.add_phases(&ph);
            }
            None => {
                self.sim_cycles.fetch_add(cycles, Ordering::Relaxed);
            }
        }
    }

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    /// Serves the job from the memo or disk, or simulates and stores
    /// it, and returns what `read` makes of the value. A job with no
    /// key (more members than app slots) goes straight to `simulate`,
    /// which refuses it.
    #[allow(clippy::too_many_arguments)]
    fn cached<'a, T: Memoized, R>(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        members: impl Iterator<Item = Member<'a>>,
        mode: Mode,
        counts: &[u32],
        mut read: impl FnMut(&T) -> R,
        simulate: impl FnOnce() -> Result<T, CoreError>,
    ) -> Result<R, CoreError> {
        self.jobs_total.fetch_add(1, Ordering::Relaxed);
        let miss = match self.lookup(cfg, scale, members, mode, counts, &mut read) {
            Ok(r) => {
                self.jobs_cached.fetch_add(1, Ordering::Relaxed);
                return Ok(r);
            }
            Err(miss) => miss,
        };
        let v = simulate()?;
        self.jobs_simulated.fetch_add(1, Ordering::Relaxed);
        let r = read(&v);
        if let Some(miss) = miss {
            self.store(*miss, v);
        }
        Ok(r)
    }

    /// The in-process map first, read in place, then disk. The `v1|…`
    /// key string is rendered only when the map misses; the disk path
    /// verifies the stored full key against it, so an FNV collision
    /// degrades to a miss instead of returning a wrong result. The
    /// miss is `None` for a job with no key.
    fn lookup<'a, T: Memoized, R>(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        members: impl Iterator<Item = Member<'a>>,
        mode: Mode,
        counts: &[u32],
        read: &mut impl FnMut(&T) -> R,
    ) -> Result<R, Option<Box<Miss>>> {
        let (job, key, name) = {
            let mut memo = self.memo.lock().unwrap_or_else(|e| e.into_inner());
            let job = memo.key(cfg, scale, members, mode, counts).ok_or(None)?;
            if let Some(v) = memo.jobs.get(&job).and_then(T::get) {
                return Ok(read(v));
            }
            (job, memo.render(&job), memo.member_name(job.members[0]))
        };
        let hash = fnv1a(key.as_bytes());
        if let Some(v) = self
            .read_disk(hash, &key)
            .and_then(|f| T::decode(&f, job.members().len(), name))
        {
            let r = read(&v);
            self.memo
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .jobs
                .insert(job, v.into_memo());
            return Ok(r);
        }
        Err(Some(Box::new(Miss { job, key, hash })))
    }

    /// The fields of the disk entry at `hash` if its stored key is
    /// `key`. An unparseable file is quarantined; a full-key mismatch
    /// is an FNV collision with some *other* valid job, not
    /// corruption, so that file is left alone.
    fn read_disk(&self, hash: u64, key: &str) -> Option<Vec<(String, u64)>> {
        let dir = self.cache_dir.as_ref()?;
        let path = entry_path(dir, hash);
        let text = std::fs::read_to_string(&path).ok()?;
        let Ok((stored_key, fields)) = parse_entry(&text) else {
            self.quarantine(dir, &path);
            return None;
        };
        (stored_key == key).then_some(fields)
    }

    /// Moves an unparseable cache file into `<dir>/quarantine/` so it is
    /// preserved for inspection but never consulted again; the caller
    /// treats the lookup as a miss and re-simulates (which writes a
    /// fresh entry at the original path).
    fn quarantine(&self, dir: &Path, path: &Path) {
        let qdir = dir.join("quarantine");
        let _ = std::fs::create_dir_all(&qdir);
        let name = path
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_else(|| "entry.json".into());
        if std::fs::rename(path, qdir.join(&name)).is_err() {
            // Last resort: a corrupt file that cannot be moved must not
            // shadow the repaired entry either.
            let _ = std::fs::remove_file(path);
        }
        self.jobs_quarantined.fetch_add(1, Ordering::Relaxed);
        eprintln!("warning: quarantined corrupt sweep cache entry {name}");
    }

    fn store<T: Memoized>(&self, miss: Miss, v: T) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::create_dir_all(dir);
            let text = render_entry(&miss.key, &v.encode());
            if write_entry_atomic(dir, miss.hash, &text).is_err() {
                eprintln!(
                    "warning: could not persist sweep cache entry {:016x}",
                    miss.hash
                );
            }
        }
        self.memo
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .jobs
            .insert(miss.job, v.into_memo());
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::auto()
    }
}

// ----------------------------------------------------------------------
// Simulation bodies
// ----------------------------------------------------------------------

/// Runs one co-run group on a fresh device. This is the single code
/// path behind interference pairs, policy co-runs and queue groups; it
/// reproduces `Pipeline::run_group`'s original semantics exactly.
fn simulate_corun(
    cfg: &GpuConfig,
    scale: Scale,
    group: &[Workload],
    mode: &CorunMode,
    profile_phases: bool,
) -> Result<(GroupOutcome, Option<PhaseCycles>), CoreError> {
    let mut gpu = Gpu::new(cfg.clone())?;
    gpu.set_profiling(profile_phases);
    let mut ids: Vec<AppId> = Vec::with_capacity(group.len());
    for w in group {
        ids.push(w.launch(&mut gpu, scale)?);
    }
    match mode {
        CorunMode::Even => {
            gpu.partition_even();
            gpu.run(PROFILE_MAX_CYCLES)?;
        }
        CorunMode::Counts(counts) => {
            gpu.partition_counts(counts);
            gpu.run(PROFILE_MAX_CYCLES)?;
        }
        CorunMode::Smra(params) => {
            gpu.partition_even();
            let mut ctl = SmraController::new(*params, ids.clone(), &gpu);
            ctl.run_to_completion(&mut gpu, PROFILE_MAX_CYCLES)?;
        }
    }
    let mut cycles = Vec::with_capacity(ids.len());
    let mut thread_insts = Vec::with_capacity(ids.len());
    for &id in &ids {
        let s = gpu.stats().app(id);
        cycles.push(s.runtime_cycles().max(1));
        thread_insts.push(s.thread_insts);
    }
    Ok((
        GroupOutcome {
            cycles,
            thread_insts,
            makespan: gpu.cycle(),
        },
        gpu.phase_cycles(),
    ))
}

// ----------------------------------------------------------------------
// Cache keys
// ----------------------------------------------------------------------
//
// In memory a job is keyed by a fixed-size [`JobKey`]: the config and
// each member are interned `u32` ids and a co-run's SM split sits
// inline, so a warm hit builds its key on the stack and neither formats
// nor allocates. The `v1|…` string the disk cache is keyed by (file
// name = its FNV-1a hash; the full string is stored in the entry to
// catch collisions) is rendered from the key only when the map misses.

/// Canonical description of every [`GpuConfig`] field. Changing any
/// knob — cache geometry, DRAM timing, scheduler — changes the key and
/// therefore misses the cache.
fn config_key(cfg: &GpuConfig) -> String {
    format!(
        "sms={},mhz={},issue={},warps={},blocks={},sched={:?},\
         l1={}/{}/{},l2={}/{}/{},mc={},l1lat={},icnt={},ports={},l2lat={},\
         dram={}/{}/{}/{}/{}/{}/{}/{},reassign={}",
        cfg.num_sms,
        cfg.core_mhz,
        cfg.issue_per_sm,
        cfg.max_warps_per_sm,
        cfg.max_blocks_per_sm,
        cfg.sched,
        cfg.l1.bytes,
        cfg.l1.line_bytes,
        cfg.l1.ways,
        cfg.l2_slice.bytes,
        cfg.l2_slice.line_bytes,
        cfg.l2_slice.ways,
        cfg.num_mem_ctrls,
        cfg.l1_hit_lat,
        cfg.icnt_lat,
        cfg.l2_ports,
        cfg.l2_lat,
        cfg.dram.banks,
        cfg.dram.row_bytes,
        cfg.dram.t_row_hit,
        cfg.dram.t_row_miss,
        cfg.dram.t_rc,
        cfg.dram.t_burst,
        cfg.dram.queue_depth,
        cfg.dram.fr_fcfs,
        cfg.reassign_on_finish,
    )
}

/// A job member as its key sees it: a suite benchmark, or a trace by
/// name and content fingerprint (two traces that share a name never
/// share a key), held as its `Arc` so a seen trace interns by pointer.
#[derive(Debug, Clone, Copy)]
enum Member<'a> {
    Bench(Benchmark),
    Trace(&'a Arc<KernelTrace>),
}

/// Member ids below this are benchmark suite indices; the rest are
/// interned traces.
const BENCH_IDS: u32 = Benchmark::ALL.len() as u32;

impl Workload {
    fn member(&self) -> Member<'_> {
        match self {
            Workload::Bench(b) => Member::Bench(*b),
            Workload::Trace(t) => Member::Trace(t),
        }
    }
}

/// How a job runs its members: alone on `num_sms` SMs, or a co-run
/// mode. SMRA parameters are held as the bit patterns the key string
/// prints, so keys compare exactly when their strings do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Mode {
    Profile {
        num_sms: u32,
    },
    Even,
    /// The split is in [`JobKey::counts`].
    Counts,
    Smra {
        tc: u64,
        ipc: u64,
        bw: u64,
        nr: u32,
        r_min: u32,
    },
}

impl Mode {
    /// The key mode of `mode`, with the split of a `Counts` mode.
    fn of(mode: &CorunMode) -> (Mode, &[u32]) {
        match mode {
            CorunMode::Even => (Mode::Even, &[]),
            CorunMode::Counts(c) => (Mode::Counts, c),
            CorunMode::Smra(p) => (
                Mode::Smra {
                    tc: p.tc,
                    ipc: p.ipc_thr_frac.to_bits(),
                    bw: p.bw_thr_frac.to_bits(),
                    nr: p.nr,
                    r_min: p.r_min,
                },
                &[],
            ),
        }
    }
}

/// The memo key of one job: fixed-size, so building one allocates
/// nothing and hashing it reads no heap. Slots past `len` and
/// `counts_len` are zero, so the derived `==` compares live entries
/// only, as the hash does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct JobKey {
    /// The engine's intern id of the device config.
    cfg: u32,
    /// Bit patterns of the scale's two multipliers.
    scale: [u64; 2],
    mode: Mode,
    len: u8,
    /// Member ids in launch order ([`MemoTable::member_id`]).
    members: [u32; MAX_APPS],
    counts_len: u8,
    /// The per-member SM split of [`Mode::Counts`].
    counts: [u32; MAX_APPS],
}

impl Hash for JobKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.cfg.hash(state);
        self.scale.hash(state);
        self.mode.hash(state);
        self.members().hash(state);
        self.counts().hash(state);
    }
}

impl JobKey {
    /// `None` past [`MAX_APPS`] members or split entries.
    fn new(cfg: u32, scale: Scale, members: &[u32], mode: Mode, counts: &[u32]) -> Option<JobKey> {
        if members.len() > MAX_APPS || counts.len() > MAX_APPS {
            return None;
        }
        let mut key = JobKey {
            cfg,
            scale: [scale.iters.to_bits(), scale.grid.to_bits()],
            mode,
            len: members.len() as u8,
            members: [0; MAX_APPS],
            counts_len: counts.len() as u8,
            counts: [0; MAX_APPS],
        };
        key.members[..members.len()].copy_from_slice(members);
        key.counts[..counts.len()].copy_from_slice(counts);
        Some(key)
    }

    fn members(&self) -> &[u32] {
        &self.members[..usize::from(self.len)]
    }

    fn counts(&self) -> &[u32] {
        &self.counts[..usize::from(self.counts_len)]
    }
}

/// A map miss, carrying what the store needs: the typed key and the
/// rendered `v1|…` string with its FNV-1a hash.
struct Miss {
    job: JobKey,
    key: String,
    hash: u64,
}

// ----------------------------------------------------------------------
// Entry encode/decode (floats as bit patterns: exact round trips)
// ----------------------------------------------------------------------

/// A memoizable job result: how it sits in the in-process map and how
/// it round-trips through a disk entry's flat `u64` fields.
trait Memoized: Sized {
    /// The value in place if `memo` holds this kind.
    fn get(memo: &Memo) -> Option<&Self>;
    fn into_memo(self) -> Memo;
    fn encode(&self) -> Vec<(String, u64)>;
    /// Reconstructs the value from the disk entry of a job of
    /// `members` members, the first of them named `name`.
    fn decode(fields: &[(String, u64)], members: usize, name: String) -> Option<Self>;
}

impl Memoized for AppProfile {
    fn get(memo: &Memo) -> Option<&Self> {
        match memo {
            Memo::Profile(p) => Some(p),
            Memo::Group(_) => None,
        }
    }

    fn into_memo(self) -> Memo {
        Memo::Profile(self)
    }

    fn encode(&self) -> Vec<(String, u64)> {
        vec![
            ("memory_bw".into(), self.memory_bw.to_bits()),
            ("l2_l1_bw".into(), self.l2_l1_bw.to_bits()),
            ("ipc".into(), self.ipc.to_bits()),
            ("r".into(), self.r.to_bits()),
            ("utilization".into(), self.utilization.to_bits()),
            ("cycles".into(), self.cycles),
            ("thread_insts".into(), self.thread_insts),
            ("num_sms".into(), u64::from(self.num_sms)),
        ]
    }

    /// The kernel name is not stored; the member the key pins restores
    /// it losslessly.
    fn decode(fields: &[(String, u64)], _members: usize, name: String) -> Option<Self> {
        let get = |n: &str| field(fields, n);
        Some(AppProfile {
            name,
            memory_bw: f64::from_bits(get("memory_bw")?),
            l2_l1_bw: f64::from_bits(get("l2_l1_bw")?),
            ipc: f64::from_bits(get("ipc")?),
            r: f64::from_bits(get("r")?),
            utilization: f64::from_bits(get("utilization")?),
            cycles: get("cycles")?,
            thread_insts: get("thread_insts")?,
            num_sms: u32::try_from(get("num_sms")?).ok()?,
        })
    }
}

impl Memoized for GroupOutcome {
    fn get(memo: &Memo) -> Option<&Self> {
        match memo {
            Memo::Group(g) => Some(g),
            Memo::Profile(_) => None,
        }
    }

    fn into_memo(self) -> Memo {
        Memo::Group(self)
    }

    fn encode(&self) -> Vec<(String, u64)> {
        let mut fields = vec![
            ("n".into(), self.cycles.len() as u64),
            ("makespan".into(), self.makespan),
        ];
        for (i, c) in self.cycles.iter().enumerate() {
            fields.push((format!("c{i}"), *c));
        }
        for (i, t) in self.thread_insts.iter().enumerate() {
            fields.push((format!("t{i}"), *t));
        }
        fields
    }

    fn decode(fields: &[(String, u64)], members: usize, _name: String) -> Option<Self> {
        let n = usize::try_from(field(fields, "n")?).ok()?;
        if n != members {
            return None;
        }
        let makespan = field(fields, "makespan")?;
        let mut cycles = Vec::with_capacity(n);
        let mut thread_insts = Vec::with_capacity(n);
        for i in 0..n {
            cycles.push(field(fields, &format!("c{i}"))?);
            thread_insts.push(field(fields, &format!("t{i}"))?);
        }
        Some(GroupOutcome {
            cycles,
            thread_insts,
            makespan,
        })
    }
}

fn field(fields: &[(String, u64)], name: &str) -> Option<u64> {
    fields.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
}

/// Best-effort rendering of a caught panic payload (`&str` or `String`
/// in practice; anything else gets a placeholder).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

// ----------------------------------------------------------------------
// On-disk JSON (through `gcs_sim::wire`; no serde)
// ----------------------------------------------------------------------

fn entry_path(dir: &Path, hash: u64) -> PathBuf {
    dir.join(format!("{hash:016x}.json"))
}

/// Crash-safe entry write: the text lands in a uniquely-named temp file
/// in the same directory and only an atomic `rename` publishes it. A
/// process killed mid-write leaves at worst a stale `.tmp-*` file that
/// no lookup ever consults — never a truncated entry at the real path.
fn write_entry_atomic(dir: &Path, hash: u64, text: &str) -> std::io::Result<()> {
    static TMP_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let seq = TMP_SEQ.fetch_add(1, Ordering::Relaxed);
    let tmp = dir.join(format!("{hash:016x}.json.tmp-{}-{seq}", std::process::id()));
    std::fs::write(&tmp, text)?;
    let res = std::fs::rename(&tmp, entry_path(dir, hash));
    if res.is_err() {
        // Do not leave the orphan around to accumulate.
        let _ = std::fs::remove_file(&tmp);
    }
    res
}

fn render_entry(key: &str, fields: &[(String, u64)]) -> String {
    let mut s = String::with_capacity(key.len() + fields.len() * 24 + 32);
    s.push_str("{\"key\":\"");
    push_str_escaped(&mut s, key);
    s.push_str("\",\"fields\":{");
    for (i, (name, val)) in fields.iter().enumerate() {
        s.push_str(if i == 0 { "\"" } else { ",\"" });
        push_str_escaped(&mut s, name);
        let _ = write!(s, "\":{val}");
    }
    s.push_str("}}\n");
    s
}

/// Parses exactly the shape [`render_entry`] writes. Anything off —
/// truncation, garbage, wrong types, a missing or stray comma — is an
/// error, which the engine treats as a cache miss and quarantines.
fn parse_entry(text: &str) -> Result<(String, Vec<(String, u64)>), WireError> {
    // The trailing newline is the end-of-entry marker `render_entry`
    // writes last; a file missing it was truncated mid-write.
    let body = text.strip_suffix('\n').ok_or(WireError::Truncated {
        at: text.len(),
        want: 1,
    })?;
    let mut s = Scan::new(body);
    s.lit("{")?;
    s.key("key")?;
    let key = s.string()?;
    s.lit(",")?;
    s.key("fields")?;
    s.lit("{")?;
    let mut fields = Vec::new();
    while s.item("}", fields.is_empty())? {
        let name = s.string()?;
        s.lit(":")?;
        fields.push((name, s.u64()?));
    }
    s.lit("}")?;
    s.end()?;
    Ok((key, fields))
}

#[cfg(test)]
#[path = "../../../tests/common/hostile.rs"]
mod hostile;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::profile_with_sms;
    use std::sync::atomic::AtomicU32;

    /// A unique, self-cleaning temp directory per test.
    struct TempCache(PathBuf);

    impl TempCache {
        fn new(tag: &str) -> Self {
            static SEQ: AtomicU32 = AtomicU32::new(0);
            let n = SEQ.fetch_add(1, Ordering::Relaxed);
            let dir = std::env::temp_dir().join(format!(
                "gcs-sweep-test-{}-{tag}-{n}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            TempCache(dir)
        }
    }

    impl Drop for TempCache {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn cfg() -> GpuConfig {
        GpuConfig::test_small()
    }

    // The `v1|…` key format as it was written before keys were typed:
    // the reference the renderer must match byte for byte.

    fn scale_key(scale: Scale) -> String {
        format!("i:{:016x},g:{:016x}", scale.iters.to_bits(), scale.grid.to_bits())
    }

    fn key_token(w: &Workload) -> String {
        match w {
            Workload::Bench(b) => b.name().to_string(),
            Workload::Trace(t) => format!("trace:{}#{:016x}", t.meta.name, t.fingerprint()),
        }
    }

    fn workload_profile_key(cfg: &GpuConfig, scale: Scale, token: &str, num_sms: u32) -> String {
        format!(
            "v1|profile|{}|sms={}|{}|{}",
            token,
            num_sms,
            scale_key(scale),
            config_key(cfg)
        )
    }

    fn profile_key(cfg: &GpuConfig, scale: Scale, bench: Benchmark, num_sms: u32) -> String {
        workload_profile_key(cfg, scale, bench.name(), num_sms)
    }

    fn mode_key(mode: &CorunMode) -> String {
        match mode {
            CorunMode::Even => "even".to_string(),
            CorunMode::Counts(c) => {
                let parts: Vec<String> = c.iter().map(u32::to_string).collect();
                format!("counts:{}", parts.join("-"))
            }
            CorunMode::Smra(p) => format!(
                "smra:tc={},ipc={:016x},bw={:016x},nr={},rmin={}",
                p.tc,
                p.ipc_thr_frac.to_bits(),
                p.bw_thr_frac.to_bits(),
                p.nr,
                p.r_min
            ),
        }
    }

    fn workload_corun_key(
        cfg: &GpuConfig,
        scale: Scale,
        group: &[Workload],
        mode: &CorunMode,
    ) -> String {
        let tokens: Vec<String> = group.iter().map(key_token).collect();
        format!(
            "v1|corun|{}|{}|{}|{}",
            tokens.join("+"),
            mode_key(mode),
            scale_key(scale),
            config_key(cfg)
        )
    }

    fn corun_key(cfg: &GpuConfig, scale: Scale, group: &[Benchmark], mode: &CorunMode) -> String {
        let ws: Vec<Workload> = group.iter().map(|&b| Workload::Bench(b)).collect();
        workload_corun_key(cfg, scale, &ws, mode)
    }

    // ---- executor ----------------------------------------------------

    #[test]
    fn run_parallel_preserves_job_order() {
        for threads in [1, 2, 8] {
            let e = SweepEngine::new(threads);
            let out = e.run_parallel(17, |i| Ok(i * i)).unwrap();
            assert_eq!(out, (0..17).map(|i| i * i).collect::<Vec<_>>());
        }
    }

    #[test]
    fn run_parallel_handles_empty_batch() {
        let e = SweepEngine::new(4);
        let out: Vec<u32> = e.run_parallel(0, |_| unreachable!()).unwrap();
        assert!(out.is_empty());
    }

    #[test]
    fn run_parallel_reports_lowest_failing_index() {
        let e = SweepEngine::new(4);
        let r: Result<Vec<u32>, _> = e.run_parallel(10, |i| {
            if i % 2 == 1 {
                Err(CoreError::BadQueue(format!("job {i}")))
            } else {
                Ok(0)
            }
        });
        match r {
            Err(CoreError::BadQueue(msg)) => assert_eq!(msg, "job 1"),
            other => panic!("expected deterministic error, got {other:?}"),
        }
    }

    #[test]
    fn panicking_job_is_isolated_and_typed() {
        let e = SweepEngine::new(4);
        let r: Result<Vec<u32>, _> = e.run_parallel(6, |i| {
            if i == 3 {
                panic!("chaos at {i}");
            }
            Ok(i as u32)
        });
        match r {
            Err(CoreError::Worker { job, message }) => {
                assert_eq!(job, 3);
                assert!(message.contains("chaos"), "{message}");
            }
            other => panic!("expected Worker error, got {other:?}"),
        }
    }

    #[test]
    fn salvage_keeps_completed_results_around_failures() {
        for threads in [1, 2, 8] {
            let e = SweepEngine::new(threads);
            let out = e.run_parallel_salvage(8, |i| match i {
                2 => panic!("boom"),
                5 => Err(CoreError::BadQueue("nope".into())),
                _ => Ok(i * 10),
            });
            assert_eq!(out.len(), 8);
            for (i, r) in out.iter().enumerate() {
                match (i, r) {
                    (2, Err(CoreError::Worker { job, .. })) => assert_eq!(*job, 2),
                    (5, Err(CoreError::BadQueue(_))) => {}
                    (_, Ok(v)) => assert_eq!(*v, i * 10),
                    (_, other) => panic!("job {i}: unexpected {other:?}"),
                }
            }
        }
    }

    #[test]
    fn transient_failures_are_retried_within_budget() {
        let e = SweepEngine::new(1).with_retry_policy(RetryPolicy {
            max_retries: 2,
            base_backoff_ms: 0,
        });
        let tries = AtomicU32::new(0);
        let out = e
            .run_parallel(1, |_| {
                if tries.fetch_add(1, Ordering::Relaxed) < 2 {
                    Err(CoreError::BadQueue("flaky".into()))
                } else {
                    Ok(7u32)
                }
            })
            .unwrap();
        assert_eq!(out, vec![7]);
        assert_eq!(tries.load(Ordering::Relaxed), 3);
        assert_eq!(e.stats().jobs_retried, 1);
    }

    #[test]
    fn retry_budget_is_bounded_and_panics_are_not_retried() {
        let e = SweepEngine::new(1).with_retry_policy(RetryPolicy {
            max_retries: 1,
            base_backoff_ms: 0,
        });
        let tries = AtomicU32::new(0);
        let r: Result<Vec<u32>, _> = e.run_parallel(1, |_| {
            tries.fetch_add(1, Ordering::Relaxed);
            Err(CoreError::BadQueue("always".into()))
        });
        assert!(r.is_err());
        assert_eq!(tries.load(Ordering::Relaxed), 2, "1 attempt + 1 retry");

        let panics = AtomicU32::new(0);
        let r: Result<Vec<u32>, _> = e.run_parallel(1, |_| {
            panics.fetch_add(1, Ordering::Relaxed);
            panic!("deterministic");
        });
        assert!(matches!(r, Err(CoreError::Worker { .. })));
        assert_eq!(panics.load(Ordering::Relaxed), 1, "panics must not retry");
    }

    // ---- fingerprints ------------------------------------------------

    #[test]
    fn fingerprint_is_stable_for_identical_inputs() {
        let a = profile_key(&cfg(), Scale::TEST, Benchmark::Lud, 8);
        let b = profile_key(&cfg(), Scale::TEST, Benchmark::Lud, 8);
        assert_eq!(a, b);
        assert_eq!(fnv1a(a.as_bytes()), fnv1a(b.as_bytes()));
    }

    #[test]
    fn fingerprint_is_sensitive_to_every_dimension() {
        let base = profile_key(&cfg(), Scale::TEST, Benchmark::Lud, 8);
        // Benchmark, SM count, scale.
        assert_ne!(base, profile_key(&cfg(), Scale::TEST, Benchmark::Blk, 8));
        assert_ne!(base, profile_key(&cfg(), Scale::TEST, Benchmark::Lud, 4));
        assert_ne!(base, profile_key(&cfg(), Scale::SMALL, Benchmark::Lud, 8));
        // Any GpuConfig knob.
        let mut c = cfg();
        c.l2_lat += 1;
        assert_ne!(base, profile_key(&c, Scale::TEST, Benchmark::Lud, 8));
        let mut c = cfg();
        c.dram.fr_fcfs = false;
        assert_ne!(base, profile_key(&c, Scale::TEST, Benchmark::Lud, 8));
        let mut c = cfg();
        c.l1.ways *= 2;
        assert_ne!(base, profile_key(&c, Scale::TEST, Benchmark::Lud, 8));
    }

    #[test]
    fn corun_key_distinguishes_modes_and_members() {
        let g = [Benchmark::Lud, Benchmark::Sad];
        let even = corun_key(&cfg(), Scale::TEST, &g, &CorunMode::Even);
        let counts = corun_key(&cfg(), Scale::TEST, &g, &CorunMode::Counts(vec![4, 4]));
        let smra = corun_key(
            &cfg(),
            Scale::TEST,
            &g,
            &CorunMode::Smra(SmraParams::for_device(8, 2)),
        );
        assert_ne!(even, counts);
        assert_ne!(even, smra);
        assert_ne!(counts, smra);
        let swapped = [Benchmark::Sad, Benchmark::Lud];
        assert_ne!(even, corun_key(&cfg(), Scale::TEST, &swapped, &CorunMode::Even));
    }

    // ---- typed keys --------------------------------------------------

    /// A job shape the key tests draw: an alone profile or a co-run.
    enum GenJob {
        Profile(Workload, u32),
        Corun(Vec<Workload>, CorunMode),
    }

    /// Seeded job shapes over small domains, so equal keys are common:
    /// two configs, two scales, three benchmarks, and three traces — two
    /// of which share a name but not their content, and one of which
    /// also comes as a second, content-equal `Arc`.
    fn gen_jobs(seed: u64, n: usize) -> Vec<(GpuConfig, Scale, GenJob)> {
        use gcs_sim::rng::SimRng;
        use gcs_workloads::traced::{phase_shift_trace, tensor_mix_trace};
        let phase = Arc::new(phase_shift_trace(&cfg()));
        let tensor = Arc::new(tensor_mix_trace(&cfg()));
        let mut renamed = tensor_mix_trace(&cfg());
        renamed.meta.name = phase.meta.name.clone();
        let members = [
            Workload::Bench(Benchmark::Lud),
            Workload::Bench(Benchmark::Sad),
            Workload::Bench(Benchmark::Gups),
            Workload::Trace(phase),
            Workload::Trace(tensor),
            Workload::Trace(Arc::new(renamed)),
            Workload::Trace(Arc::new(tensor_mix_trace(&cfg()))),
        ];
        let mut other = cfg();
        other.l2_lat += 1;
        let configs = [cfg(), other];
        let scales = [Scale::TEST, Scale::SMALL];
        let mut rng = SimRng::seed_from_u64(seed);
        let mut pick = |k: usize| rng.gen_range(k as u64) as usize;
        (0..n)
            .map(|_| {
                let cfg = configs[pick(2)].clone();
                let scale = scales[pick(2)];
                let job = if pick(3) == 0 {
                    GenJob::Profile(members[pick(members.len())].clone(), 4 + 4 * pick(2) as u32)
                } else {
                    let len = 1 + pick(3);
                    let group: Vec<Workload> = (0..len)
                        .map(|_| members[pick(members.len())].clone())
                        .collect();
                    let mode = match pick(3) {
                        0 => CorunMode::Even,
                        1 => CorunMode::Counts((0..len).map(|_| 1 + pick(2) as u32).collect()),
                        _ => CorunMode::Smra(SmraParams::for_device(8, 1 + pick(2) as u32)),
                    };
                    GenJob::Corun(group, mode)
                };
                (cfg, scale, job)
            })
            .collect()
    }

    /// The members, mode and split the engine keys `job` by.
    fn key_parts(job: &GenJob) -> (Vec<Member<'_>>, Mode, &[u32]) {
        match job {
            GenJob::Profile(w, sms) => (vec![w.member()], Mode::Profile { num_sms: *sms }, &[]),
            GenJob::Corun(group, mode) => {
                let (mode, counts) = Mode::of(mode);
                (group.iter().map(Workload::member).collect(), mode, counts)
            }
        }
    }

    fn old_key(cfg: &GpuConfig, scale: Scale, job: &GenJob) -> String {
        let bench = |w: &Workload| match w {
            Workload::Bench(b) => Some(*b),
            Workload::Trace(_) => None,
        };
        match job {
            GenJob::Profile(w, sms) => {
                let key = workload_profile_key(cfg, scale, &key_token(w), *sms);
                if let Some(b) = bench(w) {
                    assert_eq!(key, profile_key(cfg, scale, b, *sms));
                }
                key
            }
            GenJob::Corun(group, mode) => {
                let key = workload_corun_key(cfg, scale, group, mode);
                if let Some(benches) = group.iter().map(bench).collect::<Option<Vec<_>>>() {
                    assert_eq!(key, corun_key(cfg, scale, &benches, mode));
                }
                key
            }
        }
    }

    #[test]
    fn typed_keys_are_equal_exactly_when_their_strings_are() {
        let jobs = gen_jobs(31, 96);
        let mut memo = MemoTable::default();
        let keyed: Vec<(JobKey, String)> = jobs
            .iter()
            .map(|(cfg, scale, job)| {
                let (members, mode, counts) = key_parts(job);
                let key = memo
                    .key(cfg, *scale, members.into_iter(), mode, counts)
                    .expect("at most three members");
                let rendered = memo.render(&key);
                assert_eq!(rendered, old_key(cfg, *scale, job), "renderer drifted");
                (key, rendered)
            })
            .collect();
        assert_eq!(memo.configs.len(), 2, "configs intern by ==");
        assert_eq!(memo.traces.len(), 3, "traces intern by name and content, not by pointer");
        let mut equal_pairs = 0;
        for (i, (a, sa)) in keyed.iter().enumerate() {
            for (j, (b, sb)) in keyed.iter().enumerate() {
                assert_eq!(a == b, sa == sb, "jobs {i} and {j}:\n{sa}\n{sb}");
                equal_pairs += usize::from(i != j && a == b);
            }
        }
        assert!(equal_pairs > 0, "the domains must make some keys collide");
    }

    /// A group with more members than the device has app slots has no
    /// memo key; it still reaches the simulator, which refuses it with
    /// a typed error, and counts as one job that neither hit nor ran.
    #[test]
    fn a_group_past_the_app_slots_is_refused_by_the_simulator() {
        let e = SweepEngine::sequential();
        let group = vec![Benchmark::Lud; MAX_APPS + 1];
        for mode in [CorunMode::Even, CorunMode::Smra(SmraParams::for_device(8, 9))] {
            let err = e.corun(&cfg(), Scale::TEST, &group, &mode).unwrap_err();
            assert!(matches!(err, CoreError::Sim(SimError::TooManyApps)), "{err:?}");
        }
        let s = e.stats();
        assert_eq!((s.jobs_total, s.jobs_cached, s.jobs_simulated), (2, 0, 0));
        let mut memo = MemoTable::default();
        let members = group.iter().map(|&b| Member::Bench(b));
        assert!(memo.key(&cfg(), Scale::TEST, members, Mode::Even, &[]).is_none());
    }

    fn probe<T: Memoized + Clone>(
        e: &SweepEngine,
        cfg: &GpuConfig,
        scale: Scale,
        job: &GenJob,
    ) -> Result<T, Box<Miss>> {
        let (members, mode, counts) = key_parts(job);
        e.lookup(cfg, scale, members.into_iter(), mode, counts, &mut T::clone)
            .map_err(|miss| miss.expect("at most three members"))
    }

    #[test]
    fn warm_hits_equal_a_fresh_engine_decoding_the_disk_entry() {
        use gcs_sim::rng::SimRng;
        let tmp = TempCache::new("typed");
        let jobs = gen_jobs(32, 48);
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let mut rng = SimRng::seed_from_u64(33);
        // Store a fabricated value for every distinct job (no
        // simulation: the test is about keys and entries).
        for (cfg, scale, job) in &jobs {
            match job {
                GenJob::Profile(w, _) => {
                    if let Err(miss) = probe::<AppProfile>(&warm, cfg, *scale, job) {
                        let p = AppProfile {
                            name: w.name(),
                            memory_bw: rng.gen_f64(),
                            l2_l1_bw: rng.gen_f64(),
                            ipc: rng.gen_f64(),
                            r: rng.gen_f64(),
                            utilization: rng.gen_f64(),
                            cycles: rng.next_u64(),
                            thread_insts: rng.next_u64(),
                            num_sms: rng.gen_range(64) as u32,
                        };
                        warm.store(*miss, p);
                    }
                }
                GenJob::Corun(group, _) => {
                    if let Err(miss) = probe::<GroupOutcome>(&warm, cfg, *scale, job) {
                        let g = GroupOutcome {
                            cycles: group.iter().map(|_| rng.next_u64()).collect(),
                            thread_insts: group.iter().map(|_| rng.next_u64()).collect(),
                            makespan: rng.next_u64(),
                        };
                        warm.store(*miss, g);
                    }
                }
            }
        }
        let fresh = SweepEngine::sequential().with_cache_dir(&tmp.0);
        for (i, (cfg, scale, job)) in jobs.iter().enumerate() {
            if let GenJob::Profile(..) = job {
                let hot = probe::<AppProfile>(&warm, cfg, *scale, job).ok();
                assert!(hot.is_some(), "job {i}");
                assert_eq!(hot, probe(&fresh, cfg, *scale, job).ok(), "job {i}");
            } else {
                let hot = probe::<GroupOutcome>(&warm, cfg, *scale, job).ok();
                assert!(hot.is_some(), "job {i}");
                assert_eq!(hot, probe(&fresh, cfg, *scale, job).ok(), "job {i}");
            }
        }
        assert_eq!(fresh.stats().jobs_quarantined, 0);
    }

    // ---- JSON round trip ---------------------------------------------

    #[test]
    fn entry_round_trips_exactly() {
        let fields = vec![
            ("ipc".to_string(), 0.123_456_789_f64.to_bits()),
            ("cycles".to_string(), u64::MAX),
            ("n".to_string(), 0),
        ];
        let key = "v1|profile|LUD|sms=8|weird \"quote\" and \\slash";
        let text = render_entry(key, &fields);
        let (k, f) = parse_entry(&text).expect("round trip");
        assert_eq!(k, key);
        assert_eq!(f, fields);
        assert_eq!(f64::from_bits(f[0].1), 0.123_456_789);
    }

    #[test]
    fn parser_rejects_garbage_and_truncation() {
        for bad in [
            "",
            "not json at all",
            "{\"key\":\"x\",\"fields\":{\"a\":12",
            // A stray leading comma and a missing comma are misses too.
            "{\"key\":\"k\",\"fields\":{,\"a\":1,\"b\":2}}\n",
            "{\"key\":\"k\",\"fields\":{\"a\":1\"b\":2}}\n",
            "{\"key\":\"k\",\"fields\":{\"a\":1,\"b\":2,}}\n",
        ] {
            assert!(parse_entry(bad).is_err(), "accepted {bad:?}");
        }
        // No truncation prefix parses, and neither bit flips nor garbage
        // can make the reader panic (the engine quarantines all of them).
        let good = render_entry("v1|k \"q\"", &[("a".into(), 7), ("b".into(), u64::MAX)]);
        hostile::assault(
            &[hostile::Target {
                name: "cache-entry",
                valid: good.into_bytes(),
                checksummed: false,
                accepts: &|b| std::str::from_utf8(b).is_ok_and(|t| parse_entry(t).is_ok()),
            }],
            1,
            64,
        );
    }

    // ---- memoization -------------------------------------------------

    #[test]
    fn second_profile_call_hits_the_cache() {
        let e = SweepEngine::sequential();
        let p1 = e.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let p2 = e.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        assert_eq!(p1, p2);
        let s = e.stats();
        assert_eq!(s.jobs_total, 2);
        assert_eq!(s.jobs_simulated, 1);
        assert_eq!(s.jobs_cached, 1);
    }

    #[test]
    fn changed_config_field_misses_the_cache() {
        let e = SweepEngine::sequential();
        e.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let mut c = cfg();
        c.l2_lat += 1;
        e.profile(&c, Scale::TEST, Benchmark::Lud, 8).unwrap();
        let s = e.stats();
        assert_eq!(s.jobs_simulated, 2, "config change must re-simulate");
        assert_eq!(s.jobs_cached, 0);
    }

    #[test]
    fn cached_profile_matches_direct_measurement_exactly() {
        let e = SweepEngine::sequential();
        let direct = profile_with_sms(&Benchmark::Blk.kernel(Scale::TEST), &cfg(), 8).unwrap();
        let first = e.profile(&cfg(), Scale::TEST, Benchmark::Blk, 8).unwrap();
        let cached = e.profile(&cfg(), Scale::TEST, Benchmark::Blk, 8).unwrap();
        for p in [&first, &cached] {
            assert_eq!(p.memory_bw.to_bits(), direct.memory_bw.to_bits());
            assert_eq!(p.l2_l1_bw.to_bits(), direct.l2_l1_bw.to_bits());
            assert_eq!(p.ipc.to_bits(), direct.ipc.to_bits());
            assert_eq!(p.r.to_bits(), direct.r.to_bits());
            assert_eq!(p.cycles, direct.cycles);
            assert_eq!(p.thread_insts, direct.thread_insts);
        }
    }

    #[test]
    fn disk_cache_survives_engine_restart() {
        let tmp = TempCache::new("restart");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p1 = warm.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        assert_eq!(warm.stats().jobs_simulated, 1);

        let cold = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p2 = cold.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        let s = cold.stats();
        assert_eq!(s.jobs_simulated, 0, "warm disk cache must skip simulation");
        assert_eq!(s.jobs_cached, 1);
        assert_eq!(p1, p2);
    }

    #[test]
    fn memo_probe_counts_hits_only_and_never_reads_disk() {
        let tmp = TempCache::new("memo-probe");
        let w = Workload::Bench(Benchmark::Hs);
        let first = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p = first.profile_workload(&cfg(), Scale::TEST, &w, 8).unwrap();
        let probe = |e: &SweepEngine, sms: &[u32]| {
            let mut out = Vec::new();
            e.profile_cycles_memo(&cfg(), Scale::TEST, &w, sms, &mut out);
            out
        };

        // A fresh engine over the same directory: the entry is on disk
        // only, so the in-process probe misses and counts nothing.
        let e = SweepEngine::sequential().with_cache_dir(&tmp.0);
        assert_eq!(probe(&e, &[8]), [None]);
        assert_eq!(e.stats().jobs_total, 0);
        // profile_workload reads the disk entry into the map; now the
        // probe hits and counts exactly as a memo hit would, per point.
        assert_eq!(e.profile_workload(&cfg(), Scale::TEST, &w, 8).unwrap(), p);
        assert_eq!(probe(&e, &[8, 7, 8]), [Some(p.cycles), None, Some(p.cycles)]);
        let s = e.stats();
        assert_eq!((s.jobs_total, s.jobs_cached, s.jobs_simulated), (3, 3, 0));
        assert_eq!(probe(&e, &[7]), [None]);
        assert_eq!(e.stats().jobs_total, 3, "a miss moves no counter");
        let mut other = cfg();
        other.l2_lat += 1;
        let mut out = vec![Some(1)];
        e.profile_cycles_memo(&other, Scale::TEST, &w, &[8], &mut out);
        assert_eq!(out, [Some(1), None], "entries are appended; another config misses");
    }

    #[test]
    fn corrupted_cache_file_is_a_miss_not_an_error() {
        let tmp = TempCache::new("corrupt");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        warm.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();

        // Corrupt every entry: garbage in one run, truncation in another.
        for (i, f) in std::fs::read_dir(&tmp.0).unwrap().enumerate() {
            let path = f.unwrap().path();
            if i % 2 == 0 {
                std::fs::write(&path, "{ totally not the format }").unwrap();
            } else {
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            }
        }

        let cold = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p = cold.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        assert!(p.ipc > 0.0);
        let s = cold.stats();
        assert_eq!(s.jobs_cached, 0, "corrupted entry must not count as a hit");
        assert_eq!(s.jobs_simulated, 1);
        // And the re-simulation must repair the entry on disk.
        let repaired = SweepEngine::sequential().with_cache_dir(&tmp.0);
        repaired.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        assert_eq!(repaired.stats().jobs_cached, 1);
    }

    #[test]
    fn corrupt_entry_is_quarantined_with_bytes_preserved() {
        let tmp = TempCache::new("quarantine");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        warm.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let entry = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("one cache entry on disk");
        std::fs::write(&entry, "{ corrupt }").unwrap();

        let cold = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p = cold.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        assert!(p.ipc > 0.0);
        let s = cold.stats();
        assert_eq!(s.jobs_quarantined, 1);
        assert_eq!(s.jobs_simulated, 1);
        assert!(s.to_string().contains("1 cache entries quarantined"));
        // The corrupt bytes are preserved for inspection...
        let q = tmp.0.join("quarantine").join(entry.file_name().unwrap());
        assert_eq!(std::fs::read_to_string(q).unwrap(), "{ corrupt }");
        // ...and the re-simulated entry replaced it: next engine hits.
        let repaired = SweepEngine::sequential().with_cache_dir(&tmp.0);
        repaired.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let rs = repaired.stats();
        assert_eq!(rs.jobs_cached, 1);
        assert_eq!(rs.jobs_quarantined, 0);
    }

    #[test]
    fn old_style_truncated_entry_recovers_via_quarantine() {
        // A pre-atomic-write cache could be killed mid-`fs::write`,
        // leaving a truncated entry at the real path. That legacy damage
        // must still recover through the quarantine path.
        let tmp = TempCache::new("oldtrunc");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        warm.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        let entry = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("one cache entry on disk");
        let text = std::fs::read_to_string(&entry).unwrap();
        // Simulate the old non-atomic write dying halfway through.
        std::fs::write(&entry, &text[..text.len() / 2]).unwrap();

        let cold = SweepEngine::sequential().with_cache_dir(&tmp.0);
        let p = cold.profile(&cfg(), Scale::TEST, Benchmark::Hs, 8).unwrap();
        assert!(p.ipc > 0.0);
        let s = cold.stats();
        assert_eq!(s.jobs_quarantined, 1, "truncated entry must quarantine");
        assert_eq!(s.jobs_simulated, 1, "and the job re-simulates");
        // The quarantined bytes are the truncated ones, preserved.
        let q = tmp.0.join("quarantine").join(entry.file_name().unwrap());
        assert_eq!(std::fs::read_to_string(q).unwrap(), text[..text.len() / 2]);
    }

    #[test]
    fn atomic_store_survives_simulated_interruption() {
        // The new write path publishes via temp-file + rename: a process
        // killed mid-write leaves only a `.tmp-*` orphan, never a
        // truncated entry at the real path.
        let tmp = TempCache::new("atomic");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        warm.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();

        // No temp residue after a successful store, and the entry parses.
        let names: Vec<String> = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|f| f.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|n| !n.contains(".tmp-")),
            "store must clean up temp files: {names:?}"
        );
        let entry = std::fs::read_dir(&tmp.0)
            .unwrap()
            .map(|f| f.unwrap().path())
            .find(|p| p.extension().is_some_and(|e| e == "json"))
            .expect("one cache entry on disk");
        assert!(parse_entry(&std::fs::read_to_string(&entry).unwrap()).is_ok());

        // Simulate a kill mid-write of a *different* job: a truncated
        // temp file beside the published entry. Lookups never consult
        // it, so the warm entry still hits and nothing quarantines.
        let good = std::fs::read_to_string(&entry).unwrap();
        std::fs::write(tmp.0.join("deadbeefdeadbeef.json.tmp-1-0"), &good[..good.len() / 2])
            .unwrap();
        let cold = SweepEngine::sequential().with_cache_dir(&tmp.0);
        cold.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let s = cold.stats();
        assert_eq!(s.jobs_cached, 1, "orphan temp file must not shadow the entry");
        assert_eq!(s.jobs_quarantined, 0, "orphan temp file must not quarantine");

        // And a fresh store for that interrupted job publishes the real
        // entry without being confused by the stale orphan.
        let retry = SweepEngine::sequential().with_cache_dir(&tmp.0);
        retry.profile(&cfg(), Scale::TEST, Benchmark::Sad, 8).unwrap();
        assert_eq!(retry.stats().jobs_simulated, 1);
        let hit = SweepEngine::sequential().with_cache_dir(&tmp.0);
        hit.profile(&cfg(), Scale::TEST, Benchmark::Sad, 8).unwrap();
        assert_eq!(hit.stats().jobs_cached, 1);
    }

    #[test]
    fn warm_cache_runs_zero_new_simulations() {
        let tmp = TempCache::new("warm");
        let suite = [Benchmark::Blk, Benchmark::Sad, Benchmark::Lud];
        let jobs: Vec<(Vec<Benchmark>, CorunMode)> = vec![
            (vec![Benchmark::Blk, Benchmark::Sad], CorunMode::Even),
            (vec![Benchmark::Lud, Benchmark::Sad], CorunMode::Counts(vec![6, 2])),
        ];

        let warm = SweepEngine::new(2).with_cache_dir(&tmp.0);
        let profiles = warm.profile_suite(&cfg(), Scale::TEST, &suite).unwrap();
        let outcomes = warm.corun_batch(&cfg(), Scale::TEST, &jobs).unwrap();
        assert_eq!(warm.stats().jobs_simulated, 5);

        let cold = SweepEngine::new(2).with_cache_dir(&tmp.0);
        let profiles2 = cold.profile_suite(&cfg(), Scale::TEST, &suite).unwrap();
        let outcomes2 = cold.corun_batch(&cfg(), Scale::TEST, &jobs).unwrap();
        let s = cold.stats();
        assert_eq!(s.jobs_simulated, 0, "every job must come from the cache");
        assert_eq!(s.jobs_cached, s.jobs_total);
        assert_eq!(profiles, profiles2);
        assert_eq!(outcomes, outcomes2);
    }

    // ---- co-run semantics --------------------------------------------

    #[test]
    fn corun_even_matches_a_direct_device_run() {
        let e = SweepEngine::sequential();
        let out = e
            .corun(
                &cfg(),
                Scale::TEST,
                &[Benchmark::Lud, Benchmark::Sad],
                &CorunMode::Even,
            )
            .unwrap();

        let mut gpu = Gpu::new(cfg()).unwrap();
        let a = gpu.launch(Benchmark::Lud.kernel(Scale::TEST)).unwrap();
        let b = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).unwrap();
        gpu.partition_even();
        gpu.run(PROFILE_MAX_CYCLES).unwrap();

        assert_eq!(out.makespan, gpu.cycle());
        assert_eq!(out.cycles[0], gpu.stats().app(a).runtime_cycles().max(1));
        assert_eq!(out.cycles[1], gpu.stats().app(b).runtime_cycles().max(1));
        assert_eq!(out.thread_insts[0], gpu.stats().app(a).thread_insts);
        assert_eq!(out.thread_insts[1], gpu.stats().app(b).thread_insts);
    }

    #[test]
    fn phase_profile_sums_to_sim_cycles_and_is_thread_stable() {
        let run = |threads: usize| {
            let e = SweepEngine::new(threads).with_phase_profiling(true);
            let suite = [Benchmark::Lud, Benchmark::Blk, Benchmark::Gups];
            e.profile_suite(&cfg(), Scale::TEST, &suite).unwrap();
            e.corun(
                &cfg(),
                Scale::TEST,
                &[Benchmark::Gups, Benchmark::Spmv],
                &CorunMode::Even,
            )
            .unwrap();
            e.stats()
        };
        let s1 = run(1);
        assert_eq!(
            s1.phases.total(),
            s1.sim_cycles,
            "phase buckets must partition the simulated cycles: {:?}",
            s1.phases
        );
        assert!(s1.phases.issue > 0, "some cycles must issue: {:?}", s1.phases);
        for threads in [2, 8] {
            let s = run(threads);
            assert_eq!(s.phases, s1.phases, "{threads} threads");
            assert_eq!(s.sim_cycles, s1.sim_cycles, "{threads} threads");
        }
        assert_eq!(
            s1.profile_report(),
            run(2).profile_report(),
            "report line must be byte-stable across thread counts"
        );
    }

    #[test]
    fn stats_display_mentions_cache_counts() {
        let e = SweepEngine::sequential();
        e.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        e.profile(&cfg(), Scale::TEST, Benchmark::Lud, 8).unwrap();
        let shown = e.stats().to_string();
        assert!(shown.contains("2 jobs"), "{shown}");
        assert!(shown.contains("1 simulated"), "{shown}");
        assert!(shown.contains("1 cached"), "{shown}");
    }
}
