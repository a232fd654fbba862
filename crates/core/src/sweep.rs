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
//! * **Memoization** — every typed job is keyed by an FNV-1a
//!   fingerprint of its full canonical description. Results live in an
//!   in-process map and, when a cache directory is configured, as one
//!   small JSON file per entry under e.g. `results/cache/`. Floats are
//!   stored as IEEE-754 bit patterns so round-trips are exact; a
//!   corrupted or truncated file is treated as a miss, never an error.
//!
//! [`SweepStats`] counts what happened (jobs simulated vs. served from
//! cache, peak in-flight parallelism, simulated cycles, estimated
//! speedup) and is printed by the `gcs-bench` harness.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::{Gpu, PhaseCycles};
use gcs_sim::kernel::AppId;
use gcs_sim::wire::{fnv1a, push_str_escaped, Scan, WireError};
use gcs_workloads::{Benchmark, Scale};

use gcs_sim::gpu::SimError;
use gcs_sim::KernelTrace;

use crate::fault::RetryPolicy;
use crate::profile::{
    profile_kernel_job, profile_trace_job, AppProfile, SimShards, PROFILE_MAX_CYCLES,
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

    /// Cache-key token. `Bench` tokens equal the bare benchmark name so
    /// every pre-existing cache key stays byte-identical; `Trace`
    /// tokens carry the content fingerprint.
    fn key_token(&self) -> String {
        match self {
            Workload::Bench(b) => b.name().to_string(),
            Workload::Trace(t) => format!("trace:{}#{:016x}", t.meta.name, t.fingerprint()),
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

/// A memoized cache entry: the full canonical key (stored to detect
/// fingerprint collisions) plus a flat field map. Floats are encoded as
/// `to_bits()` so decode is exact.
#[derive(Debug, Clone)]
struct Entry {
    key: String,
    fields: Vec<(String, u64)>,
}

/// The parallel sweep executor + memoization cache.
///
/// Cheap to share: wrap it in an [`Arc`] and hand clones to every
/// consumer so they pool cache hits and statistics.
#[derive(Debug)]
pub struct SweepEngine {
    threads: usize,
    /// Intra-simulation parallelism target: each simulated job steps its
    /// device with `min(sim_threads, num_sms)` SM shards, and asks the
    /// thread-budget arbiter for up to `sim_threads - 1` extra worker
    /// threads. 1 (the default) runs the plain unsharded reference path.
    sim_threads: usize,
    /// Extra worker threads currently leased to sharded simulations.
    leased: AtomicUsize,
    /// Pool worker threads currently committed to batches — the
    /// arbiter's view of how much of `threads` is already spoken for.
    committed: AtomicUsize,
    cache_dir: Option<PathBuf>,
    retry: RetryPolicy,
    /// When set, simulated jobs run with the device phase profiler on
    /// and their [`PhaseCycles`] accumulate into `phases`. Never part of
    /// cache keys or entries: profiling does not change results.
    profile_phases: bool,
    phases: Mutex<PhaseCycles>,
    mem: Mutex<HashMap<u64, Entry>>,
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
            sim_threads: 1,
            leased: AtomicUsize::new(0),
            committed: AtomicUsize::new(0),
            cache_dir: None,
            retry: RetryPolicy::NONE,
            profile_phases: false,
            phases: Mutex::new(PhaseCycles::default()),
            mem: Mutex::new(HashMap::new()),
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
    /// simulates (the `--profile` flag of the fig binaries). Off by
    /// default; results and cache keys are unaffected either way.
    #[must_use]
    pub fn with_phase_profiling(mut self, on: bool) -> Self {
        self.profile_phases = on;
        self
    }

    /// Whether phase profiling is on.
    pub fn phase_profiling(&self) -> bool {
        self.profile_phases
    }

    /// Steps every simulated job's device with `min(n, num_sms)` SM
    /// shards (`GCS_SIM_THREADS` in the harness). Results are
    /// bit-identity pinned — sharding never changes a profile, co-run
    /// outcome or cache entry, only the wall-clock cost of a miss — so
    /// cache keys are deliberately unaffected.
    ///
    /// Extra worker threads for the sharded step come from the engine's
    /// single thread budget (`threads`): a job leases up to `n - 1`
    /// threads beyond the ones already committed to batch fan-out, so
    /// job-level and intra-simulation parallelism never oversubscribe
    /// the machine. With a full batch in flight every lease is denied
    /// and sharded jobs step single-threaded (still benefiting from
    /// shard-elision); as a batch drains, the tail jobs pick up the
    /// freed threads.
    #[must_use]
    pub fn with_sim_threads(mut self, n: usize) -> Self {
        self.sim_threads = n.max(1);
        self
    }

    /// The intra-simulation parallelism target (1 = sharding off).
    pub fn sim_threads(&self) -> usize {
        self.sim_threads
    }

    /// The arbiter: tries to lease up to `sim_threads - 1` extra worker
    /// threads from the unspoken-for part of the budget. The lease is
    /// returned on drop. Never blocks — a denied lease just means the
    /// job steps its shards on the calling thread alone.
    fn lease_shard_workers(&self) -> ShardLease<'_> {
        let want = self.sim_threads.saturating_sub(1);
        let mut extra = 0;
        if want > 0 {
            let mut cur = self.leased.load(Ordering::Relaxed);
            loop {
                // The calling thread itself is committed even outside a
                // batch, hence the `max(1)`.
                let busy = self.committed.load(Ordering::Relaxed).max(1) + cur;
                let take = want.min(self.threads.saturating_sub(busy));
                if take == 0 {
                    break;
                }
                match self.leased.compare_exchange(
                    cur,
                    cur + take,
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        extra = take;
                        break;
                    }
                    Err(now) => cur = now,
                }
            }
        }
        ShardLease {
            engine: self,
            extra,
        }
    }

    /// The sharding grant for one simulated job, paired with the lease
    /// that backs its worker count.
    fn shard_grant(&self) -> (SimShards, ShardLease<'_>) {
        if self.sim_threads <= 1 {
            return (
                SimShards::OFF,
                ShardLease {
                    engine: self,
                    extra: 0,
                },
            );
        }
        let lease = self.lease_shard_workers();
        let grant = SimShards {
            shards: u32::try_from(self.sim_threads).unwrap_or(u32::MAX),
            // Memory shards ride the same lease: phase M is stepped by
            // the SM-shard workers, so no second lease is taken and
            // the thread budget is untouched by this field.
            mem_shards: u32::try_from(self.sim_threads).unwrap_or(u32::MAX),
            workers: 1 + u32::try_from(lease.extra).unwrap_or(0),
        };
        (grant, lease)
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

    /// The configured on-disk cache directory, if any.
    pub fn cache_dir(&self) -> Option<&Path> {
        self.cache_dir.as_deref()
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
        self.committed.fetch_add(workers, Ordering::Relaxed);
        if workers <= 1 {
            worker(0);
        } else {
            std::thread::scope(|s| {
                for w in 0..workers {
                    s.spawn(move || worker(w));
                }
            });
        }
        self.committed.fetch_sub(workers, Ordering::Relaxed);
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
        let key = workload_profile_key(cfg, scale, &workload.key_token(), num_sms);
        let mut p = self.cached(&key, decode_profile, || {
            let (grant, _lease) = self.shard_grant();
            let (p, phases) = match workload {
                Workload::Bench(b) => {
                    profile_kernel_job(&b.kernel(scale), cfg, num_sms, self.profile_phases, grant)?
                }
                Workload::Trace(t) => {
                    profile_trace_job(t, cfg, num_sms, self.profile_phases, grant)?
                }
            };
            // With profiling on, account the device cycles actually
            // stepped (the app-relative runtime can undercount the tail
            // by a cycle) so phase totals partition sim_cycles exactly.
            match phases {
                Some(ph) => {
                    self.sim_cycles.fetch_add(ph.total(), Ordering::Relaxed);
                    self.add_phases(&ph);
                }
                None => {
                    self.sim_cycles.fetch_add(p.cycles, Ordering::Relaxed);
                }
            }
            Ok((encode_profile(&p), p))
        })?;
        // The flat u64 cache drops the kernel name; the key pins the
        // workload, so restore it losslessly here.
        p.name = workload.name();
        Ok(p)
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
        let key = workload_profile_key(cfg, scale, &workload.key_token(), num_sms);
        let fields = self.lookup(fnv1a(key.as_bytes()), &key)?;
        let mut p = decode_profile(&fields)?;
        p.name = workload.name();
        Some(p)
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
        let ws: Vec<Workload> = group.iter().map(|&b| Workload::Bench(b)).collect();
        self.corun_workloads(cfg, scale, &ws, mode)
    }

    /// Co-runs a mixed group of [`Workload`]s under `mode`, memoized.
    /// For all-`Bench` groups this is exactly [`SweepEngine::corun`].
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    ///
    /// # Panics
    ///
    /// Panics on an empty group.
    pub fn corun_workloads(
        &self,
        cfg: &GpuConfig,
        scale: Scale,
        group: &[Workload],
        mode: &CorunMode,
    ) -> Result<GroupOutcome, CoreError> {
        assert!(!group.is_empty(), "empty co-run group");
        let key = workload_corun_key(cfg, scale, group, mode);
        let n = group.len();
        self.cached(
            &key,
            |fields| decode_group(fields, n),
            || {
                let (grant, _lease) = self.shard_grant();
                let (out, phases) =
                    simulate_corun(cfg, scale, group, mode, self.profile_phases, grant)?;
                match phases {
                    Some(ph) => {
                        self.sim_cycles.fetch_add(ph.total(), Ordering::Relaxed);
                        self.add_phases(&ph);
                    }
                    None => {
                        self.sim_cycles.fetch_add(out.makespan, Ordering::Relaxed);
                    }
                }
                Ok((encode_group(&out), out))
            },
        )
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

    // ------------------------------------------------------------------
    // Cache plumbing
    // ------------------------------------------------------------------

    fn cached<T>(
        &self,
        key: &str,
        decode: impl Fn(&[(String, u64)]) -> Option<T>,
        simulate: impl FnOnce() -> Result<(Vec<(String, u64)>, T), CoreError>,
    ) -> Result<T, CoreError> {
        self.jobs_total.fetch_add(1, Ordering::Relaxed);
        let hash = fnv1a(key.as_bytes());
        if let Some(fields) = self.lookup(hash, key) {
            if let Some(v) = decode(&fields) {
                self.jobs_cached.fetch_add(1, Ordering::Relaxed);
                return Ok(v);
            }
        }
        let (fields, v) = simulate()?;
        self.jobs_simulated.fetch_add(1, Ordering::Relaxed);
        self.store(hash, key, fields);
        Ok(v)
    }

    /// In-process map first, then disk. Both paths verify the stored
    /// full key against the requested one, so an FNV collision degrades
    /// to a miss instead of returning a wrong result.
    fn lookup(&self, hash: u64, key: &str) -> Option<Vec<(String, u64)>> {
        {
            let mem = self.mem.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(e) = mem.get(&hash) {
                if e.key == key {
                    return Some(e.fields.clone());
                }
                return None;
            }
        }
        let dir = self.cache_dir.as_ref()?;
        let path = entry_path(dir, hash);
        let text = std::fs::read_to_string(&path).ok()?;
        let Ok((stored_key, fields)) = parse_entry(&text) else {
            self.quarantine(dir, &path);
            return None;
        };
        if stored_key != key {
            // A full-key mismatch is an FNV collision with some *other*
            // valid job, not corruption — leave the file alone.
            return None;
        }
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).insert(
            hash,
            Entry {
                key: key.to_string(),
                fields: fields.clone(),
            },
        );
        Some(fields)
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

    fn store(&self, hash: u64, key: &str, fields: Vec<(String, u64)>) {
        if let Some(dir) = &self.cache_dir {
            let _ = std::fs::create_dir_all(dir);
            let text = render_entry(key, &fields);
            if write_entry_atomic(dir, hash, &text).is_err() {
                eprintln!("warning: could not persist sweep cache entry {hash:016x}");
            }
        }
        self.mem.lock().unwrap_or_else(|e| e.into_inner()).insert(
            hash,
            Entry {
                key: key.to_string(),
                fields,
            },
        );
    }
}

impl Default for SweepEngine {
    fn default() -> Self {
        Self::auto()
    }
}

/// RAII lease of extra worker threads from the engine's thread budget;
/// returns them on drop.
struct ShardLease<'a> {
    engine: &'a SweepEngine,
    extra: usize,
}

impl Drop for ShardLease<'_> {
    fn drop(&mut self) {
        if self.extra > 0 {
            self.engine.leased.fetch_sub(self.extra, Ordering::Relaxed);
        }
    }
}

/// Shared-engine convenience alias used across the crate.
pub type SharedEngine = Arc<SweepEngine>;

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
    shards: SimShards,
) -> Result<(GroupOutcome, Option<PhaseCycles>), CoreError> {
    let mut gpu = Gpu::new(cfg.clone())?;
    gpu.set_profiling(profile_phases);
    shards.apply(&mut gpu);
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

/// Scale as exact bit patterns (scales are `f64` multipliers).
fn scale_key(scale: Scale) -> String {
    format!("i:{:016x},g:{:016x}", scale.iters.to_bits(), scale.grid.to_bits())
}

/// Historical benchmark-typed key shape, kept to pin the format in
/// tests (the engine itself routes through [`workload_profile_key`]).
#[cfg(test)]
fn profile_key(cfg: &GpuConfig, scale: Scale, bench: Benchmark, num_sms: u32) -> String {
    workload_profile_key(cfg, scale, bench.name(), num_sms)
}

/// Profile key over a [`Workload`] key token. `Bench` tokens are bare
/// benchmark names, so this renders byte-identically to the historical
/// `profile_key` format for synthetic workloads.
fn workload_profile_key(cfg: &GpuConfig, scale: Scale, token: &str, num_sms: u32) -> String {
    format!(
        "v1|profile|{}|sms={}|{}|{}",
        token,
        num_sms,
        scale_key(scale),
        config_key(cfg)
    )
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

/// Historical benchmark-typed key shape, kept to pin the format in
/// tests (the engine itself routes through [`workload_corun_key`]).
#[cfg(test)]
fn corun_key(cfg: &GpuConfig, scale: Scale, group: &[Benchmark], mode: &CorunMode) -> String {
    let ws: Vec<Workload> = group.iter().map(|&b| Workload::Bench(b)).collect();
    workload_corun_key(cfg, scale, &ws, mode)
}

/// Co-run key over [`Workload`] key tokens; byte-identical to the
/// historical `corun_key` format for all-`Bench` groups.
fn workload_corun_key(cfg: &GpuConfig, scale: Scale, group: &[Workload], mode: &CorunMode) -> String {
    let tokens: Vec<String> = group.iter().map(Workload::key_token).collect();
    format!(
        "v1|corun|{}|{}|{}|{}",
        tokens.join("+"),
        mode_key(mode),
        scale_key(scale),
        config_key(cfg)
    )
}

// ----------------------------------------------------------------------
// Entry encode/decode (floats as bit patterns: exact round trips)
// ----------------------------------------------------------------------

fn encode_profile(p: &AppProfile) -> Vec<(String, u64)> {
    vec![
        ("memory_bw".into(), p.memory_bw.to_bits()),
        ("l2_l1_bw".into(), p.l2_l1_bw.to_bits()),
        ("ipc".into(), p.ipc.to_bits()),
        ("r".into(), p.r.to_bits()),
        ("utilization".into(), p.utilization.to_bits()),
        ("cycles".into(), p.cycles),
        ("thread_insts".into(), p.thread_insts),
        ("num_sms".into(), u64::from(p.num_sms)),
    ]
}

/// Reconstructs a profile from the flat u64 fields. The kernel name is
/// not stored; [`SweepEngine::profile`] restores it from the benchmark
/// its cache key pins.
fn decode_profile(fields: &[(String, u64)]) -> Option<AppProfile> {
    let get = |n: &str| field(fields, n);
    Some(AppProfile {
        name: String::new(),
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

fn encode_group(out: &GroupOutcome) -> Vec<(String, u64)> {
    let mut fields = vec![
        ("n".into(), out.cycles.len() as u64),
        ("makespan".into(), out.makespan),
    ];
    for (i, c) in out.cycles.iter().enumerate() {
        fields.push((format!("c{i}"), *c));
    }
    for (i, t) in out.thread_insts.iter().enumerate() {
        fields.push((format!("t{i}"), *t));
    }
    fields
}

fn decode_group(fields: &[(String, u64)], expect_n: usize) -> Option<GroupOutcome> {
    let n = usize::try_from(field(fields, "n")?).ok()?;
    if n != expect_n {
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

    // ---- intra-simulation sharding -----------------------------------

    #[test]
    fn sim_threads_never_changes_results() {
        let reference = SweepEngine::sequential();
        let jobs: Vec<(Vec<Benchmark>, CorunMode)> = vec![
            (vec![Benchmark::Gups, Benchmark::Spmv], CorunMode::Even),
            (
                vec![Benchmark::Gups, Benchmark::Sad],
                CorunMode::Smra(SmraParams {
                    tc: 400,
                    ..SmraParams::for_device(8, 2)
                }),
            ),
        ];
        let suite = [Benchmark::Gups, Benchmark::Lud];
        let want_p = reference.profile_suite(&cfg(), Scale::TEST, &suite).unwrap();
        let want_o = reference.corun_batch(&cfg(), Scale::TEST, &jobs).unwrap();
        for (threads, sim_threads) in [(1, 4), (2, 2), (4, 4)] {
            let e = SweepEngine::new(threads).with_sim_threads(sim_threads);
            assert_eq!(e.sim_threads(), sim_threads);
            assert_eq!(
                want_p,
                e.profile_suite(&cfg(), Scale::TEST, &suite).unwrap(),
                "profiles moved at threads={threads} sim_threads={sim_threads}"
            );
            assert_eq!(
                want_o,
                e.corun_batch(&cfg(), Scale::TEST, &jobs).unwrap(),
                "co-runs moved at threads={threads} sim_threads={sim_threads}"
            );
            assert_eq!(e.stats().jobs_simulated, 4, "sharded jobs must still cache");
        }
    }

    #[test]
    fn sim_threads_does_not_change_cache_keys() {
        let tmp = TempCache::new("simthreads");
        let warm = SweepEngine::sequential().with_cache_dir(&tmp.0);
        warm.profile(&cfg(), Scale::TEST, Benchmark::Gups, 8).unwrap();
        assert_eq!(warm.stats().jobs_simulated, 1);
        // A sharded engine must hit the entry the unsharded one wrote.
        let sharded = SweepEngine::new(2)
            .with_sim_threads(4)
            .with_cache_dir(&tmp.0);
        sharded.profile(&cfg(), Scale::TEST, Benchmark::Gups, 8).unwrap();
        let s = sharded.stats();
        assert_eq!(s.jobs_simulated, 0, "sharding must not bump cache keys");
        assert_eq!(s.jobs_cached, 1);
    }

    #[test]
    fn thread_budget_arbiter_never_oversubscribes() {
        // threads=4, sim_threads=3: one caller gets at most 2 extra
        // (itself + 2 ≤ 4); concurrent leases share the same budget.
        let e = SweepEngine::new(4).with_sim_threads(3);
        let a = e.lease_shard_workers();
        assert_eq!(a.extra, 2);
        let b = e.lease_shard_workers();
        assert!(
            a.extra + b.extra < 4,
            "leases exceed the budget: {} + {}",
            a.extra,
            b.extra
        );
        drop(a);
        let c = e.lease_shard_workers();
        assert_eq!(c.extra, 2, "dropped lease must return its threads");
        drop(c);
        drop(b);
        assert_eq!(e.leased.load(Ordering::Relaxed), 0);

        // With the whole pool committed to batch fan-out, every lease
        // is denied — batch parallelism wins the budget.
        e.committed.fetch_add(4, Ordering::Relaxed);
        assert_eq!(e.lease_shard_workers().extra, 0);
        e.committed.fetch_sub(4, Ordering::Relaxed);

        // sim_threads=1 never leases, whatever the budget.
        let off = SweepEngine::new(8);
        assert_eq!(off.lease_shard_workers().extra, 0);
    }

    #[test]
    fn mem_shards_ride_the_sm_lease_without_a_second_one() {
        // threads=2, sim_threads=2: the single grant takes the one
        // spare thread for its SM-shard workers, *and* carries the
        // memory-shard count — phase M runs on those same workers, so
        // while it is held no further thread is leasable, yet the
        // grant's mem_shards is already the full sim_threads target.
        // Leased SM + memory shard workers therefore never exceed the
        // GCS_SIM_THREADS budget: there is no second lease to exceed
        // it with.
        let e = SweepEngine::new(2).with_sim_threads(2);
        let (grant, lease) = e.shard_grant();
        assert_eq!(grant.shards, 2);
        assert_eq!(grant.mem_shards, 2, "phase M granted from the same lease");
        assert_eq!(grant.workers, 2);
        assert_eq!(lease.extra, 1);
        assert_eq!(
            e.lease_shard_workers().extra,
            0,
            "no spare thread while the grant is held — a second lease \
             for phase M would oversubscribe, and none is taken"
        );
        drop(lease);
        assert_eq!(e.leased.load(Ordering::Relaxed), 0);

        // With sharding off the grant leaves memory sharding off too.
        let off = SweepEngine::new(8);
        let (grant, _lease) = off.shard_grant();
        assert_eq!(grant.mem_shards, 1);
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
