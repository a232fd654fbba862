//! End-to-end queue execution under every evaluated policy.
//!
//! The thesis compares:
//!
//! * **Even** — applications co-run in arrival order with an equal SM
//!   split (the baseline of every figure);
//! * **Serial** — one application at a time on the whole device;
//! * **FCFS** — groups formed in arrival order;
//! * **ILP** — groups chosen by the contention-minimization ILP
//!   (§3.2.3);
//! * **Profile-based \[17\]** — arrival-order groups with a static SM
//!   split chosen from offline alone-run scalability curves
//!   (Adriaens et al., HPCA 2012);
//! * **ILP-SMRA** — ILP grouping plus the Algorithm 1 dynamic SM
//!   reallocation controller.
//!
//! A [`Pipeline`] caches the expensive inputs (profiles, classes, the
//! interference matrix, scalability curves) so one set of measurements
//! serves every policy — exactly how the thesis' flow works.

use std::collections::BTreeMap;
use std::sync::Arc;

use gcs_sim::config::GpuConfig;
use gcs_sim::KernelTrace;
use gcs_workloads::{Benchmark, Scale};

use crate::classify::{classify_suite, AppClass, Thresholds};
use crate::fault::Degradation;
use crate::ilp::GroupingModel;
use crate::interference::InterferenceMatrix;
use crate::profile::AppProfile;
use crate::smra::SmraParams;
use crate::sweep::{CorunMode, GroupOutcome, SweepEngine, SweepStats, Workload};
use crate::CoreError;

/// How groups are formed from the queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GroupingPolicy {
    /// One application at a time.
    Serial,
    /// Arrival-order chunks of `concurrency`.
    Fcfs,
    /// The paper's ILP grouping.
    Ilp,
}

/// How SMs are divided inside a group.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AllocationPolicy {
    /// Equal split (baseline).
    Even,
    /// Static split from offline scalability curves (Adriaens \[17\]).
    ProfileBased,
    /// Dynamic reallocation (Algorithm 1).
    Smra,
}

/// Execution parameters shared by a set of runs.
#[derive(Debug, Clone, PartialEq)]
pub struct RunConfig {
    /// Device model.
    pub gpu: GpuConfig,
    /// Workload scale.
    pub scale: Scale,
    /// Applications per co-run group (the paper's `NC`; 2 or 3).
    pub concurrency: u32,
}


/// Per-application outcome inside one group.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRun {
    /// Which benchmark ran.
    pub bench: Benchmark,
    /// Cycles from its first dispatch to retirement.
    pub cycles: u64,
    /// Thread instructions retired.
    pub thread_insts: u64,
    /// Thread IPC over its own runtime.
    pub ipc: f64,
}

/// Outcome of one co-run group.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct GroupResult {
    /// Group members in launch order.
    pub apps: Vec<AppRun>,
    /// Group makespan in cycles (all members finished).
    pub makespan: u64,
}

impl GroupResult {
    /// Overwrites the result with co-running `group` as the engine
    /// measured it, keeping the capacity of `apps`.
    pub fn assign(&mut self, group: &[Benchmark], out: &GroupOutcome) {
        self.apps.clear();
        self.apps.extend(group.iter().enumerate().map(|(i, &bench)| {
            let cycles = out.cycles[i];
            AppRun {
                bench,
                cycles,
                thread_insts: out.thread_insts[i],
                ipc: out.thread_insts[i] as f64 / cycles as f64,
            }
        }));
        self.makespan = out.makespan;
    }

    /// Group device throughput: all members' instructions over the
    /// makespan.
    pub fn throughput(&self) -> f64 {
        if self.makespan == 0 {
            return 0.0;
        }
        let insts: u64 = self.apps.iter().map(|a| a.thread_insts).sum();
        insts as f64 / self.makespan as f64
    }
}

/// Outcome of a whole queue.
#[derive(Debug, Clone, PartialEq)]
pub struct QueueReport {
    /// Groups in execution order.
    pub groups: Vec<GroupResult>,
    /// Sum of group makespans (groups run back-to-back).
    pub total_cycles: u64,
    /// Total thread instructions.
    pub total_thread_insts: u64,
    /// Device throughput over the whole queue (Eq. 1.1).
    pub device_throughput: f64,
    /// Downgrades applied while producing this report (e.g. the ILP
    /// grouping degrading to greedy). Empty on a fully clean run.
    pub degradations: Vec<Degradation>,
}

impl QueueReport {
    /// Per-benchmark mean IPC across the queue (Fig 4.4-4.8's bars).
    pub fn per_bench_ipc(&self) -> Vec<(Benchmark, f64)> {
        let mut acc: BTreeMap<Benchmark, (f64, u32)> = BTreeMap::new();
        for g in &self.groups {
            for a in &g.apps {
                let e = acc.entry(a.bench).or_insert((0.0, 0));
                e.0 += a.ipc;
                e.1 += 1;
            }
        }
        acc.into_iter()
            .map(|(b, (sum, n))| (b, sum / f64::from(n)))
            .collect()
    }
}

/// Cached measurement state driving every policy.
#[derive(Debug)]
pub struct Pipeline {
    cfg: RunConfig,
    engine: Arc<SweepEngine>,
    /// `profiles[b as usize]` is benchmark `b`'s alone profile.
    profiles: Vec<AppProfile>,
    /// `classes[b as usize]` is benchmark `b`'s class.
    classes: [AppClass; Benchmark::ALL.len()],
    thresholds: Thresholds,
    matrix: InterferenceMatrix,
    /// The grouping ILP for `concurrency` under `matrix`, both fixed
    /// for the pipeline's life; `None` when `concurrency < 2` (every
    /// group is a singleton, nothing to solve).
    ilp: Option<GroupingModel>,
    curves: BTreeMap<Benchmark, Vec<(u32, f64)>>,
    ilp_node_limit: Option<usize>,
    /// `workloads[b as usize]` runs behind suite slot `b`: the bound
    /// trace if one exists, otherwise the synthetic benchmark — in
    /// profiling, classification, scalability curves and co-runs.
    workloads: Vec<Workload>,
}

impl Pipeline {
    /// Profiles the full 14-benchmark suite, classifies it, and measures
    /// the class interference matrix on the configured device by
    /// co-running **every** benchmark pair (§3.2.2's procedure; 14 alone
    /// runs + 105 co-runs). For a cheaper approximation, combine
    /// [`InterferenceMatrix::measure_suite_with`] over a few
    /// representatives with [`Pipeline::with_matrix`].
    ///
    /// All simulations flow through a machine-sized [`SweepEngine`]
    /// (in-memory memoization, no disk cache); use
    /// [`Pipeline::new_with_engine`] to share an engine or persist its
    /// cache.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn new(cfg: RunConfig) -> Result<Self, CoreError> {
        Self::new_with_engine(cfg, Arc::new(SweepEngine::auto()))
    }

    /// [`Pipeline::new`] through a caller-provided engine: the sweep is
    /// parallelized across the engine's workers and every simulation is
    /// memoized (and, with a cache directory, persisted), so repeated
    /// pipeline constructions skip re-simulating entirely.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures.
    pub fn new_with_engine(cfg: RunConfig, engine: Arc<SweepEngine>) -> Result<Self, CoreError> {
        let matrix = InterferenceMatrix::measure_full_with(&engine, &cfg.gpu, cfg.scale)?;
        Self::with_matrix_and_engine(cfg, matrix, engine)
    }

    /// Like [`Pipeline::new`] but with a caller-provided interference
    /// matrix (e.g. [`InterferenceMatrix::synthetic_paper_shape`] to
    /// skip the measurement co-runs in tests).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures from the alone-run profiling.
    pub fn with_matrix(cfg: RunConfig, matrix: InterferenceMatrix) -> Result<Self, CoreError> {
        Self::with_matrix_and_engine(cfg, matrix, Arc::new(SweepEngine::auto()))
    }

    /// [`Pipeline::with_matrix`] through a caller-provided engine.
    ///
    /// # Errors
    ///
    /// Propagates simulator failures from the alone-run profiling.
    pub fn with_matrix_and_engine(
        cfg: RunConfig,
        matrix: InterferenceMatrix,
        engine: Arc<SweepEngine>,
    ) -> Result<Self, CoreError> {
        Self::with_matrix_engine_and_bindings(cfg, matrix, engine, BTreeMap::new())
    }

    /// [`Pipeline::with_matrix_and_engine`] with trace-backed suite
    /// entries: each `(bench, trace)` binding substitutes the trace for
    /// the synthetic kernel behind that suite slot. The bound slot is
    /// profiled, classified and co-run from the trace; unbound slots
    /// are untouched, and an empty map reproduces
    /// [`Pipeline::with_matrix_and_engine`] exactly (same cache keys,
    /// same job counts).
    ///
    /// # Errors
    ///
    /// Propagates simulator failures from the alone-run profiling,
    /// including validation failures of a bound trace.
    pub fn with_matrix_engine_and_bindings(
        cfg: RunConfig,
        matrix: InterferenceMatrix,
        engine: Arc<SweepEngine>,
        bindings: BTreeMap<Benchmark, Arc<KernelTrace>>,
    ) -> Result<Self, CoreError> {
        let workloads: Vec<Workload> = Benchmark::ALL
            .iter()
            .map(|b| match bindings.get(b) {
                Some(t) => Workload::Trace(Arc::clone(t)),
                None => Workload::Bench(*b),
            })
            .collect();
        // Probe-first: the in-process memo serves each profile inline
        // (after `new_with_engine`'s measurement, every one), and only
        // the misses go through a parallel batch.
        let (gpu, scale, sms) = (&cfg.gpu, cfg.scale, cfg.gpu.num_sms);
        let mut probed = Vec::with_capacity(workloads.len());
        for w in &workloads {
            engine.profile_memo(gpu, scale, w, &[sms], AppProfile::clone, &mut probed);
        }
        let misses: Vec<usize> = (0..probed.len()).filter(|&i| probed[i].is_none()).collect();
        let filled = engine.run_parallel(misses.len(), |k| {
            engine.profile_workload(gpu, scale, &workloads[misses[k]], sms)
        })?;
        for (&i, p) in misses.iter().zip(filled) {
            probed[i] = Some(p);
        }
        let profiles: Vec<AppProfile> = probed
            .into_iter()
            .map(|p| p.expect("every profile probed or filled"))
            .collect();
        let (thresholds, class_list) = classify_suite(&cfg.gpu, &profiles);
        let classes = class_list
            .try_into()
            .expect("classify_suite classifies every benchmark");
        let ilp = (cfg.concurrency >= 2).then(|| GroupingModel::new(cfg.concurrency, &matrix));
        Ok(Pipeline {
            cfg,
            engine,
            profiles,
            classes,
            thresholds,
            matrix,
            ilp,
            curves: BTreeMap::new(),
            ilp_node_limit: None,
            workloads,
        })
    }

    /// Overrides the grouping ILP's branch & bound node budget (`None`
    /// restores the solver default). When the budget is exhausted the
    /// pipeline degrades to greedy class-aware grouping instead of
    /// failing; the downgrade is recorded in
    /// [`QueueReport::degradations`].
    pub fn set_ilp_node_limit(&mut self, limit: Option<usize>) {
        self.ilp_node_limit = limit;
    }

    /// The run configuration.
    pub fn config(&self) -> &RunConfig {
        &self.cfg
    }

    /// The sweep engine executing and memoizing this pipeline's
    /// simulations.
    pub fn engine(&self) -> &Arc<SweepEngine> {
        &self.engine
    }

    /// Snapshot of the engine's counters (jobs simulated vs. cached,
    /// estimated parallel speedup); the bench harness prints this.
    pub fn sweep_stats(&self) -> SweepStats {
        self.engine.stats()
    }

    /// Measured alone-run profile of `bench`.
    pub fn profile(&self, bench: Benchmark) -> &AppProfile {
        &self.profiles[bench as usize]
    }

    /// Measured class of `bench`.
    pub fn class_of(&self, bench: Benchmark) -> AppClass {
        self.classes[bench as usize]
    }

    /// Thresholds derived from the measured suite.
    pub fn thresholds(&self) -> &Thresholds {
        &self.thresholds
    }

    /// The interference matrix in use.
    pub fn matrix(&self) -> &InterferenceMatrix {
        &self.matrix
    }

    /// Forms groups from `queue` under `policy`.
    ///
    /// For [`GroupingPolicy::Ilp`], apps beyond the largest
    /// `concurrency`-divisible prefix count are grouped FCFS at the end
    /// (the thesis assumes divisible queues).
    ///
    /// # Errors
    ///
    /// [`CoreError::Milp`] if the ILP solve fails.
    pub fn group(
        &self,
        queue: &[Benchmark],
        policy: GroupingPolicy,
    ) -> Result<Vec<Vec<Benchmark>>, CoreError> {
        self.group_with_degradations(queue, policy).map(|(g, _)| g)
    }

    /// [`Pipeline::group`], additionally reporting any downgrades taken
    /// while grouping (currently: the ILP degrading to greedy when its
    /// node budget runs out or the instance is infeasible).
    ///
    /// # Errors
    ///
    /// Same as [`Pipeline::group`].
    pub fn group_with_degradations(
        &self,
        queue: &[Benchmark],
        policy: GroupingPolicy,
    ) -> Result<(Vec<Vec<Benchmark>>, Vec<Degradation>), CoreError> {
        let nc = self.cfg.concurrency.max(1);
        match policy {
            GroupingPolicy::Serial => {
                Ok((queue.iter().map(|&b| vec![b]).collect(), Vec::new()))
            }
            GroupingPolicy::Fcfs => Ok((
                queue.chunks(nc as usize).map(<[_]>::to_vec).collect(),
                Vec::new(),
            )),
            GroupingPolicy::Ilp => match self.group_ilp_by(queue, |&b| b, |&b| b) {
                Ok(groups) => Ok((groups, Vec::new())),
                Err(CoreError::Milp(e)) => Ok((
                    self.group_greedy_class(queue),
                    vec![Degradation::IlpGreedyFallback {
                        reason: e.to_string(),
                    }],
                )),
                Err(e) => Err(e),
            },
        }
    }

    /// The ILP grouping of `queue`, whose items name their benchmark
    /// through `bench`; each group lists `out` of its members. Only the
    /// head of the queue — its largest `concurrency`-divisible prefix —
    /// is solved for; a remainder becomes one final group in arrival
    /// order, and a queue shorter than one group is that group alone.
    /// Each pattern takes the earliest not-yet-grouped items of each of
    /// its classes, so on `Benchmark` items this is
    /// [`Pipeline::group`]'s ILP grouping, and on any items it is that
    /// grouping with each benchmark slot filled by the earliest unused
    /// item of that benchmark.
    ///
    /// # Errors
    ///
    /// [`CoreError::Milp`] when the solve fails (node budget,
    /// infeasible census); [`Pipeline::group_with_degradations`] turns
    /// that into its greedy fallback instead.
    pub fn group_ilp_by<T, U>(
        &self,
        queue: &[T],
        bench: impl Fn(&T) -> Benchmark,
        out: impl Fn(&T) -> U,
    ) -> Result<Vec<Vec<U>>, CoreError> {
        let Some(model) = &self.ilp else {
            return Ok(queue.iter().map(|t| vec![out(t)]).collect());
        };
        let nc = self.cfg.concurrency as usize;
        let usable = queue.len() / nc * nc;
        let (head, tail) = queue.split_at(usable);
        let tail_group = usize::from(!tail.is_empty());
        let mut groups = Vec::with_capacity(usable / nc + tail_group);

        // A queue shorter than one group has nothing for the ILP to
        // decide (and the solver rejects an empty census): the whole
        // queue is the remainder group. The online scheduler leans on
        // this — a near-drained admission queue must still dispatch.
        if !head.is_empty() {
            let class = |t: &T| self.class_of(bench(t));
            let mut census = [0u32; AppClass::COUNT];
            for t in head {
                census[class(t).index()] += 1;
            }
            // Instantiate patterns FCFS within each class: `next[c]` is
            // where the scan for class `c`'s next unused item resumes.
            let mut next = [0usize; AppClass::COUNT];
            model.solve_each(census, self.ilp_node_limit, |pattern, mult| {
                for _ in 0..mult {
                    let mut group = Vec::with_capacity(nc);
                    for c in AppClass::ALL {
                        let at = &mut next[c.index()];
                        for _ in 0..pattern.count(c) {
                            while class(&head[*at]) != c {
                                *at += 1;
                            }
                            group.push(out(&head[*at]));
                            *at += 1;
                        }
                    }
                    groups.push(group);
                }
            })?;
        }
        if !tail.is_empty() {
            groups.push(tail.iter().map(out).collect());
        }
        Ok(groups)
    }

    /// Deterministic class-aware greedy grouping over an arbitrary
    /// queue — the standalone version of the ILP's degradation path,
    /// exposed so online schedulers can form groups over a live
    /// admission census without paying for a solve. The largest
    /// `concurrency`-divisible prefix is grouped greedily (see
    /// [`Pipeline::group_with_degradations`]'s fallback); any remainder
    /// becomes one final FCFS group, mirroring the ILP path's tail rule.
    pub fn group_greedy_class(&self, queue: &[Benchmark]) -> Vec<Vec<Benchmark>> {
        let nc = self.cfg.concurrency.max(1);
        let usable = (queue.len() as u32 / nc) * nc;
        let (head, tail) = queue.split_at(usable as usize);
        let mut groups = self.group_greedy(head, nc);
        if !tail.is_empty() {
            groups.push(tail.to_vec());
        }
        groups
    }

    /// Greedy class-aware fallback grouping for when the ILP cannot
    /// produce a solution: sort the head by class (memory-bound first,
    /// FCFS within a class), then form each group from one app at the
    /// memory-bound end plus `nc - 1` from the compute-bound end. This
    /// spreads the most contentious apps across groups — the same
    /// intuition Eq. 3.3 optimizes exactly — and is deterministic.
    ///
    /// `head.len()` must be a multiple of `nc`.
    fn group_greedy(&self, head: &[Benchmark], nc: u32) -> Vec<Vec<Benchmark>> {
        debug_assert!(
            (head.len() as u32).is_multiple_of(nc),
            "head must be divisible"
        );
        let mut sorted: Vec<Benchmark> = head.to_vec();
        sorted.sort_by_key(|&b| self.class_of(b).index());
        let mut groups = Vec::with_capacity(sorted.len() / nc as usize);
        let (mut front, mut back) = (0usize, sorted.len());
        while front < back {
            let mut group = Vec::with_capacity(nc as usize);
            group.push(sorted[front]);
            front += 1;
            for _ in 1..nc {
                back -= 1;
                group.push(sorted[back]);
            }
            groups.push(group);
        }
        groups
    }

    /// Executes one group under `alloc`. The co-run goes through the
    /// sweep engine, so identical groups (same benchmarks, policy,
    /// scale, device) are served from the memo cache.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors.
    pub fn run_group(
        &mut self,
        group: &[Benchmark],
        alloc: AllocationPolicy,
    ) -> Result<GroupResult, CoreError> {
        let mut out = GroupResult {
            apps: Vec::with_capacity(group.len()),
            makespan: 0,
        };
        self.run_group_into(group, alloc, &mut out)?;
        Ok(out)
    }

    /// [`Pipeline::run_group`] into a result the caller keeps: a warm
    /// group is read where the memo stores it, so an Even or SMRA hit
    /// allocates nothing once `out.apps` has room for the group.
    ///
    /// # Errors
    ///
    /// Propagates simulator errors; `out` is then unspecified.
    pub fn run_group_into(
        &mut self,
        group: &[Benchmark],
        alloc: AllocationPolicy,
        out: &mut GroupResult,
    ) -> Result<(), CoreError> {
        assert!(!group.is_empty(), "empty group");
        let mode = match alloc {
            AllocationPolicy::Even => CorunMode::Even,
            AllocationPolicy::ProfileBased => CorunMode::Counts(self.profile_based_split(group)?),
            AllocationPolicy::Smra => CorunMode::Smra(SmraParams::for_device(
                self.cfg.gpu.num_sms,
                group.len() as u32,
            )),
        };
        let ws = group.iter().map(|&b| &self.workloads[b as usize]);
        let (gpu, scale) = (&self.cfg.gpu, self.cfg.scale);
        self.engine
            .corun_with(gpu, scale, ws, &mode, |o| out.assign(group, o))
    }

    /// Executes a whole queue: group, then run groups back-to-back.
    ///
    /// # Errors
    ///
    /// Propagates grouping and simulation errors.
    pub fn run_queue(
        &mut self,
        queue: &[Benchmark],
        grouping: GroupingPolicy,
        alloc: AllocationPolicy,
    ) -> Result<QueueReport, CoreError> {
        let (groups, degradations) = self.group_with_degradations(queue, grouping)?;
        let mut results = Vec::with_capacity(groups.len());
        for g in &groups {
            results.push(self.run_group(g, alloc)?);
        }
        let total_cycles: u64 = results.iter().map(|r| r.makespan).sum();
        let total_thread_insts: u64 = results
            .iter()
            .flat_map(|r| r.apps.iter().map(|a| a.thread_insts))
            .sum();
        Ok(QueueReport {
            groups: results,
            total_cycles,
            total_thread_insts,
            device_throughput: if total_cycles == 0 {
                0.0
            } else {
                total_thread_insts as f64 / total_cycles as f64
            },
            degradations,
        })
    }

    /// The Profile-based \[17\] static split: maximize the sum of
    /// interpolated alone-run IPC curves over integer splits that give
    /// every member at least one SM.
    fn profile_based_split(&mut self, group: &[Benchmark]) -> Result<Vec<u32>, CoreError> {
        let n_sms = self.cfg.gpu.num_sms;
        if group.len() == 1 {
            return Ok(vec![n_sms]);
        }
        for &b in group {
            self.ensure_curve(b)?;
        }
        let est = |b: Benchmark, sms: u32| -> f64 { interpolate(&self.curves[&b], sms) };

        match group.len() {
            2 => {
                let (mut best_s, mut best_v) = (n_sms / 2, f64::MIN);
                for s in 1..n_sms {
                    let v = est(group[0], s) + est(group[1], n_sms - s);
                    if v > best_v {
                        best_v = v;
                        best_s = s;
                    }
                }
                Ok(vec![best_s, n_sms - best_s])
            }
            3 => {
                let mut best = (n_sms / 3, n_sms / 3);
                let mut best_v = f64::MIN;
                for a in 1..n_sms - 1 {
                    for b in 1..n_sms - a {
                        let c = n_sms - a - b;
                        let v = est(group[0], a) + est(group[1], b) + est(group[2], c);
                        if v > best_v {
                            best_v = v;
                            best = (a, b);
                        }
                    }
                }
                Ok(vec![best.0, best.1, n_sms - best.0 - best.1])
            }
            n => {
                // Larger groups: even split (the paper never exceeds 3).
                let per = n_sms / n as u32;
                let mut counts = vec![per; n];
                counts[0] += n_sms - per * n as u32;
                Ok(counts)
            }
        }
    }

    fn ensure_curve(&mut self, bench: Benchmark) -> Result<(), CoreError> {
        if self.curves.contains_key(&bench) {
            return Ok(());
        }
        let grid = budget_grid(self.cfg.gpu.num_sms);
        // One memoized profile job per grid point, fanned across the
        // engine's workers.
        let engine = Arc::clone(&self.engine);
        let gpu = self.cfg.gpu.clone();
        let scale = self.cfg.scale;
        let workload = &self.workloads[bench as usize];
        let curve: Vec<(u32, f64)> = engine
            .run_parallel(grid.len(), |i| {
                engine
                    .profile_workload(&gpu, scale, workload, grid[i])
                    .map(|p| (grid[i], p.ipc))
            })?;
        self.curves.insert(bench, curve);
        Ok(())
    }
}

/// The SM-budget sample grid of a scalability curve on a device of
/// `capacity` SMs: six relative points, clamped to ≥ 1, ascending and
/// deduped, the last one the full device. The pipeline's curves and the
/// fleet predictor's both sample it.
pub fn budget_grid(capacity: u32) -> Vec<u32> {
    let n = capacity;
    let mut grid: Vec<u32> = [n / 6, n / 3, n / 2, 2 * n / 3, 5 * n / 6, n]
        .into_iter()
        .map(|x| x.max(1))
        .collect();
    grid.sort_unstable();
    grid.dedup();
    grid
}

/// Linear interpolation over a measured, ascending `(sms, value)`
/// curve: exact at sample points, linear between them, proportional
/// extrapolation below the first sample and clamped above the last.
///
/// Deterministic for a given curve — the fleet predictor leans on this
/// for bit-identical budget plans across sweep thread counts.
///
/// # Panics
///
/// Debug-asserts a non-empty curve; on an empty curve in release the
/// final `expect` panics.
pub fn interpolate(curve: &[(u32, f64)], sms: u32) -> f64 {
    debug_assert!(!curve.is_empty());
    if sms <= curve[0].0 {
        // Extrapolate proportionally below the first sample.
        return curve[0].1 * f64::from(sms) / f64::from(curve[0].0.max(1));
    }
    for w in curve.windows(2) {
        let (x0, y0) = w[0];
        let (x1, y1) = w[1];
        if sms <= x1 {
            let t = f64::from(sms - x0) / f64::from(x1 - x0).max(1.0);
            return y0 + t * (y1 - y0);
        }
    }
    curve.last().expect("non-empty").1
}

/// One-shot convenience: builds a full [`Pipeline`] (profiling suite +
/// measuring interference) and runs `queue`. Prefer constructing a
/// [`Pipeline`] once when running several policies.
///
/// This is a thin delegate to [`Pipeline::run_queue`] — it carries no
/// execution logic of its own, so the two paths can never diverge.
///
/// # Errors
///
/// Propagates pipeline construction and execution errors.
pub fn run_queue(
    queue: &[Benchmark],
    grouping: GroupingPolicy,
    alloc: AllocationPolicy,
    cfg: &RunConfig,
) -> Result<QueueReport, CoreError> {
    Pipeline::new(cfg.clone())?.run_queue(queue, grouping, alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_pipeline() -> Pipeline {
        let cfg = RunConfig {
            gpu: GpuConfig::test_small(),
            scale: Scale::TEST,
            concurrency: 2,
        };
        Pipeline::with_matrix(cfg, InterferenceMatrix::synthetic_paper_shape()).unwrap()
    }

    #[test]
    fn grouping_policies_cover_queue() {
        let p = test_pipeline();
        let queue = vec![
            Benchmark::Blk,
            Benchmark::Sad,
            Benchmark::Gups,
            Benchmark::Hs,
        ];
        for policy in [GroupingPolicy::Serial, GroupingPolicy::Fcfs, GroupingPolicy::Ilp] {
            let groups = p.group(&queue, policy).unwrap();
            let flat: Vec<Benchmark> = groups.iter().flatten().copied().collect();
            let mut sorted = flat.clone();
            sorted.sort_unstable();
            let mut want = queue.clone();
            want.sort_unstable();
            assert_eq!(sorted, want, "{policy:?} lost or duplicated apps");
        }
    }

    #[test]
    fn serial_groups_are_singletons() {
        let p = test_pipeline();
        let groups = p
            .group(&[Benchmark::Blk, Benchmark::Hs], GroupingPolicy::Serial)
            .unwrap();
        assert!(groups.iter().all(|g| g.len() == 1));
    }

    #[test]
    fn fcfs_preserves_arrival_order() {
        let p = test_pipeline();
        let q = vec![
            Benchmark::Blk,
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Sad,
        ];
        let groups = p.group(&q, GroupingPolicy::Fcfs).unwrap();
        assert_eq!(groups[0], vec![Benchmark::Blk, Benchmark::Gups]);
        assert_eq!(groups[1], vec![Benchmark::Hs, Benchmark::Sad]);
    }

    #[test]
    fn grouping_handles_empty_and_short_queues() {
        // The online scheduler plans over a live admission queue that
        // can be empty or shorter than one group; no policy may error.
        let p = test_pipeline();
        for policy in [GroupingPolicy::Serial, GroupingPolicy::Fcfs, GroupingPolicy::Ilp] {
            let (groups, degradations) = p
                .group_with_degradations(&[], policy)
                .unwrap_or_else(|e| panic!("{policy:?} on empty queue: {e}"));
            assert!(groups.is_empty(), "{policy:?}");
            assert!(degradations.is_empty(), "{policy:?}");

            let (groups, degradations) = p
                .group_with_degradations(&[Benchmark::Gups], policy)
                .unwrap_or_else(|e| panic!("{policy:?} on singleton queue: {e}"));
            assert_eq!(groups, vec![vec![Benchmark::Gups]], "{policy:?}");
            assert!(degradations.is_empty(), "short queue is not a degradation");
        }
    }

    #[test]
    fn greedy_class_grouping_is_public_and_total() {
        let p = test_pipeline();
        assert!(p.group_greedy_class(&[]).is_empty());
        // Indivisible queue: greedy head + FCFS remainder group.
        let q = vec![
            Benchmark::Gups,
            Benchmark::Sad,
            Benchmark::Spmv,
            Benchmark::Lud,
            Benchmark::Hs,
        ];
        let groups = p.group_greedy_class(&q);
        assert_eq!(groups.len(), 3);
        assert_eq!(groups[2], vec![Benchmark::Hs], "remainder is the tail");
        let mut flat: Vec<Benchmark> = groups.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = q.clone();
        want.sort_unstable();
        assert_eq!(flat, want, "greedy grouping lost or duplicated apps");
        // Deterministic.
        assert_eq!(groups, p.group_greedy_class(&q));
    }

    #[test]
    fn ilp_handles_indivisible_tail() {
        let p = test_pipeline();
        let q = vec![
            Benchmark::Blk,
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Sad,
            Benchmark::Lud,
        ];
        let groups = p.group(&q, GroupingPolicy::Ilp).unwrap();
        let total: usize = groups.iter().map(Vec::len).sum();
        assert_eq!(total, 5);
        assert_eq!(groups.last().unwrap().len(), 1, "tail group");
    }

    #[test]
    fn ilp_node_exhaustion_degrades_to_greedy() {
        let mut p = test_pipeline();
        p.set_ilp_node_limit(Some(0));
        let q = vec![
            Benchmark::Blk,
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Sad,
        ];
        let (groups, degradations) = p
            .group_with_degradations(&q, GroupingPolicy::Ilp)
            .expect("greedy fallback must absorb the node-limit failure");
        assert_eq!(
            degradations.len(),
            1,
            "fallback must be recorded, got {degradations:?}"
        );
        assert!(matches!(
            degradations[0],
            Degradation::IlpGreedyFallback { .. }
        ));
        // The fallback still covers the queue exactly.
        assert_eq!(groups.len(), 2);
        let mut flat: Vec<Benchmark> = groups.iter().flatten().copied().collect();
        flat.sort_unstable();
        let mut want = q.clone();
        want.sort_unstable();
        assert_eq!(flat, want);
        // And the degradation reaches the queue report.
        let r = p
            .run_queue(&q, GroupingPolicy::Ilp, AllocationPolicy::Even)
            .unwrap();
        assert_eq!(r.degradations.len(), 1);
        // A healthy budget produces no degradations.
        p.set_ilp_node_limit(None);
        let r = p
            .run_queue(&q, GroupingPolicy::Ilp, AllocationPolicy::Even)
            .unwrap();
        assert!(r.degradations.is_empty());
    }

    #[test]
    fn greedy_fallback_spreads_memory_bound_apps() {
        let mut p = test_pipeline();
        p.set_ilp_node_limit(Some(0));
        // Take two memory-bound-ish and two compute-bound-ish apps; the
        // greedy pairer must not put the two lowest-class (most
        // memory-bound) apps in the same group.
        let q = vec![
            Benchmark::Gups,
            Benchmark::Spmv,
            Benchmark::Sad,
            Benchmark::Lud,
        ];
        let (groups, degradations) = p
            .group_with_degradations(&q, GroupingPolicy::Ilp)
            .unwrap();
        assert!(!degradations.is_empty());
        // The greedy pairer spreads the lowest-index (most memory-bound)
        // class present across groups whenever that is possible.
        let worst_class = q.iter().map(|&b| p.class_of(b).index()).min().unwrap();
        let worst_total = q
            .iter()
            .filter(|&&b| p.class_of(b).index() == worst_class)
            .count();
        for g in &groups {
            assert_eq!(g.len(), 2);
            if worst_total <= groups.len() {
                let worst = g
                    .iter()
                    .filter(|&&b| p.class_of(b).index() == worst_class)
                    .count();
                assert!(worst <= 1, "greedy fallback stacked the worst class: {g:?}");
            }
        }
    }

    #[test]
    fn run_group_even_reports_all_members() {
        let mut p = test_pipeline();
        let r = p
            .run_group(&[Benchmark::Lud, Benchmark::Sad], AllocationPolicy::Even)
            .unwrap();
        assert_eq!(r.apps.len(), 2);
        assert!(r.makespan > 0);
        assert!(r.throughput() > 0.0);
        for a in &r.apps {
            assert!(a.cycles <= r.makespan);
            assert!(a.thread_insts > 0);
        }
    }

    #[test]
    fn queue_report_accounting() {
        let mut p = test_pipeline();
        let q = vec![Benchmark::Lud, Benchmark::Sad];
        let r = p
            .run_queue(&q, GroupingPolicy::Fcfs, AllocationPolicy::Even)
            .unwrap();
        assert_eq!(r.groups.len(), 1);
        assert_eq!(
            r.total_cycles,
            r.groups.iter().map(|g| g.makespan).sum::<u64>()
        );
        let per = r.per_bench_ipc();
        assert_eq!(per.len(), 2);
    }

    #[test]
    fn interpolation_behaviour() {
        let curve = vec![(10u32, 100.0), (20, 150.0), (30, 160.0)];
        assert!((interpolate(&curve, 10) - 100.0).abs() < 1e-9);
        assert!((interpolate(&curve, 15) - 125.0).abs() < 1e-9);
        assert!((interpolate(&curve, 30) - 160.0).abs() < 1e-9);
        assert!((interpolate(&curve, 40) - 160.0).abs() < 1e-9, "clamps above");
        assert!((interpolate(&curve, 5) - 50.0).abs() < 1e-9, "proportional below");
    }

    #[test]
    fn pipeline_getters_are_consistent() {
        let p = test_pipeline();
        for b in Benchmark::ALL {
            let prof = p.profile(b);
            assert_eq!(prof.name, b.name());
            // The stored class must equal re-classifying the stored
            // profile under the stored thresholds.
            assert_eq!(
                p.class_of(b),
                crate::classify::classify(prof, p.thresholds()),
                "{b}: cached class diverges from thresholds"
            );
        }
        assert_eq!(p.config().concurrency, 2);
    }

    #[test]
    fn per_bench_ipc_averages_repeated_entries() {
        let mut p = test_pipeline();
        // LUD appears twice: its per-bench entry must be the mean of two
        // runs, not a duplicate.
        let q = vec![Benchmark::Lud, Benchmark::Sad, Benchmark::Lud, Benchmark::Hs];
        let r = p
            .run_queue(&q, GroupingPolicy::Fcfs, AllocationPolicy::Even)
            .unwrap();
        let per = r.per_bench_ipc();
        assert_eq!(per.len(), 3, "three distinct benchmarks");
        let lud = per
            .iter()
            .find(|(b, _)| *b == Benchmark::Lud)
            .expect("LUD present");
        assert!(lud.1 > 0.0);
    }

    #[test]
    fn smra_allocation_runs_groups_to_completion() {
        let mut p = test_pipeline();
        let r = p
            .run_group(&[Benchmark::Gups, Benchmark::Sad], AllocationPolicy::Smra)
            .unwrap();
        assert_eq!(r.apps.len(), 2);
        assert!(r.apps.iter().all(|a| a.thread_insts > 0));
    }

    #[test]
    fn profile_based_split_sums_to_device() {
        let mut p = test_pipeline();
        let counts = p
            .profile_based_split(&[Benchmark::Gups, Benchmark::Sad])
            .unwrap();
        assert_eq!(counts.iter().sum::<u32>(), 8);
        assert!(counts.iter().all(|&c| c >= 1));
    }
}
