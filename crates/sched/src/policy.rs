//! Pluggable epoch-planning policies.
//!
//! A policy answers one question: *given the jobs currently waiting,
//! in what groups should they run?* The scheduler calls
//! [`Policy::plan_over`] lazily — only when it is about to dispatch and
//! the cached plan was invalidated by new admissions (or a re-plan
//! tick) — then consumes the plan's groups front-to-back as devices
//! free up. Most policies implement [`Policy::plan`] alone, which
//! `plan_over` defaults to.
//!
//! Consuming a stale-but-uninvalidated plan is *equivalent* to
//! re-solving: the paper's grouping objective (Eq. 3.3) decomposes
//! additively over groups, so the optimal partition of the remaining
//! jobs is exactly the remaining groups of the optimal partition of the
//! original set. That equivalence is what makes the all-at-`t=0`,
//! one-GPU [`IlpEpoch`] run reproduce the batch
//! [`Pipeline::run_queue`](gcs_core::runner::Pipeline::run_queue)
//! bit-for-bit (pinned in `tests/sched.rs`).
//!
//! A *placed* plan ([`Plan::placements`]) also names each group's free
//! device and its members' SM budgets, as the fleet allocator's must. It
//! is dispatched whole at once and may leave jobs pending for the next
//! round.

use gcs_core::fault::Degradation;
use gcs_core::runner::{GroupingPolicy, Pipeline};
use gcs_core::CoreError;
use gcs_workloads::Benchmark;

use crate::queue::{AdmissionQueue, Job, JobId};

/// The groups a policy wants dispatched, front first, plus any
/// downgrades it took while planning (e.g. the ILP degrading to
/// greedy).
#[derive(Debug, Clone, Default)]
pub struct Plan {
    /// Groups of job ids, in dispatch order; no group is empty. An
    /// unplaced plan covers every pending job exactly once.
    pub groups: Vec<Vec<JobId>>,
    /// `placements[i]` places `groups[i]`; empty for an unplaced plan,
    /// whose groups take the lowest free device and `SchedConfig::alloc`.
    pub placements: Vec<Placement>,
    /// Downgrades taken while planning.
    pub degradations: Vec<Degradation>,
}

/// Where one group of a placed [`Plan`] runs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Placement {
    /// Device index; free when the plan was made.
    pub device: usize,
    /// Each member's SM budget, aligned with the group's job ids.
    pub budgets: Vec<u32>,
}

/// An epoch-grouping strategy over the pending admission queue.
pub trait Policy {
    /// Short stable name used in reports and result file names.
    fn name(&self) -> &'static str;

    /// Partitions `pending` (arrival order) into dispatch groups.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors (e.g. a hard ILP failure that cannot
    /// degrade).
    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError>;

    /// [`Policy::plan`] knowing the free devices (`free`, ascending);
    /// the scheduler always plans through it. The default ignores `free`.
    ///
    /// # Errors
    ///
    /// As [`Policy::plan`].
    fn plan_over(
        &mut self,
        pipeline: &Pipeline,
        pending: &[Job],
        free: &[usize],
    ) -> Result<Plan, CoreError> {
        let _ = free;
        self.plan(pipeline, pending)
    }

    /// The once-per-epoch notice, sent at every dispatch step that finds
    /// jobs waiting — before any planning, even with no device free. The
    /// default does nothing.
    ///
    /// # Errors
    ///
    /// Propagates pipeline errors.
    fn epoch(&mut self, pipeline: &Pipeline, queue: &AdmissionQueue) -> Result<(), CoreError> {
        let _ = (pipeline, queue);
        Ok(())
    }
}

/// First-come-first-served: chunk the queue into groups of
/// `concurrency` in arrival order — the paper's baseline, unaware of
/// application classes.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        let nc = pipeline.config().concurrency.max(1) as usize;
        Ok(Plan {
            groups: pending
                .chunks(nc)
                .map(|c| c.iter().map(|j| j.id).collect())
                .collect(),
            ..Plan::default()
        })
    }
}

/// Class-aware greedy pairing: one memory-bound app per group, filled
/// with compute-bound apps — the ILP's own degradation heuristic,
/// promoted to a first-class policy (cheap: no solve).
#[derive(Debug, Clone, Copy, Default)]
pub struct GreedyClass;

impl Policy for GreedyClass {
    fn name(&self) -> &'static str {
        "greedy"
    }

    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        let benches: Vec<Benchmark> = pending.iter().map(|j| j.bench).collect();
        let groups = pipeline.group_greedy_class(&benches);
        Ok(Plan {
            groups: ids_for_groups(pending, &groups),
            ..Plan::default()
        })
    }
}

/// Re-solve the paper's grouping ILP over the current queue census at
/// every epoch, degrading to [`GreedyClass`]'s heuristic exactly as the
/// batch pipeline does (the downgrade is recorded in the plan).
#[derive(Debug, Clone, Copy, Default)]
pub struct IlpEpoch;

impl Policy for IlpEpoch {
    fn name(&self) -> &'static str {
        "ilp"
    }

    /// The pipeline's ILP grouping, instantiated straight into job ids:
    /// each pattern slot takes the earliest unused pending job of its
    /// class, which is the job [`ids_for_groups`] would map the batch
    /// grouping's benchmark to.
    fn plan(&mut self, pipeline: &Pipeline, pending: &[Job]) -> Result<Plan, CoreError> {
        match pipeline.group_ilp_by(pending, |j| j.bench, |j| j.id) {
            Ok(groups) => Ok(Plan {
                groups,
                ..Plan::default()
            }),
            // The solve failed, and fails again the same way inside the
            // batch grouping, which degrades it to greedy and says why.
            Err(CoreError::Milp(_)) => {
                let benches: Vec<Benchmark> = pending.iter().map(|j| j.bench).collect();
                let (groups, degradations) =
                    pipeline.group_with_degradations(&benches, GroupingPolicy::Ilp)?;
                Ok(Plan {
                    groups: ids_for_groups(pending, &groups),
                    placements: Vec::new(),
                    degradations,
                })
            }
            Err(e) => Err(e),
        }
    }
}

/// Maps benchmark groups back to job ids: each group slot takes the
/// *earliest-arrived unused* pending job running that benchmark. This
/// is deterministic under duplicates and matches the FCFS-within-class
/// instantiation the core grouping itself uses. One counting sort puts
/// the pending ids in per-benchmark FIFO runs; each slot then advances
/// its benchmark's cursor, so a plan maps in O(pending).
///
/// # Panics
///
/// If `groups` is not a permutation of `pending`'s benchmarks — core
/// grouping guarantees it is, so a miss is a policy bug. Public so
/// out-of-crate policies (the fleet allocator's greedy fallback) map
/// their benchmark groups the same deterministic way.
pub fn ids_for_groups(pending: &[Job], groups: &[Vec<Benchmark>]) -> Vec<Vec<JobId>> {
    const N: usize = Benchmark::ALL.len();
    // `fifo[start[b]..start[b + 1]]` holds benchmark `b`'s pending ids
    // in arrival order.
    let mut start = [0usize; N + 1];
    for j in pending {
        start[j.bench as usize + 1] += 1;
    }
    for b in 0..N {
        start[b + 1] += start[b];
    }
    let mut cursor = start;
    let mut fifo = vec![0; pending.len()];
    for j in pending {
        let b = j.bench as usize;
        fifo[cursor[b]] = j.id;
        cursor[b] += 1;
    }
    let mut cursor = start;
    groups
        .iter()
        .map(|group| {
            group
                .iter()
                .map(|&bench| {
                    let b = bench as usize;
                    assert!(
                        cursor[b] < start[b + 1],
                        "grouping must permute the pending benchmarks"
                    );
                    cursor[b] += 1;
                    fifo[cursor[b] - 1]
                })
                .collect()
        })
        .collect()
}

/// Name-addressable policy constructor, for CLIs and result tagging.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// [`Fcfs`].
    Fcfs,
    /// [`GreedyClass`].
    GreedyClass,
    /// [`IlpEpoch`].
    IlpEpoch,
}

impl PolicyKind {
    /// Every policy, baseline first.
    pub const ALL: [PolicyKind; 3] =
        [PolicyKind::Fcfs, PolicyKind::GreedyClass, PolicyKind::IlpEpoch];

    /// The stable name ([`Policy::name`]) of this kind.
    pub fn name(&self) -> &'static str {
        match self {
            PolicyKind::Fcfs => "fcfs",
            PolicyKind::GreedyClass => "greedy",
            PolicyKind::IlpEpoch => "ilp",
        }
    }

    /// Parses a [`PolicyKind::name`] back into a kind.
    pub fn from_name(name: &str) -> Option<PolicyKind> {
        PolicyKind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Instantiates the policy.
    pub fn build(&self) -> Box<dyn Policy> {
        match self {
            PolicyKind::Fcfs => Box::new(Fcfs),
            PolicyKind::GreedyClass => Box::new(GreedyClass),
            PolicyKind::IlpEpoch => Box::new(IlpEpoch),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn jobs(benches: &[Benchmark]) -> Vec<Job> {
        benches
            .iter()
            .enumerate()
            .map(|(i, &bench)| Job {
                id: i + 10, // offset: ids need not be slice indices
                bench,
                arrival: i as u64,
            })
            .collect()
    }

    #[test]
    fn ids_map_duplicates_fcfs_within_bench() {
        let pending = jobs(&[
            Benchmark::Gups,
            Benchmark::Hs,
            Benchmark::Gups,
            Benchmark::Hs,
        ]);
        let groups = vec![
            vec![Benchmark::Gups, Benchmark::Hs],
            vec![Benchmark::Gups, Benchmark::Hs],
        ];
        let ids = ids_for_groups(&pending, &groups);
        // Earliest GUPS (id 10) and earliest HS (id 11) go first.
        assert_eq!(ids, vec![vec![10, 11], vec![12, 13]]);
    }

    #[test]
    #[should_panic(expected = "permute")]
    fn ids_reject_non_permutation() {
        let pending = jobs(&[Benchmark::Gups]);
        ids_for_groups(&pending, &[vec![Benchmark::Hs]]);
    }

    #[test]
    fn kind_roundtrips_names() {
        for kind in PolicyKind::ALL {
            assert_eq!(PolicyKind::from_name(kind.name()), Some(kind));
            assert_eq!(kind.build().name(), kind.name());
        }
        assert_eq!(PolicyKind::from_name("nope"), None);
    }
}
