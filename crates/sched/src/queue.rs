//! Bounded admission queue with typed backpressure.
//!
//! Arrivals that would push the queue past its capacity are *rejected*,
//! not silently dropped or unboundedly buffered: the caller gets a
//! [`Rejection`] record and the [`SchedReport`](crate::SchedReport)
//! carries the full rejection log. This mirrors how a real cluster
//! front-end sheds load, and it keeps the discrete-event loop's memory
//! bounded no matter how hot the arrival trace runs.

use std::collections::VecDeque;

use gcs_workloads::Benchmark;

/// Stable identifier of one job across the whole scheduler run.
///
/// Ids are assigned in trace order starting at 0, so they double as an
/// arrival rank: rejected jobs consume an id too, which keeps the
/// mapping between trace entries and report rows one-to-one.
pub type JobId = usize;

/// One admitted unit of work: a benchmark instance with its arrival
/// time from the trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Trace-order identifier (see [`JobId`]).
    pub id: JobId,
    /// Which Rodinia benchmark this job runs.
    pub bench: Benchmark,
    /// Arrival cycle from the trace.
    pub arrival: u64,
}

/// Backpressure record: the admission queue was full when this job
/// arrived, so it was turned away.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rejection {
    /// Id the job would have had.
    pub job: JobId,
    /// Benchmark that was turned away.
    pub bench: Benchmark,
    /// Arrival cycle at which the rejection happened.
    pub at: u64,
    /// Queue capacity in force at the time.
    pub capacity: usize,
}

/// FIFO admission queue with a hard capacity.
///
/// Jobs wait here between arrival and dispatch. The queue preserves
/// arrival order (policies may still *group* out of order, but the
/// pending view they plan over is always FCFS-ordered), and `offer`
/// refuses — rather than grows — once `capacity` jobs are waiting.
#[derive(Debug, Clone)]
pub struct AdmissionQueue {
    waiting: VecDeque<Job>,
    capacity: usize,
}

impl AdmissionQueue {
    /// An empty queue that holds at most `capacity` waiting jobs.
    pub fn new(capacity: usize) -> AdmissionQueue {
        AdmissionQueue {
            waiting: VecDeque::with_capacity(capacity.min(1024)),
            capacity,
        }
    }

    /// Admits `job`, or rejects it if the queue is at capacity.
    ///
    /// # Errors
    ///
    /// [`Rejection`] when `capacity` jobs are already waiting.
    pub fn offer(&mut self, job: Job) -> Result<(), Rejection> {
        if self.waiting.len() >= self.capacity {
            return Err(Rejection {
                job: job.id,
                bench: job.bench,
                at: job.arrival,
                capacity: self.capacity,
            });
        }
        self.waiting.push_back(job);
        Ok(())
    }

    /// The waiting jobs in arrival order.
    pub fn pending(&self) -> impl Iterator<Item = &Job> {
        self.waiting.iter()
    }

    /// Removes the jobs with the given ids (they are being dispatched).
    ///
    /// # Panics
    ///
    /// If any id is not currently waiting — the scheduler only ever
    /// dispatches jobs out of its own pending snapshot, so a miss is a
    /// plan-bookkeeping bug, not a runtime condition.
    pub fn take(&mut self, ids: &[JobId]) -> Vec<Job> {
        let mut out = Vec::with_capacity(ids.len());
        for &id in ids {
            let pos = self
                .waiting
                .iter()
                .position(|j| j.id == id)
                .expect("dispatched job must be waiting");
            out.push(self.waiting.remove(pos).expect("position just found"));
        }
        out
    }

    /// Number of jobs currently waiting.
    pub fn len(&self) -> usize {
        self.waiting.len()
    }

    /// Whether no jobs are waiting.
    pub fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: JobId, bench: Benchmark, arrival: u64) -> Job {
        Job { id, bench, arrival }
    }

    #[test]
    fn admits_up_to_capacity_then_rejects() {
        let mut q = AdmissionQueue::new(2);
        assert!(q.offer(job(0, Benchmark::Gups, 5)).is_ok());
        assert!(q.offer(job(1, Benchmark::Blk, 6)).is_ok());
        let r = q.offer(job(2, Benchmark::Hs, 7)).unwrap_err();
        assert_eq!(
            r,
            Rejection {
                job: 2,
                bench: Benchmark::Hs,
                at: 7,
                capacity: 2
            }
        );
        assert_eq!(q.len(), 2);
        // A slot freed by dispatch re-opens admission.
        q.take(&[0]);
        assert!(q.offer(job(3, Benchmark::Hs, 8)).is_ok());
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let mut q = AdmissionQueue::new(0);
        assert!(q.offer(job(0, Benchmark::Gups, 0)).is_err());
        assert!(q.is_empty());
    }

    #[test]
    fn take_preserves_arrival_order_of_rest() {
        let mut q = AdmissionQueue::new(8);
        for (i, b) in [Benchmark::Gups, Benchmark::Blk, Benchmark::Hs, Benchmark::Bfs2]
            .into_iter()
            .enumerate()
        {
            q.offer(job(i, b, i as u64)).unwrap();
        }
        let taken = q.take(&[2, 0]);
        assert_eq!(taken.iter().map(|j| j.id).collect::<Vec<_>>(), vec![2, 0]);
        let rest: Vec<JobId> = q.pending().map(|j| j.id).collect();
        assert_eq!(rest, vec![1, 3], "remaining jobs keep FCFS order");
    }

    #[test]
    #[should_panic(expected = "dispatched job must be waiting")]
    fn take_of_unknown_id_is_a_bug() {
        let mut q = AdmissionQueue::new(4);
        q.offer(job(0, Benchmark::Gups, 0)).unwrap();
        q.take(&[99]);
    }
}
