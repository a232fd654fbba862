//! Optimus-style marginal-gain SM budgeting across a heterogeneous
//! fleet.
//!
//! Every admitted job is seeded at the minimum budget (one SM) on the
//! free device with the most SMs remaining, then the allocator
//! repeatedly grants the next one-SM quantum to the job whose
//! predicted marginal STP gain `rate(s+1) − rate(s)` is largest,
//! stopping when no grant has positive predicted gain or no device
//! has SMs left. Budget conservation is structural: a quantum is only
//! ever granted out of its device's remaining pool, so per-device
//! budgets can never exceed `num_sms`.
//!
//! Determinism: the inputs are memoized profile cycles (bit-identical
//! across sweep thread counts), the arithmetic is straight-line `f64`,
//! and every tie breaks the same way — seeding prefers the
//! lowest-index device among equally-free ones, and grants keep the
//! earliest-seeded (lowest job id, since pending is FCFS-ordered) slot
//! among equal gains. `tests/fleet.rs` pins plans at 1/2/8 threads.

use gcs_sched::{Job, JobId};
use gcs_workloads::Benchmark;

use crate::predict::{Curve, FleetPredictor};
use crate::spec::FleetSpec;

/// One device's share of a fleet plan: the jobs it will co-run and
/// their SM budgets, in seeding order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceAssignment {
    /// Device index into the [`FleetSpec`].
    pub device: usize,
    /// Job ids, aligned with `benches` and `budgets`.
    pub jobs: Vec<JobId>,
    /// The benchmark each job runs.
    pub benches: Vec<Benchmark>,
    /// Granted SM budgets (each ≥ 1; per-device sum ≤ the device's
    /// `num_sms`).
    pub budgets: Vec<u32>,
}

/// A fleet allocation over one scheduling epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetPlan {
    /// Per-device assignments, ascending device index; only devices
    /// that received at least one job appear.
    pub assignments: Vec<DeviceAssignment>,
    /// Jobs that could not be placed this epoch (every free device
    /// already holds `max_group` jobs or has no SM left). FCFS order.
    pub deferred: Vec<JobId>,
    /// Σ over placed jobs of the predicted normalized throughput at
    /// the granted budget — the objective the marginal-gain loop
    /// climbs.
    pub predicted_stp: f64,
}

impl FleetPlan {
    /// Jobs placed across all devices.
    pub fn placed(&self) -> usize {
        self.assignments.iter().map(|a| a.jobs.len()).sum()
    }
}

/// Allocates SM budgets for `pending` (FCFS order) across the
/// `free_devices` of `spec`, at most `max_group` jobs per device.
///
/// The predictor must hold a curve for every `(device capacity,
/// bench)` pair involved — gate on
/// [`FleetPredictor::probe_merge`](crate::predict::FleetPredictor::probe_merge)
/// returning 0 first.
///
/// # Panics
///
/// Panics when `max_group` is 0, a device index is out of range, or a
/// required predictor curve is missing.
pub fn allocate(
    predictor: &FleetPredictor,
    spec: &FleetSpec,
    pending: &[Job],
    free_devices: &[usize],
    max_group: usize,
) -> FleetPlan {
    assert!(max_group > 0, "max_group must be at least 1");
    let devices = spec.devices();

    // Remaining SM pool and job count per free device.
    let mut free_sms: Vec<u32> = free_devices.iter().map(|&d| devices[d].num_sms).collect();
    let mut jobs_on: Vec<usize> = vec![0; free_devices.len()];

    // Seeding: each job at minimum budget on the emptiest free device.
    // Each slot resolves its curve once; the grant loop only indexes it.
    struct Slot<'p> {
        /// Index into `free_devices`.
        fd: usize,
        /// Index into `pending`.
        job: usize,
        budget: u32,
        curve: &'p Curve,
        /// `curve.rate(budget + 1) − curve.rate(budget)`.
        gain: f64,
    }
    let mut slots: Vec<Slot> =
        Vec::with_capacity(pending.len().min(free_devices.len() * max_group));
    let mut deferred: Vec<JobId> = Vec::new();
    for (ji, job) in pending.iter().enumerate() {
        let mut best: Option<usize> = None;
        for fd in 0..free_devices.len() {
            if jobs_on[fd] >= max_group || free_sms[fd] == 0 {
                continue;
            }
            // Strict > keeps the lowest index among equally-free
            // devices.
            if best.is_none_or(|b| free_sms[fd] > free_sms[b]) {
                best = Some(fd);
            }
        }
        match best {
            Some(fd) => {
                free_sms[fd] -= 1;
                jobs_on[fd] += 1;
                let curve = predictor.curve(devices[free_devices[fd]].num_sms, job.bench);
                let gain = curve.rate(2) - curve.rate(1);
                slots.push(Slot { fd, job: ji, budget: 1, curve, gain });
            }
            None => deferred.push(job.id),
        }
    }

    // Marginal-gain loop: grant one SM at a time to the largest
    // predicted gain; stop when nothing gains. A grant changes only
    // its own slot's gain, so only that one is recomputed.
    loop {
        let mut best: Option<(f64, usize)> = None;
        for (si, s) in slots.iter().enumerate() {
            if free_sms[s.fd] == 0 {
                continue;
            }
            // Strict > keeps the earliest slot (lowest job id) among
            // equal gains.
            if best.is_none_or(|(g, _)| s.gain > g) {
                best = Some((s.gain, si));
            }
        }
        match best {
            Some((gain, si)) if gain > 0.0 => {
                let s = &mut slots[si];
                free_sms[s.fd] -= 1;
                s.budget += 1;
                s.gain = s.curve.rate(s.budget + 1) - s.curve.rate(s.budget);
            }
            _ => break,
        }
    }

    // Assemble per-device assignments in ascending device order and
    // sum the predicted objective.
    let predicted_stp = slots.iter().fold(0.0, |sum, s| sum + s.curve.rate(s.budget));
    let mut order: Vec<usize> = (0..free_devices.len()).collect();
    order.sort_unstable_by_key(|&fd| free_devices[fd]);
    let mut assignments: Vec<DeviceAssignment> = Vec::new();
    for fd in order {
        let mut a = DeviceAssignment {
            device: free_devices[fd],
            jobs: Vec::new(),
            benches: Vec::new(),
            budgets: Vec::new(),
        };
        for s in &slots {
            if s.fd == fd {
                a.jobs.push(pending[s.job].id);
                a.benches.push(pending[s.job].bench);
                a.budgets.push(s.budget);
            }
        }
        if !a.jobs.is_empty() {
            assignments.push(a);
        }
    }
    FleetPlan {
        assignments,
        deferred,
        predicted_stp,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predict::FleetPredictor;
    use crate::spec::{DeviceProfile, FleetSpec};

    /// A predictor whose synthetic cycles scale perfectly with SMs
    /// (rate(s) = s / capacity) — marginal gain is flat, so every SM
    /// is worth granting.
    fn linear_predictor(spec: &FleetSpec, benches: &[Benchmark]) -> FleetPredictor {
        let mut p = FleetPredictor::new();
        for d in spec.devices() {
            for &b in benches {
                let samples: Vec<(u32, u64)> = crate::predict::budget_grid(d.num_sms)
                    .into_iter()
                    .map(|s| (s, 1_000_000 * u64::from(d.num_sms) / u64::from(s)))
                    .collect();
                p.insert(d.num_sms, b, &samples);
            }
        }
        p
    }

    fn spec_8_15() -> FleetSpec {
        FleetSpec::new(vec![
            DeviceProfile { id: "gpu0".into(), num_sms: 8 },
            DeviceProfile { id: "gpu1".into(), num_sms: 15 },
        ])
        .expect("spec")
    }

    fn jobs(benches: &[Benchmark]) -> Vec<Job> {
        benches
            .iter()
            .enumerate()
            .map(|(id, &bench)| Job { id, bench, arrival: 0 })
            .collect()
    }

    #[test]
    fn seeds_emptiest_device_first_and_defers_overflow() {
        let spec = spec_8_15();
        let p = linear_predictor(&spec, &[Benchmark::Gups]);
        let pending = jobs(&[Benchmark::Gups; 5]);
        let plan = allocate(&p, &spec, &pending, &[0, 1], 2);
        // Seeding: job0 -> gpu1 (15 free), job1 -> gpu1 (14 > 7),
        // job2 -> gpu0, job3 -> gpu0, job4 deferred (both full).
        assert_eq!(plan.assignments.len(), 2);
        assert_eq!(plan.assignments[0].device, 0);
        assert_eq!(plan.assignments[0].jobs, vec![2, 3]);
        assert_eq!(plan.assignments[1].device, 1);
        assert_eq!(plan.assignments[1].jobs, vec![0, 1]);
        assert_eq!(plan.deferred, vec![4]);
        assert_eq!(plan.placed(), 4);
    }

    #[test]
    fn linear_gains_fill_every_device_exactly() {
        let spec = spec_8_15();
        let p = linear_predictor(&spec, &[Benchmark::Gups]);
        let pending = jobs(&[Benchmark::Gups; 4]);
        let plan = allocate(&p, &spec, &pending, &[0, 1], 2);
        for a in &plan.assignments {
            let cap = spec.devices()[a.device].num_sms;
            assert_eq!(a.budgets.iter().sum::<u32>(), cap, "flat gains take every SM");
            assert!(a.budgets.iter().all(|&b| b >= 1));
        }
    }

    #[test]
    fn allocation_is_deterministic() {
        let spec = spec_8_15();
        let p = linear_predictor(&spec, &[Benchmark::Gups, Benchmark::Hs]);
        let pending = jobs(&[Benchmark::Gups, Benchmark::Hs, Benchmark::Gups, Benchmark::Hs]);
        let a = allocate(&p, &spec, &pending, &[0, 1], 2);
        let b = allocate(&p, &spec, &pending, &[0, 1], 2);
        assert_eq!(a, b);
    }

    #[test]
    fn only_free_devices_receive_work() {
        let spec = spec_8_15();
        let p = linear_predictor(&spec, &[Benchmark::Gups]);
        let pending = jobs(&[Benchmark::Gups; 3]);
        let plan = allocate(&p, &spec, &pending, &[1], 2);
        assert_eq!(plan.assignments.len(), 1);
        assert_eq!(plan.assignments[0].device, 1);
        assert_eq!(plan.assignments[0].jobs, vec![0, 1]);
        assert_eq!(plan.deferred, vec![2]);
    }

    /// The recompute-everything allocator: every grant step recomputes
    /// every slot's gain through [`FleetPredictor::rate`]. The oracle
    /// the incremental loop must match bit for bit.
    fn reference(
        predictor: &FleetPredictor,
        spec: &FleetSpec,
        pending: &[Job],
        free_devices: &[usize],
        max_group: usize,
    ) -> FleetPlan {
        let devices = spec.devices();
        let mut free_sms: Vec<u32> = free_devices.iter().map(|&d| devices[d].num_sms).collect();
        let mut jobs_on: Vec<usize> = vec![0; free_devices.len()];
        // (free-device index, pending index, budget)
        let mut slots: Vec<(usize, usize, u32)> = Vec::new();
        let mut deferred: Vec<JobId> = Vec::new();
        for (ji, job) in pending.iter().enumerate() {
            let mut best: Option<usize> = None;
            for fd in 0..free_devices.len() {
                if jobs_on[fd] >= max_group || free_sms[fd] == 0 {
                    continue;
                }
                if best.is_none_or(|b| free_sms[fd] > free_sms[b]) {
                    best = Some(fd);
                }
            }
            match best {
                Some(fd) => {
                    free_sms[fd] -= 1;
                    jobs_on[fd] += 1;
                    slots.push((fd, ji, 1));
                }
                None => deferred.push(job.id),
            }
        }
        loop {
            let mut best: Option<(f64, usize)> = None;
            for (si, &(fd, ji, budget)) in slots.iter().enumerate() {
                if free_sms[fd] == 0 {
                    continue;
                }
                let cap = devices[free_devices[fd]].num_sms;
                let bench = pending[ji].bench;
                let gain =
                    predictor.rate(cap, bench, budget + 1) - predictor.rate(cap, bench, budget);
                if best.is_none_or(|(g, _)| gain > g) {
                    best = Some((gain, si));
                }
            }
            match best {
                Some((gain, si)) if gain > 0.0 => {
                    free_sms[slots[si].0] -= 1;
                    slots[si].2 += 1;
                }
                _ => break,
            }
        }
        let mut predicted_stp = 0.0;
        for &(fd, ji, budget) in &slots {
            let cap = devices[free_devices[fd]].num_sms;
            predicted_stp += predictor.rate(cap, pending[ji].bench, budget);
        }
        let mut order: Vec<usize> = (0..free_devices.len()).collect();
        order.sort_unstable_by_key(|&fd| free_devices[fd]);
        let mut assignments = Vec::new();
        for fd in order {
            let mut a = DeviceAssignment {
                device: free_devices[fd],
                jobs: Vec::new(),
                benches: Vec::new(),
                budgets: Vec::new(),
            };
            for &(sfd, ji, budget) in &slots {
                if sfd == fd {
                    a.jobs.push(pending[ji].id);
                    a.benches.push(pending[ji].bench);
                    a.budgets.push(budget);
                }
            }
            if !a.jobs.is_empty() {
                assignments.push(a);
            }
        }
        FleetPlan {
            assignments,
            deferred,
            predicted_stp,
        }
    }

    /// Seeded fleets, predictors, queues and free-device subsets: the
    /// incremental allocator equals [`reference`] on assignments,
    /// deferrals and the bits of `predicted_stp`. Curves are random
    /// (non-monotone), linear (equal gains on one device) or flat (no
    /// gain at all), so ties and early stops are both exercised.
    #[test]
    fn incremental_gains_match_the_recompute_everything_oracle() {
        use gcs_sim::rng::SimRng;
        const CASES: u64 = if cfg!(feature = "proptest-tests") { 4096 } else { 384 };
        for case in 0..CASES {
            let mut rng = SimRng::seed_from_u64(0xF1EE_7000 + case);
            let n_dev = 1 + rng.gen_range(4) as usize;
            let spec = FleetSpec::new(
                (0..n_dev)
                    .map(|i| DeviceProfile {
                        id: format!("gpu{i}"),
                        num_sms: 1 + rng.gen_range(64) as u32,
                    })
                    .collect(),
            )
            .expect("spec");
            let n_bench = 1 + rng.gen_range(4) as usize;
            let benches: Vec<Benchmark> = (0..n_bench)
                .map(|_| Benchmark::ALL[rng.gen_range(Benchmark::ALL.len() as u64) as usize])
                .collect();
            let mut p = FleetPredictor::new();
            for d in spec.devices() {
                for &b in &benches {
                    let cap = d.num_sms;
                    let shape = rng.gen_range(3);
                    let samples: Vec<(u32, u64)> = crate::predict::budget_grid(cap)
                        .into_iter()
                        .map(|s| {
                            let cycles = match shape {
                                0 => 1 + rng.gen_range(10_000),
                                1 => 1_000_000 * u64::from(cap) / u64::from(s),
                                _ => 5_000,
                            };
                            (s, cycles)
                        })
                        .collect();
                    p.insert(cap, b, &samples);
                }
            }
            let n_jobs = rng.gen_range(61) as usize;
            let pending: Vec<Job> = (0..n_jobs)
                .map(|id| Job {
                    id,
                    bench: benches[rng.gen_range(n_bench as u64) as usize],
                    arrival: 0,
                })
                .collect();
            let mut free: Vec<usize> = (0..n_dev).filter(|_| rng.gen_range(4) != 0).collect();
            // Rotate so the free list is not always ascending.
            let k = rng.gen_range(free.len() as u64 + 1) as usize;
            free.rotate_left(k);
            let max_group = 1 + rng.gen_range(3) as usize;

            let got = allocate(&p, &spec, &pending, &free, max_group);
            let want = reference(&p, &spec, &pending, &free, max_group);
            assert_eq!(got.assignments, want.assignments, "case {case}");
            assert_eq!(got.deferred, want.deferred, "case {case}");
            assert_eq!(
                got.predicted_stp.to_bits(),
                want.predicted_stp.to_bits(),
                "case {case}"
            );
        }
    }
}
