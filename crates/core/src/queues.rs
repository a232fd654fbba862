//! Application-queue construction for the evaluation (§4.1/4.2).
//!
//! The thesis evaluates on (i) a 14-application queue that is exactly
//! the profiled suite — 2 class M, 5 class MC, 2 class C, 5 class A —
//! and (ii) 20-application queues with five class distributions: equal,
//! and 55 % of one class with 15 % of each other class.

use gcs_workloads::{Benchmark, PAPER_PROFILES};

use crate::classify::AppClass;

/// Queue class-composition variants of §4.1/§4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Distribution {
    /// Equal share of each class (5/5/5/5 at length 20).
    Equal,
    /// 55 % class M, 15 % each of the rest.
    MHeavy,
    /// 55 % class MC.
    McHeavy,
    /// 55 % class C.
    CHeavy,
    /// 55 % class A.
    AHeavy,
}

impl Distribution {
    /// All five evaluated distributions, figure order.
    pub const ALL: [Distribution; 5] = [
        Distribution::Equal,
        Distribution::MHeavy,
        Distribution::McHeavy,
        Distribution::CHeavy,
        Distribution::AHeavy,
    ];

    /// Label used in figures.
    pub fn label(&self) -> &'static str {
        match self {
            Distribution::Equal => "Equal-dist.",
            Distribution::MHeavy => "M-oriented",
            Distribution::McHeavy => "MC-oriented",
            Distribution::CHeavy => "C-oriented",
            Distribution::AHeavy => "A-oriented",
        }
    }

    /// Per-class application counts at queue length `len`
    /// (55 % / 15 % / 15 % / 15 % for the skewed variants).
    pub fn class_counts(&self, len: u32) -> [u32; AppClass::COUNT] {
        let heavy = (f64::from(len) * 0.55).round() as u32;
        let light = (len - heavy) / 3;
        let fixup = len - heavy - 2 * light; // remainder goes to the last light class
        match self {
            Distribution::Equal => {
                let per = len / 4;
                let rem = len - 3 * per;
                [per, per, per, rem]
            }
            Distribution::MHeavy => [heavy, light, light, fixup],
            Distribution::McHeavy => [light, heavy, light, fixup],
            Distribution::CHeavy => [light, light, heavy, fixup],
            Distribution::AHeavy => [light, light, fixup, heavy],
        }
    }
}

/// The benchmarks the thesis assigns to `class` (Table 3.2).
fn class_members(class: AppClass) -> Vec<Benchmark> {
    PAPER_PROFILES
        .iter()
        .filter(|p| AppClass::from_label(&p.class.to_string()) == Some(class))
        .map(|p| p.bench)
        .collect()
}

/// The paper's class for a benchmark (Table 3.2).
pub fn paper_class(bench: Benchmark) -> AppClass {
    let row = PAPER_PROFILES
        .iter()
        .find(|p| p.bench == bench)
        .expect("every benchmark has a Table 3.2 row");
    AppClass::from_label(&row.class.to_string()).expect("valid class letter")
}

/// The 14-application queue of §4.1: the whole suite, arrival order
/// interleaved across classes (2 M, 5 MC, 2 C, 5 A).
pub fn thesis_queue_14() -> Vec<Benchmark> {
    interleave(&[
        class_members(AppClass::M),
        class_members(AppClass::Mc),
        class_members(AppClass::C),
        class_members(AppClass::A),
    ])
}

/// A queue of `len` applications following `dist`, drawing benchmarks
/// round-robin from each class's Table 3.2 members, with the default
/// arrival order (seed 0).
pub fn queue_with_distribution(dist: Distribution, len: u32) -> Vec<Benchmark> {
    queue_with_distribution_seeded(dist, len, 0)
}

/// Like [`queue_with_distribution`] but with an explicit arrival-order
/// seed. FCFS-style baselines are sensitive to arrival luck, so the
/// figure harness averages several seeds.
pub fn queue_with_distribution_seeded(
    dist: Distribution,
    len: u32,
    seed: u64,
) -> Vec<Benchmark> {
    let counts = dist.class_counts(len);
    let mut per_class: Vec<Vec<Benchmark>> = Vec::with_capacity(AppClass::COUNT);
    for class in AppClass::ALL {
        let members = class_members(class);
        let want = counts[class.index()] as usize;
        per_class.push((0..want).map(|i| members[i % members.len()]).collect());
    }
    interleave_seeded(&per_class, seed)
}

/// Class census of an arbitrary queue under the paper's Table 3.2
/// classification.
pub fn census(queue: &[Benchmark]) -> [u32; AppClass::COUNT] {
    let mut counts = [0u32; AppClass::COUNT];
    for &b in queue {
        counts[paper_class(b).index()] += 1;
    }
    counts
}

/// Deterministic shuffle of the concatenated per-class lists — an
/// arbitrary-but-reproducible arrival order. (A round-robin interleave
/// would hand FCFS a nearly class-balanced pairing for free, hiding the
/// difference the grouping policies are supposed to expose.)
fn interleave(lists: &[Vec<Benchmark>]) -> Vec<Benchmark> {
    interleave_seeded(lists, 0)
}

fn interleave_seeded(lists: &[Vec<Benchmark>], seed: u64) -> Vec<Benchmark> {
    let mut out: Vec<Benchmark> = lists.iter().flatten().copied().collect();
    // Fisher-Yates with a fixed LCG seed: stable across runs and
    // platforms, so every figure sees the same arrival order.
    let mut state = 0x5DEE_CE66u64 ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    for i in (1..out.len()).rev() {
        state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        out.swap(i, j);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_census_matches_chapter_4() {
        let q = thesis_queue_14();
        assert_eq!(q.len(), 14);
        assert_eq!(census(&q), [2, 5, 2, 5]);
    }

    #[test]
    fn distributions_sum_to_len() {
        for dist in Distribution::ALL {
            for len in [12, 20, 21] {
                let c = dist.class_counts(len);
                assert_eq!(c.iter().sum::<u32>(), len, "{dist:?} at {len}");
            }
        }
    }

    #[test]
    fn heavy_class_dominates() {
        let c = Distribution::MHeavy.class_counts(20);
        assert_eq!(c[AppClass::M.index()], 11);
        assert!(c[1] <= 3 && c[2] <= 3);
        let c = Distribution::AHeavy.class_counts(20);
        assert_eq!(c[AppClass::A.index()], 11);
    }

    #[test]
    fn queue_matches_requested_census() {
        for dist in Distribution::ALL {
            let q = queue_with_distribution(dist, 20);
            assert_eq!(q.len(), 20);
            assert_eq!(census(&q), dist.class_counts(20), "{dist:?}");
        }
    }

    #[test]
    fn class_members_cover_table() {
        let m = class_members(AppClass::M);
        assert_eq!(m.len(), 2);
        assert!(m.contains(&Benchmark::Blk) && m.contains(&Benchmark::Gups));
        assert_eq!(class_members(AppClass::Mc).len(), 5);
        assert_eq!(class_members(AppClass::C).len(), 2);
        assert_eq!(class_members(AppClass::A).len(), 5);
    }

    #[test]
    fn census_of_empty_queue_is_zero() {
        assert_eq!(census(&[]), [0, 0, 0, 0]);
    }

    #[test]
    fn census_counts_duplicates_per_class() {
        // GUPS and BLK are both class M (Table 3.2); duplicates must
        // accumulate, not dedupe.
        let q = vec![Benchmark::Gups, Benchmark::Gups, Benchmark::Blk];
        assert_eq!(census(&q)[AppClass::M.index()], 3);
        assert_eq!(census(&q).iter().sum::<u32>(), 3);
    }

    #[test]
    fn class_counts_handles_zero_length() {
        for dist in Distribution::ALL {
            let c = dist.class_counts(0);
            assert_eq!(c, [0, 0, 0, 0], "{dist:?} at len 0");
        }
    }

    #[test]
    fn class_counts_cover_indivisible_lengths() {
        // Lengths not divisible by the class count (4) or by the 55/15
        // split must still sum exactly, with no class going negative
        // (u32 underflow would wrap and explode the sum).
        for dist in Distribution::ALL {
            for len in [1, 2, 3, 5, 7, 9, 13, 17, 19, 23, 31, 97] {
                let c = dist.class_counts(len);
                assert_eq!(c.iter().sum::<u32>(), len, "{dist:?} at {len}: {c:?}");
            }
        }
        // The heavy class actually dominates once the queue is big
        // enough for the split to resolve.
        for dist in [
            Distribution::MHeavy,
            Distribution::McHeavy,
            Distribution::CHeavy,
            Distribution::AHeavy,
        ] {
            let c = dist.class_counts(19);
            let heavy = *c.iter().max().unwrap();
            assert!(heavy >= 10, "{dist:?} at 19: {c:?}");
        }
    }

    #[test]
    fn seeded_queues_handle_edge_lengths() {
        for dist in Distribution::ALL {
            assert!(queue_with_distribution_seeded(dist, 0, 3).is_empty());
            let one = queue_with_distribution_seeded(dist, 1, 3);
            assert_eq!(one.len(), 1);
            // Indivisible length: census still matches the declared
            // class counts exactly.
            let q = queue_with_distribution_seeded(dist, 17, 3);
            assert_eq!(q.len(), 17);
            assert_eq!(census(&q), dist.class_counts(17), "{dist:?}");
        }
    }

    #[test]
    fn seeded_queues_are_deterministic_across_calls() {
        for dist in Distribution::ALL {
            for seed in [0, 1, 7, u64::MAX] {
                let a = queue_with_distribution_seeded(dist, 20, seed);
                let b = queue_with_distribution_seeded(dist, 20, seed);
                assert_eq!(a, b, "{dist:?} seed {seed} must replay identically");
            }
            // Different seeds permute the same multiset.
            let a = queue_with_distribution_seeded(dist, 20, 1);
            let b = queue_with_distribution_seeded(dist, 20, 2);
            let mut sa = a.clone();
            let mut sb = b.clone();
            sa.sort_unstable();
            sb.sort_unstable();
            assert_eq!(sa, sb, "{dist:?}: seeds must not change the census");
        }
        // Seed 0 is the unseeded default.
        assert_eq!(
            queue_with_distribution(Distribution::Equal, 20),
            queue_with_distribution_seeded(Distribution::Equal, 20, 0)
        );
    }

    #[test]
    fn arrival_order_is_shuffled_and_stable() {
        let q1 = thesis_queue_14();
        let q2 = thesis_queue_14();
        assert_eq!(q1, q2, "deterministic");
        // Not simply class-sorted: some adjacent pair must cross classes
        // out of order relative to the class-sorted concatenation.
        let classes: Vec<AppClass> = q1.iter().map(|&b| paper_class(b)).collect();
        let mut sorted = classes.clone();
        sorted.sort_unstable();
        assert_ne!(classes, sorted, "queue must not be class-sorted");
    }
}
