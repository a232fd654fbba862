//! Determinism guarantee of the parallel sweep engine.
//!
//! The engine's contract: for any thread count, the assembled results
//! are **bit-identical** to the sequential path — every simulation job
//! is a pure function of its inputs (per-SM RNGs are seeded by SM index
//! alone), and results are keyed by job index rather than completion
//! order. This suite proves the contract at tiny scale by sweeping the
//! same benchmark subset at 1, 2 and 8 threads, twice each, and
//! comparing every matrix entry and profile field as raw bit patterns.

use gcs_core::interference::InterferenceMatrix;
use gcs_core::profile::AppProfile;
use gcs_core::sweep::SweepEngine;
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::profile_bits;

/// One representative per class (M, MC, C, A): 4 alone runs + 10 pair
/// co-runs per sweep keeps each run in unit-test territory.
const SUITE: [Benchmark; 4] = [
    Benchmark::Blk,
    Benchmark::Fft,
    Benchmark::Spmv,
    Benchmark::Sad,
];

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn sweep(threads: usize) -> (SweepEngine, InterferenceMatrix, Vec<AppProfile>) {
    let engine = SweepEngine::new(threads);
    let cfg = GpuConfig::test_small();
    let matrix =
        InterferenceMatrix::measure_suite_with(&engine, &cfg, Scale::TEST, &SUITE).unwrap();
    let profiles = engine.profile_suite(&cfg, Scale::TEST, &SUITE).unwrap();
    (engine, matrix, profiles)
}

/// Matrix entries as exact IEEE-754 bit patterns.
fn matrix_bits(m: &InterferenceMatrix) -> Vec<u64> {
    m.entries()
        .iter()
        .flat_map(|row| row.iter().map(|v| v.to_bits()))
        .collect()
}

#[test]
fn parallel_sweep_is_bit_identical_across_thread_counts_and_runs() {
    let (_, m_ref, p_ref) = sweep(1);
    for threads in THREAD_COUNTS {
        for run in 0..2 {
            let (_, m, p) = sweep(threads);
            assert_eq!(
                matrix_bits(&m_ref),
                matrix_bits(&m),
                "matrix diverged at threads={threads} run={run}\nref:\n{m_ref}\ngot:\n{m}"
            );
            assert_eq!(p_ref.len(), p.len());
            for (a, b) in p_ref.iter().zip(&p) {
                assert_eq!(
                    profile_bits(a),
                    profile_bits(b),
                    "profile {} diverged at threads={threads} run={run}",
                    a.name
                );
            }
        }
    }
}

#[test]
fn sweep_job_accounting_is_thread_count_invariant() {
    let mut totals = Vec::new();
    for threads in THREAD_COUNTS {
        let (engine, _, _) = sweep(threads);
        let s = engine.stats();
        assert_eq!(
            s.jobs_total,
            s.jobs_simulated + s.jobs_cached,
            "accounting identity broken at {threads} threads: {s:?}"
        );
        // 4 alone profiles + 10 pairs; profile_suite() afterwards hits
        // the memo for all 4.
        assert_eq!(s.jobs_total, 18, "unexpected job count: {s:?}");
        assert_eq!(s.jobs_simulated, 14, "unexpected simulation count: {s:?}");
        assert!(
            s.max_in_flight <= threads.max(1),
            "{} jobs in flight with {threads} workers",
            s.max_in_flight
        );
        totals.push((s.jobs_total, s.jobs_simulated, s.sim_cycles));
    }
    assert!(
        totals.windows(2).all(|w| w[0] == w[1]),
        "job/cycle accounting depends on thread count: {totals:?}"
    );
}

/// A traced workload through the engine is as thread-count stable as a
/// synthetic one: the replayed profile's bits never move with the
/// worker count.
#[test]
fn traced_workload_profile_is_thread_count_stable() {
    use gcs_core::sweep::Workload;
    use std::sync::Arc;

    let cfg = GpuConfig::test_small();
    let workload = Workload::Trace(Arc::new(gcs_workloads::phase_shift_trace(&cfg)));
    let profile = |threads: usize| {
        SweepEngine::new(threads)
            .profile_workload(&cfg, Scale::TEST, &workload, cfg.num_sms)
            .unwrap()
    };
    let reference = profile(1);
    assert_eq!(reference.name, "TRACE_PHASE");
    for threads in THREAD_COUNTS {
        assert_eq!(
            profile_bits(&reference),
            profile_bits(&profile(threads)),
            "traced profile diverged at {threads} threads"
        );
    }
}
