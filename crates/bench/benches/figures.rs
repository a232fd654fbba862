//! Micro-benchmarks for the analysis-side building blocks of the
//! figure pipeline (the heavy simulation sweeps live in the `repro`
//! figure subcommands, not here): e-coefficient computation, grouping end to end
//! from a matrix, and queue construction.
//!
//! Runs on the internal `gcs_bench::timing` harness; no external
//! benchmarking dependency.

use gcs_bench::timing::bench;
use gcs_core::ilp::solve_grouping;
use gcs_core::interference::InterferenceMatrix;
use gcs_core::pattern::enumerate_patterns;
use gcs_core::queues::{census, queue_with_distribution_seeded, Distribution};

fn main() {
    let m = InterferenceMatrix::synthetic_paper_shape();

    let patterns = enumerate_patterns(3);
    bench("figures/e_vector_nc3", || {
        patterns.iter().map(|p| p.e_coefficient(&m)).sum::<f64>()
    });

    let queue = queue_with_distribution_seeded(Distribution::Equal, 20, 0);
    let counts = census(&queue);
    bench("figures/group_20apps_nc2", || {
        solve_grouping(counts, 2, &m).expect("feasible")
    });

    let mut seed = 0u64;
    bench("figures/build_queue_20", || {
        seed = seed.wrapping_add(1);
        queue_with_distribution_seeded(Distribution::MHeavy, 20, seed)
    });
}
