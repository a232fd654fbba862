//! Classify the whole synthetic Rodinia suite on a device model and
//! print the resulting Table 3.2-style report.
//!
//! ```text
//! cargo run --release --example classify_suite
//! ```

use gcs_core::classify::classify_suite;
use gcs_core::profile::profile_alone;
use gcs_core::queues::paper_class;
use gcs_sim::config::GpuConfig;
use gcs_workloads::{Benchmark, Scale};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Small device + tiny scale so the example finishes in seconds; the
    // full-fidelity version of this report is
    // `repro fig_table32` (`cargo build --release --bin repro`).
    let cfg = GpuConfig::test_small();
    let scale = Scale::TEST;

    let mut profiles = Vec::new();
    for b in Benchmark::ALL {
        profiles.push(profile_alone(&b.kernel(scale), &cfg)?);
    }
    let (t, classes) = classify_suite(&cfg, &profiles);

    println!(
        "{:>6} {:>9} {:>9} {:>8} {:>6} {:>6} {:>6}",
        "bench", "MB GB/s", "L2L1 GB/s", "IPC", "R", "class", "paper"
    );
    for ((b, p), c) in Benchmark::ALL.iter().zip(&profiles).zip(&classes) {
        println!(
            "{:>6} {:>9.1} {:>9.1} {:>8.1} {:>6.2} {:>6} {:>6}",
            b.name(),
            p.memory_bw,
            p.l2_l1_bw,
            p.ipc,
            p.r,
            c.label(),
            paper_class(*b).label()
        );
    }
    println!(
        "\nthresholds: alpha {:.1}, beta {:.1}, gamma {:.1}, epsilon {:.1}",
        t.alpha, t.beta, t.gamma, t.epsilon
    );
    println!("note: classes can drift from the paper's on this scaled-down device;");
    println!("the GTX 480 model reproduces Table 3.2 exactly (see fig_table32).");
    Ok(())
}
