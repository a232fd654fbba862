//! Application classification (§3.2.1, Table 3.1).
//!
//! Four classes keyed on the alone-run profile:
//!
//! | class | criterion |
//! |-------|-----------|
//! | M     | `MB > α` |
//! | MC    | `β < MB ≤ α` |
//! | C     | `(L2→L1 > γ ∨ R > 0.2) ∧ IPC < ε` |
//! | A     | otherwise (the fall-through class, which is how LUD and NN
//! |       | end up in A despite low IPC in Table 3.2) |
//!
//! The thesis instantiates α = 0.55·MBmax, β = 0.30·MBmax, γ ≈ 100 GB/s
//! and ε = 0.2·IPCmax *for its GPU*. [`Thresholds::derive`]
//! derives the same relative thresholds from a measured suite, so the
//! classifier adapts to whatever device model it runs on.

use crate::profile::AppProfile;

/// The four application classes of Table 3.1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AppClass {
    /// Memory-bandwidth intensive.
    M,
    /// Memory- and cache-intensive.
    Mc,
    /// Cache (L2) intensive.
    C,
    /// Compute intensive.
    A,
}

impl AppClass {
    /// All classes, index order used throughout the pattern machinery.
    pub const ALL: [AppClass; 4] = [AppClass::M, AppClass::Mc, AppClass::C, AppClass::A];

    /// Number of classes (the paper's `NT`).
    pub const COUNT: usize = 4;

    /// Stable index in `0..4`.
    pub fn index(&self) -> usize {
        match self {
            AppClass::M => 0,
            AppClass::Mc => 1,
            AppClass::C => 2,
            AppClass::A => 3,
        }
    }

    /// The thesis' single-letter label (MC prints as `"MC"`).
    pub fn label(&self) -> &'static str {
        match self {
            AppClass::M => "M",
            AppClass::Mc => "MC",
            AppClass::C => "C",
            AppClass::A => "A",
        }
    }

    /// Parses `"M"`, `"MC"`, `"C"`, `"A"` (case-insensitive; `'X'` is
    /// accepted for MC, matching [`gcs_workloads::PaperProfile`]).
    pub fn from_label(s: &str) -> Option<AppClass> {
        match s.to_ascii_uppercase().as_str() {
            "M" => Some(AppClass::M),
            "MC" | "X" => Some(AppClass::Mc),
            "C" => Some(AppClass::C),
            "A" => Some(AppClass::A),
            _ => None,
        }
    }
}

impl std::fmt::Display for AppClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification thresholds (Table 3.1's α, β, γ, ε plus the fixed
/// R cut of 0.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Class-M memory-bandwidth cut (GB/s).
    pub alpha: f64,
    /// Class-MC lower memory-bandwidth cut (GB/s).
    pub beta: f64,
    /// Class-C L2→L1 bandwidth cut (GB/s).
    pub gamma: f64,
    /// Class-C/A IPC cut.
    pub epsilon: f64,
    /// Memory-to-compute ratio cut (0.2 in the thesis).
    pub r_cut: f64,
}

impl Thresholds {
    /// Derives thresholds the way the thesis does: the bandwidth cuts
    /// come from the *device* — α = 0.55·MBpeak, β = 0.30·MBpeak and
    /// γ ≈ 0.55·MBpeak (the thesis quotes α = 107, β = 50, γ = 100 GB/s
    /// for a GTX 480 whose theoretical peak is ≈ 178 GB/s) — while
    /// ε = 0.20·IPCmax comes from the measured suite (0.2 × 1000 ≈ the
    /// thesis' ε = 200 against HS's IPC of 984).
    ///
    /// # Panics
    ///
    /// Panics on an empty profile slice.
    pub fn derive<'a, I>(device: &gcs_sim::GpuConfig, profiles: I) -> Thresholds
    where
        I: IntoIterator<Item = &'a AppProfile>,
    {
        let peak = device.bytes_per_cycle_to_gbps(device.peak_dram_bytes_per_cycle());
        let mut ipc_max = f64::MIN;
        let mut any = false;
        for p in profiles {
            any = true;
            ipc_max = ipc_max.max(p.ipc);
        }
        assert!(any, "cannot derive thresholds from an empty suite");
        Thresholds {
            alpha: 0.55 * peak,
            beta: 0.30 * peak,
            gamma: 0.55 * peak,
            epsilon: 0.20 * ipc_max,
            r_cut: 0.2,
        }
    }

    /// The literal GTX 480 values the thesis quotes (§3.2.1):
    /// α = 107 GB/s, β = 50 GB/s, γ = 100 GB/s, ε = 200 IPC.
    pub fn paper_gtx480() -> Thresholds {
        Thresholds {
            alpha: 107.0,
            beta: 50.0,
            gamma: 100.0,
            epsilon: 200.0,
            r_cut: 0.2,
        }
    }
}

/// Classifies one profile under `t` (Table 3.1, checked in M → MC → C →
/// A order; A is the fall-through).
pub fn classify(p: &AppProfile, t: &Thresholds) -> AppClass {
    if p.memory_bw > t.alpha {
        AppClass::M
    } else if p.memory_bw > t.beta {
        AppClass::Mc
    } else if (p.l2_l1_bw > t.gamma || p.r > t.r_cut) && p.ipc < t.epsilon {
        AppClass::C
    } else {
        AppClass::A
    }
}

/// Classifies a whole suite with thresholds derived from the device
/// and the measured suite, returning `(thresholds, classes)` in input
/// order.
pub fn classify_suite(
    device: &gcs_sim::GpuConfig,
    profiles: &[AppProfile],
) -> (Thresholds, Vec<AppClass>) {
    let t = Thresholds::derive(device, profiles);
    let classes = profiles.iter().map(|p| classify(p, &t)).collect();
    (t, classes)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile(mb: f64, l2: f64, ipc: f64, r: f64) -> AppProfile {
        AppProfile {
            name: "t".into(),
            memory_bw: mb,
            l2_l1_bw: l2,
            ipc,
            r,
            utilization: 0.5,
            cycles: 1000,
            thread_insts: 1000,
            num_sms: 60,
        }
    }

    #[test]
    fn paper_thresholds_reproduce_table_32() {
        // Feed the thesis' own Table 3.2 numbers through the classifier
        // with its quoted thresholds. Two rows of the table contradict
        // the thesis' own stated rules (documented in DESIGN.md §5):
        // SPMV (IPC 208.7 > ε = 200, so the C criterion fails) and SAD
        // (MB 57.35 > β = 50, which places it in MC, not A). The other
        // twelve must match exactly.
        let t = Thresholds::paper_gtx480();
        let mut mismatches = Vec::new();
        for row in gcs_workloads::PAPER_PROFILES {
            let p = profile(row.memory_bw, row.l2_l1_bw, row.ipc, row.r);
            let got = classify(&p, &t);
            let want = AppClass::from_label(&row.class.to_string()).unwrap();
            if got != want {
                mismatches.push(row.bench);
            }
        }
        assert!(
            mismatches
                .iter()
                .all(|b| matches!(
                    b,
                    gcs_workloads::Benchmark::Spmv | gcs_workloads::Benchmark::Sad
                )),
            "unexpected Table 3.2 mismatches: {mismatches:?}"
        );
        assert!(mismatches.len() <= 2);
    }

    #[test]
    fn class_order_m_first() {
        let t = Thresholds::paper_gtx480();
        // Very high MB dominates all other signals.
        let p = profile(150.0, 150.0, 10.0, 0.5);
        assert_eq!(classify(&p, &t), AppClass::M);
    }

    #[test]
    fn mc_band() {
        let t = Thresholds::paper_gtx480();
        assert_eq!(classify(&profile(80.0, 10.0, 900.0, 0.01), &t), AppClass::Mc);
    }

    #[test]
    fn c_requires_low_ipc() {
        let t = Thresholds::paper_gtx480();
        assert_eq!(classify(&profile(30.0, 130.0, 100.0, 0.1), &t), AppClass::C);
        // Same traffic but high IPC -> A.
        assert_eq!(classify(&profile(30.0, 130.0, 900.0, 0.1), &t), AppClass::A);
    }

    #[test]
    fn c_via_r_cut() {
        let t = Thresholds::paper_gtx480();
        assert_eq!(classify(&profile(10.0, 10.0, 50.0, 0.3), &t), AppClass::C);
    }

    #[test]
    fn a_is_fallthrough() {
        let t = Thresholds::paper_gtx480();
        // LUD-like: everything low -> A.
        assert_eq!(classify(&profile(0.2, 8.0, 40.0, 0.03), &t), AppClass::A);
    }

    #[test]
    fn derived_thresholds_track_device_and_suite() {
        let suite = vec![
            profile(200.0, 100.0, 1000.0, 0.1),
            profile(50.0, 140.0, 100.0, 0.1),
        ];
        let dev = gcs_sim::GpuConfig::gtx480();
        let peak = dev.bytes_per_cycle_to_gbps(dev.peak_dram_bytes_per_cycle());
        let t = Thresholds::derive(&dev, &suite);
        assert!((t.alpha - 0.55 * peak).abs() < 1e-9);
        assert!((t.beta - 0.30 * peak).abs() < 1e-9);
        assert!((t.gamma - 0.55 * peak).abs() < 1e-9);
        assert!((t.epsilon - 200.0).abs() < 1e-9, "0.2 x measured IPCmax");
        // The thesis' own GTX 480 numbers fall out of the same factors.
        assert!((t.alpha - 107.0).abs() < 10.0);
        assert!((t.beta - 50.0).abs() < 7.0);
        assert!((t.gamma - 100.0).abs() < 10.0);
    }

    #[test]
    fn label_roundtrip() {
        for c in AppClass::ALL {
            assert_eq!(AppClass::from_label(c.label()), Some(c));
        }
        assert_eq!(AppClass::from_label("x"), Some(AppClass::Mc));
        assert_eq!(AppClass::from_label("zz"), None);
    }
}
