//! Chaos suite: deterministic fault injection and graceful degradation.
//!
//! A [`FaultPlan`] is a *runtime* schedule of device degradations —
//! SM outages, memory-latency spikes, MSHR throttling — driven by the
//! same seeded RNG as the rest of the simulator. The contracts pinned
//! here:
//!
//! * **Replay determinism** — a fixed plan produces bit-identical
//!   statistics in both step modes (rows of the scenario table in
//!   `common/scenario.rs`) and at any sweep thread count.
//! * **SMRA degradation** — the controller notices a shrunk surviving
//!   set, conserves SMs over it, and keeps making decisions afterwards;
//!   on a degraded device it is not meaningfully worse than a static
//!   even split.
//! * **Engine robustness** — a panicking job surfaces as a typed
//!   [`CoreError::Worker`] without tearing down the batch, and a
//!   corrupted cache entry is quarantined and transparently repaired.

#[macro_use]
#[path = "common/scenario.rs"]
mod scenario;

use gcs_core::smra::{SmraAction, SmraController, SmraParams};
use gcs_core::sweep::SweepEngine;
use gcs_core::CoreError;
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_sim::stats::SimStats;
use gcs_sim::FaultPlan;
use gcs_workloads::{Benchmark, Scale};

const MAX_CYCLES: u64 = 80_000_000;

// A fixed plan replays bit-identically across step modes: the faulted
// rows of the scenario table, one of them a recorded SPMV trace replay.
select_rows! {
    faulted_runs_are_bit_identical_across_step_modes: "faults/GUPS", "faults/SPMV", "faults/SAD";
    faulted_traced_replay_is_bit_identical_across_step_modes: "faults/replay-SPMV";
    /// The shared plan's shape closing inside each run: the cap rises
    /// and SM 0 returns with work queued, alone and under a co-run.
    mid_run_recovery_is_bit_identical_across_step_modes: "faults-mid/", "faults4-mid/";
}

#[test]
fn faulted_sweep_is_deterministic_across_thread_counts() {
    let suite = Benchmark::ALL;
    let job = |i: usize| -> Result<(SimStats, u64), CoreError> {
        let cfg = GpuConfig::test_small();
        let plan = FaultPlan::random(0xC0FF_EE00 + i as u64, &cfg, 40_000);
        let mut gpu = Gpu::new(cfg).expect("device");
        gpu.install_fault_plan(plan).expect("valid plan");
        gpu.launch(suite[i].kernel(Scale::TEST)).expect("launch");
        gpu.partition_even();
        gpu.run(MAX_CYCLES).expect("faulted run finishes");
        Ok((gpu.stats().clone(), gpu.cycle()))
    };
    let reference = SweepEngine::new(1)
        .run_parallel(suite.len(), job)
        .expect("reference sweep");
    for threads in [1usize, 2, 8] {
        for run in 0..2 {
            let got = SweepEngine::new(threads)
                .run_parallel(suite.len(), job)
                .expect("faulted sweep");
            assert_eq!(
                reference, got,
                "faulted sweep diverged at threads={threads} run={run}"
            );
        }
    }
}

#[test]
fn random_fault_plans_never_panic_across_the_suite() {
    for (i, bench) in Benchmark::ALL.iter().enumerate() {
        let cfg = GpuConfig::test_small();
        let plan = FaultPlan::random(0x5EED_0000 + i as u64, &cfg, 30_000);
        let mut gpu = Gpu::new(cfg).expect("device");
        gpu.install_fault_plan(plan).expect("random plans validate");
        gpu.launch(bench.kernel(Scale::TEST)).expect("launch");
        gpu.partition_even();
        match gpu.run(MAX_CYCLES) {
            Ok(()) => assert!(gpu.all_done(), "{bench:?}: run returned before finishing"),
            Err(e) => panic!("{bench:?}: faulted run failed: {e}"),
        }
    }
}

#[test]
fn smra_detects_faults_conserves_sms_and_reconverges() {
    let cfg = GpuConfig::test_small();
    let total = cfg.num_sms;
    let mut gpu = Gpu::new(cfg).expect("device");
    let a = gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
    let b = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("b");
    gpu.partition_even();
    // Mid-interval outage: cycle 3_500 falls inside a T_C = 1_000 window.
    gpu.install_fault_plan(FaultPlan::new().disable_sm(3_500, 0))
        .expect("valid plan");

    let params = SmraParams {
        tc: 1_000,
        nr: 1,
        r_min: 1,
        ..SmraParams::for_device(total, 2)
    };
    let mut ctl = SmraController::new(params, vec![a, b], &gpu);
    while !gpu.all_done() {
        gpu.run_for(params.tc);
        if !gpu.all_done() {
            ctl.decide(&mut gpu);
            if !gpu.app_finished(a) && !gpu.app_finished(b) {
                // Conservation over the *surviving* set, not the
                // configured total.
                assert_eq!(
                    gpu.sm_count(a) + gpu.sm_count(b),
                    gpu.num_enabled_sms(),
                    "SMs leaked at cycle {} after {:?}",
                    gpu.cycle(),
                    ctl.actions().last()
                );
            }
        }
        assert!(gpu.cycle() < MAX_CYCLES, "runaway faulted SMRA run");
    }

    assert_eq!(gpu.num_enabled_sms(), total - 1, "outage is permanent");
    let acts = ctl.actions();
    let fault_at = acts
        .iter()
        .position(|&x| x == SmraAction::FaultDetected { surviving: total - 1 })
        .unwrap_or_else(|| panic!("no FaultDetected in {acts:?}"));
    assert!(
        acts.len() > fault_at + 1,
        "controller stopped deciding after the fault: {acts:?}"
    );
}

#[test]
fn smra_on_degraded_device_is_not_worse_than_even_split() {
    let degraded_corun = |smra: bool| -> u64 {
        let mut gpu = Gpu::new(GpuConfig::test_small()).expect("device");
        let a = gpu.launch(Benchmark::Gups.kernel(Scale::TEST)).expect("a");
        let b = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("b");
        gpu.partition_even();
        gpu.install_fault_plan(FaultPlan::new().disable_sm(2_000, 0))
            .expect("valid plan");
        if smra {
            let params = SmraParams {
                tc: 2_000,
                ..SmraParams::for_device(gpu.config().num_sms, 2)
            };
            let mut ctl = SmraController::new(params, vec![a, b], &gpu);
            ctl.run_to_completion(&mut gpu, MAX_CYCLES)
                .expect("degraded SMRA run finishes");
        } else {
            gpu.run(MAX_CYCLES).expect("degraded even run finishes");
        }
        gpu.cycle()
    };
    let even = degraded_corun(false);
    let smra = degraded_corun(true);
    // Same workloads → same retired instructions, so makespan compares
    // device throughput directly. The revert guard bounds any damage;
    // allow the same 25% slack the healthy-device test uses for the
    // tiny test configuration.
    assert!(
        (smra as f64) < (even as f64) * 1.25,
        "SMRA on a degraded device regressed: SMRA {smra} vs Even {even}"
    );
}

#[test]
fn panicking_sweep_job_is_isolated_at_any_thread_count() {
    for threads in [1usize, 2, 8] {
        let e = SweepEngine::new(threads);
        let run = |i: usize| -> Result<usize, CoreError> {
            if i == 3 {
                panic!("chaos monkey strikes job {i}");
            }
            Ok(i * 10)
        };
        let err = e.run_parallel(8, run).expect_err("job 3 panics");
        match err {
            CoreError::Worker { job, ref message } => {
                assert_eq!(job, 3);
                assert!(message.contains("chaos monkey"), "lost payload: {message}");
            }
            other => panic!("expected Worker error, got {other}"),
        }
        let salvaged = e.run_parallel_salvage(8, run);
        assert_eq!(salvaged.len(), 8);
        for (i, r) in salvaged.iter().enumerate() {
            if i == 3 {
                assert!(r.is_err(), "panicking job salvaged as Ok");
            } else {
                assert_eq!(*r.as_ref().expect("healthy job"), i * 10);
            }
        }
    }
}

#[test]
fn corrupted_cache_entries_are_quarantined_and_repaired() {
    struct TempDir(std::path::PathBuf);
    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }
    let dir = TempDir(
        std::env::temp_dir().join(format!("gcs-chaos-cache-{}", std::process::id())),
    );
    let _ = std::fs::remove_dir_all(&dir.0);

    let cfg = GpuConfig::test_small();
    let group = [Benchmark::Lud, Benchmark::Sad];
    let mode = gcs_core::sweep::CorunMode::Even;

    let warm = SweepEngine::sequential().with_cache_dir(&dir.0);
    let reference = warm.corun(&cfg, Scale::TEST, &group, &mode).expect("warm run");
    assert_eq!(warm.stats().jobs_simulated, 1);

    // Vandalize every cache entry on disk.
    let mut clobbered = 0;
    for entry in std::fs::read_dir(&dir.0).expect("cache dir exists") {
        let path = entry.expect("dir entry").path();
        if path.extension().is_some_and(|e| e == "json") {
            std::fs::write(&path, b"{ not json").expect("clobber");
            clobbered += 1;
        }
    }
    assert!(clobbered > 0, "warm run left no cache entries to corrupt");

    let cold = SweepEngine::sequential().with_cache_dir(&dir.0);
    let repaired = cold.corun(&cfg, Scale::TEST, &group, &mode).expect("repair run");
    assert_eq!(repaired, reference, "repaired result diverged");
    let stats = cold.stats();
    assert_eq!(stats.jobs_simulated, 1, "corrupt entry must force a re-run");
    assert_eq!(stats.jobs_quarantined as usize, clobbered);
    let quarantined = std::fs::read_dir(dir.0.join("quarantine"))
        .expect("quarantine directory created")
        .count();
    assert_eq!(quarantined, clobbered, "corrupt files moved aside for autopsy");

    // Third engine: the repaired entry now serves from cache.
    let hot = SweepEngine::sequential().with_cache_dir(&dir.0);
    let cached = hot.corun(&cfg, Scale::TEST, &group, &mode).expect("cached run");
    assert_eq!(cached, reference);
    assert_eq!(hot.stats().jobs_cached, 1, "repair did not restore the cache");
}
