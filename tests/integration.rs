//! Cross-crate integration tests: workloads → simulator → profiling →
//! classification → interference → ILP, on the scaled-down test device.

use gcs_core::classify::{classify_suite, AppClass};
use gcs_core::ilp::solve_grouping;
use gcs_core::interference::InterferenceMatrix;
use gcs_core::profile::{profile_alone, scalability_curve};
use gcs_core::queues::{census, thesis_queue_14};
use std::sync::Arc;

use gcs_core::profile::PROFILE_MAX_CYCLES;
use gcs_core::sweep::{CorunMode, GroupOutcome, SweepEngine, Workload};
use gcs_sim::config::GpuConfig;
use gcs_sim::gpu::Gpu;
use gcs_workloads::{tensor_mix_trace, Benchmark, Scale};

fn cfg() -> GpuConfig {
    GpuConfig::test_small()
}

#[test]
fn every_benchmark_runs_to_completion_on_the_test_device() {
    for b in Benchmark::ALL {
        let mut gpu = Gpu::new(cfg()).expect("config");
        let app = gpu.launch(b.kernel(Scale::TEST)).expect("launch");
        gpu.partition_even();
        gpu.run(200_000_000)
            .unwrap_or_else(|e| panic!("{b} failed: {e}"));
        let s = gpu.stats().app(app);
        assert!(s.finished(), "{b} did not finish");
        assert_eq!(
            s.thread_insts,
            b.kernel(Scale::TEST).total_thread_instructions(),
            "{b} lost instructions"
        );
    }
}

#[test]
fn profiles_are_internally_consistent() {
    for b in [Benchmark::Blk, Benchmark::Lud, Benchmark::Gups, Benchmark::Bfs2] {
        let p = profile_alone(&b.kernel(Scale::TEST), &cfg()).expect("profile");
        // L2->L1 traffic includes every DRAM read return, so it can
        // never be smaller than the read side of the DRAM traffic.
        assert!(
            p.l2_l1_bw + 1e-9 >= 0.0,
            "{b}: negative bandwidth is impossible"
        );
        assert!(p.utilization <= 1.0 + 1e-9, "{b}: utilization above peak");
        assert!(p.r >= 0.0 && p.r <= 1.0, "{b}: R out of range");
        assert!(p.cycles > 0);
    }
}

#[test]
fn relative_profile_ordering_matches_the_paper() {
    // The magnitudes shift on the small device, but the orderings that
    // drive classification must survive: BLK out-streams LUD, GUPS has
    // the worst IPC, BFS2 is L2-traffic-heavy relative to its DRAM use.
    let cfg = cfg();
    let blk = profile_alone(&Benchmark::Blk.kernel(Scale::TEST), &cfg).unwrap();
    let lud = profile_alone(&Benchmark::Lud.kernel(Scale::TEST), &cfg).unwrap();
    let gups = profile_alone(&Benchmark::Gups.kernel(Scale::TEST), &cfg).unwrap();
    let bfs2 = profile_alone(&Benchmark::Bfs2.kernel(Scale::TEST), &cfg).unwrap();

    assert!(blk.memory_bw > 10.0 * lud.memory_bw, "BLK streams, LUD does not");
    assert!(gups.ipc < blk.ipc, "GUPS is latency-crippled");
    assert!(
        bfs2.l2_l1_bw > 2.0 * bfs2.memory_bw,
        "BFS2 lives in the L2: {} vs {}",
        bfs2.l2_l1_bw,
        bfs2.memory_bw
    );
}

#[test]
fn suite_classification_covers_multiple_classes() {
    let cfg = cfg();
    let profiles: Vec<_> = Benchmark::ALL
        .iter()
        .map(|b| profile_alone(&b.kernel(Scale::TEST), &cfg).expect("profile"))
        .collect();
    let (_, classes) = classify_suite(&cfg, &profiles);
    // On the scaled-down device the exact table shifts, but the suite
    // must still spread over at least three classes for the pattern
    // machinery to be meaningful.
    let mut seen: Vec<AppClass> = classes.clone();
    seen.sort_unstable();
    seen.dedup();
    assert!(
        seen.len() >= 3,
        "suite collapsed into too few classes: {classes:?}"
    );
}

#[test]
fn end_to_end_ilp_grouping_from_measured_interference() {
    let cfg = cfg();
    // One representative per class: BLK (M), FFT (MC), SPMV (C), SAD (A).
    let reps = [Benchmark::Blk, Benchmark::Fft, Benchmark::Spmv, Benchmark::Sad];
    let matrix = InterferenceMatrix::measure_suite_with(&SweepEngine::sequential(), &cfg, Scale::TEST, &reps)
        .expect("matrix");
    let queue = thesis_queue_14();
    let sol = solve_grouping(census(&queue), 2, &matrix).expect("ilp");
    assert_eq!(sol.groups().len(), 7);
    // Class usage must exactly cover the census.
    let mut used = [0u32; 4];
    for g in sol.groups() {
        for c in g {
            used[c.index()] += 1;
        }
    }
    assert_eq!(used, census(&queue));
}

#[test]
fn scalability_is_monotone_for_compute_kernels() {
    let curve = scalability_curve(&Benchmark::Hs.kernel(Scale::TEST), &cfg(), &[2, 4, 8])
        .expect("curve");
    assert!(curve[1].1 >= curve[0].1 * 0.95, "HS should not anti-scale");
    assert!(curve[2].1 >= curve[1].1 * 0.95);
}

#[test]
fn lud_ipc_is_flat_in_core_count() {
    // LUD's 12-block grid fits a handful of SMs; more cores change
    // nothing (Fig 3.5's flattest curve).
    let curve = scalability_curve(&Benchmark::Lud.kernel(Scale::TEST), &cfg(), &[4, 8])
        .expect("curve");
    let ratio = curve[1].1 / curve[0].1.max(1e-9);
    assert!(
        (0.8..1.25).contains(&ratio),
        "LUD should be flat, got {ratio}"
    );
}

#[test]
fn drain_based_migration_mid_run_preserves_work() {
    let cfg = cfg();
    let mut gpu = Gpu::new(cfg).expect("gpu");
    let a = gpu.launch(Benchmark::Sad.kernel(Scale::TEST)).expect("a");
    let b = gpu.launch(Benchmark::Spmv.kernel(Scale::TEST)).expect("b");
    gpu.partition_even();
    gpu.run_for(2_000);
    // Shuffle SMs back and forth mid-run.
    gpu.transfer_sms(a, b, 2);
    gpu.run_for(2_000);
    gpu.transfer_sms(b, a, 3);
    gpu.run(200_000_000).expect("completion");
    let ka = Benchmark::Sad.kernel(Scale::TEST);
    let kb = Benchmark::Spmv.kernel(Scale::TEST);
    assert_eq!(gpu.stats().app(a).thread_insts, ka.total_thread_instructions());
    assert_eq!(gpu.stats().app(b).thread_insts, kb.total_thread_instructions());
}

/// A one-app `Even` co-run is served by the app's full-device profile
/// job: one key, one cache entry, one simulation, with `makespan =
/// cycles + 1`. The served outcome must equal a direct single-app
/// device run (`Gpu::new`, `partition_even`, `run`) for every benchmark
/// on both device models, and for a trace member.
#[test]
fn one_app_even_corun_served_by_the_profile_equals_a_direct_run() {
    for cfg in [GpuConfig::gtx480(), GpuConfig::test_small()] {
        let mut members: Vec<Workload> = Benchmark::ALL.map(Workload::Bench).into();
        members.push(Workload::Trace(Arc::new(tensor_mix_trace(&cfg))));
        let engine = SweepEngine::auto();
        engine
            .run_parallel(members.len(), |i| {
                let w = &members[i];
                let group = std::iter::once(w);
                let served =
                    engine.corun_with(&cfg, Scale::TEST, group, &CorunMode::Even, GroupOutcome::clone)?;
                let mut gpu = Gpu::new(cfg.clone()).expect("config");
                let app = match w {
                    Workload::Bench(b) => gpu.launch(b.kernel(Scale::TEST)),
                    Workload::Trace(t) => gpu.launch_traced(Arc::clone(t)),
                }
                .expect("launch");
                gpu.partition_even();
                gpu.run(PROFILE_MAX_CYCLES).expect("run");
                let s = gpu.stats().app(app);
                let direct = GroupOutcome {
                    cycles: vec![s.runtime_cycles().max(1)],
                    thread_insts: vec![s.thread_insts],
                    makespan: gpu.cycle(),
                };
                assert_eq!(served, direct, "{} on {} SMs", w.name(), cfg.num_sms);
                Ok(())
            })
            .expect("every member runs");
        // Each co-run was its profile job: the profiles are hits now.
        for w in &members {
            engine.profile_workload(&cfg, Scale::TEST, w, cfg.num_sms).expect("hit");
        }
        let s = engine.stats();
        let n = members.len() as u64;
        assert_eq!((s.jobs_total, s.jobs_simulated, s.jobs_cached), (2 * n, n, n));
    }
}
