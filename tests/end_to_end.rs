//! End-to-end queue executions through the full [`gcs_core::runner`]
//! pipeline on the scaled-down test device — every grouping and
//! allocation policy combination the evaluation uses.

use gcs_core::queues::{queue_with_distribution, thesis_queue_14, Distribution};
use gcs_core::runner::{AllocationPolicy, GroupingPolicy};
use gcs_workloads::Benchmark;

#[path = "common/fixtures.rs"]
mod fixtures;
use fixtures::pipeline;

#[test]
fn all_policy_combinations_run_a_small_queue() {
    let mut p = pipeline(2);
    let queue = vec![
        Benchmark::Gups,
        Benchmark::Sad,
        Benchmark::Lud,
        Benchmark::Bfs2,
    ];
    for grouping in [GroupingPolicy::Serial, GroupingPolicy::Fcfs, GroupingPolicy::Ilp] {
        for alloc in [
            AllocationPolicy::Even,
            AllocationPolicy::ProfileBased,
            AllocationPolicy::Smra,
        ] {
            let r = p
                .run_queue(&queue, grouping, alloc)
                .unwrap_or_else(|e| panic!("{grouping:?}/{alloc:?}: {e}"));
            assert!(r.device_throughput > 0.0, "{grouping:?}/{alloc:?}");
            let apps: usize = r.groups.iter().map(|g| g.apps.len()).sum();
            assert_eq!(apps, queue.len(), "{grouping:?}/{alloc:?} lost apps");
        }
    }
}

#[test]
fn concurrent_execution_beats_serial_on_mixed_queues() {
    let mut p = pipeline(2);
    let queue = thesis_queue_14();
    let serial = p
        .run_queue(&queue, GroupingPolicy::Serial, AllocationPolicy::Even)
        .expect("serial");
    let ilp = p
        .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Even)
        .expect("ilp");
    assert!(
        ilp.device_throughput > serial.device_throughput,
        "co-scheduling must beat serial: {} vs {}",
        ilp.device_throughput,
        serial.device_throughput
    );
}

#[test]
fn three_way_execution_works() {
    let mut p = pipeline(3);
    let queue: Vec<Benchmark> = thesis_queue_14().into_iter().take(6).collect();
    let r = p
        .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Even)
        .expect("3-way");
    assert_eq!(r.groups.len(), 2);
    for g in &r.groups {
        assert_eq!(g.apps.len(), 3);
    }
}

#[test]
fn distribution_queues_execute_under_ilp() {
    let mut p = pipeline(2);
    for dist in [Distribution::MHeavy, Distribution::AHeavy] {
        let queue = queue_with_distribution(dist, 8);
        let r = p
            .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Even)
            .unwrap_or_else(|e| panic!("{dist:?}: {e}"));
        assert_eq!(r.groups.len(), 4);
    }
}

#[test]
fn group_makespan_bounds_member_cycles() {
    let mut p = pipeline(2);
    let r = p
        .run_queue(
            &[Benchmark::Blk, Benchmark::Hs],
            GroupingPolicy::Fcfs,
            AllocationPolicy::Even,
        )
        .expect("run");
    for g in &r.groups {
        for a in &g.apps {
            assert!(a.cycles <= g.makespan);
            assert!(a.ipc > 0.0);
        }
    }
}

#[test]
fn smra_is_not_catastrophic_on_a_queue() {
    let mut p = pipeline(2);
    let queue = vec![
        Benchmark::Gups,
        Benchmark::Sad,
        Benchmark::Blk,
        Benchmark::Lud,
    ];
    let even = p
        .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Even)
        .expect("even");
    let smra = p
        .run_queue(&queue, GroupingPolicy::Ilp, AllocationPolicy::Smra)
        .expect("smra");
    // The revert guard bounds the damage; generous slack for the tiny
    // test device where windows are noisy.
    assert!(
        smra.total_cycles < even.total_cycles * 13 / 10,
        "SMRA {} vs Even {}",
        smra.total_cycles,
        even.total_cycles
    );
}
