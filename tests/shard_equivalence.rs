//! The scenarios the sharded-SM lane was pinned on, held on the one
//! stepping engine (the lane was deleted, DESIGN.md §12). Each test is a
//! selector over the scenario table in `tests/common/scenario.rs`: its
//! rows run on the two-controller small device in both step modes, on a
//! device that reports the single-cell plan, and must match each other
//! and `tests/golden/engine_stats.txt`. The file keeps the suite's path
//! and test names; the table holds the scenarios.

#[macro_use]
#[path = "common/scenario.rs"]
mod scenario;

select_rows! {
    alone_runs_are_bit_identical_across_shard_counts: "alone/";
    even_corun_is_bit_identical_across_shard_counts: "even/GUPS+SPMV";
    smra_run_is_bit_identical_across_shard_counts: "smra/GUPS+SAD/8sm";
    authored_trace_replays_are_bit_identical_across_shard_counts: "replay/";
    faulted_runs_are_bit_identical_across_shard_counts: "faults/GUPS", "faults/SPMV";
    profiler_phase_totals_are_shard_invariant_and_account_every_cycle: "profile/GUPS+SPMV";
    recording_runs_ignore_sharding_and_produce_identical_traces: "record/BLK+GUPS";
    multi_issue_device_is_bit_identical_across_shard_counts: "issue2/GUPS+SAD";
}
