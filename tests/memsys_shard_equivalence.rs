//! The scenarios the sharded memory lane was pinned on, held on the one
//! slice tick (the lane was deleted with the sharded SM lane, DESIGN.md
//! §12). Each test is a selector over the scenario table in
//! `tests/common/scenario.rs`: its rows run on the small device widened
//! to four memory controllers, in both step modes, and must match each
//! other and `tests/golden/engine_stats.txt`. The file keeps the suite's
//! path and test names; the table holds the scenarios.

#[macro_use]
#[path = "common/scenario.rs"]
mod scenario;

select_rows! {
    dense_issue_corun_is_bit_identical_over_the_shard_grid: "even4/GUPS+SPMV";
    latency_bound_corun_is_bit_identical_over_the_shard_grid: "even4/GUPS+SAD";
    alone_suite_is_bit_identical_across_mem_shards: "alone4/";
    smra_run_is_bit_identical_across_mem_shards: "smra4/GUPS+SAD/8sm";
    authored_trace_replays_are_bit_identical_across_mem_shards: "replay4/";
    faulted_runs_are_bit_identical_across_mem_shards: "faults4/GUPS", "faults4/SPMV";
    profiler_phase_totals_are_mem_shard_invariant_and_account_every_cycle: "profile4/GUPS+SPMV";
    recording_runs_ignore_mem_sharding_and_produce_identical_traces: "record4/BLK+GUPS";
}
