#!/usr/bin/env bash
# Offline CI gate for the workspace.
#
# The whole pipeline runs without network access: the workspace has no
# external dependencies (no registry, no index update), so this script
# works on an air-gapped machine exactly as it does in CI.
#
#   scripts/ci.sh               full gate: build, tests, widened property
#                               tests, clippy (deny warnings), the wire-kernel
#                               duplicate guard, the shard/daemon/fleet smokes
#                               and benchmark/smoke.sh (golden digests)
#   scripts/ci.sh --quick       tier-1 only: release build + default tests
#   scripts/ci.sh --bench-smoke also run scripts/bench.sh --smoke after the
#                               gate (checks the benchmarks still run; the
#                               timings themselves are not gated)
#   scripts/ci.sh --chaos-smoke fault-injection gate only: runs the
#                               tests/chaos.rs suite (DESIGN.md §9) and
#                               exits — a fast standalone check that the
#                               degradation paths still hold
#   scripts/ci.sh --sched-smoke online-scheduler gate only: runs the
#                               tests/sched.rs suite (DESIGN.md §10) and a
#                               short seeded trace through schedd_sim under
#                               all three policies at TEST scale, then exits
#   scripts/ci.sh --profile-smoke
#                               phase-profiler gate only: runs one SMALL
#                               co-run sweep with --profile and a cold cache
#                               at 1/2/8 worker threads, asserts the phase
#                               totals sum to the simulated cycle count and
#                               that the profile line is byte-identical at
#                               every thread count, then exits
#   scripts/ci.sh --trace-smoke trace record/replay gate only: records one
#                               kernel with trace_record, replays it with
#                               trace_replay at 1/2/8 worker threads with a
#                               cold cache, and asserts the replay report
#                               line is byte-identical every time, then
#                               exits
#   scripts/ci.sh --shard-smoke sharded-stepping gate only: runs one fixed
#                               SMRA co-run over the SM-shard x memory-shard
#                               grid (s1/s2/s4 x m1/m2/m4, shard_smoke
#                               binary) plus the StepMode::Cycle reference
#                               point, and asserts the canonical JSON stats
#                               line is byte-identical at every point, then
#                               exits
#   scripts/ci.sh --daemon-smoke
#                               scheduler-daemon gate only: drives a seeded
#                               trace through an in-process schedd over
#                               virtual sockets (schedd_client --virtual),
#                               asserts the drained report is byte-identical
#                               to the batch scheduler at 1/2/8 worker
#                               threads, and replays a fault-injected
#                               session twice to pin its transcript and
#                               report (DESIGN.md §13), then exits
#   scripts/ci.sh --fleet-smoke heterogeneous-fleet gate only: runs the
#                               tests/fleet.rs suite and a TEST-scale
#                               fleet_sim pass, byte-diffs the homogeneous
#                               1-device FleetPolicy report against the
#                               IlpEpoch report, and re-runs the
#                               heterogeneous pass to pin its canonical
#                               JSON (DESIGN.md §14), then exits
#
# Any failing step aborts the run (set -e) with the step name printed.

set -euo pipefail
cd "$(dirname "$0")/.."

# Never let cargo try the network: everything must resolve from the
# local workspace alone.
export CARGO_NET_OFFLINE=true

QUICK=0
BENCH_SMOKE=0
CHAOS_SMOKE=0
SCHED_SMOKE=0
PROFILE_SMOKE=0
TRACE_SMOKE=0
SHARD_SMOKE=0
DAEMON_SMOKE=0
FLEET_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --bench-smoke) BENCH_SMOKE=1 ;;
        --chaos-smoke) CHAOS_SMOKE=1 ;;
        --sched-smoke) SCHED_SMOKE=1 ;;
        --profile-smoke) PROFILE_SMOKE=1 ;;
        --trace-smoke) TRACE_SMOKE=1 ;;
        --shard-smoke) SHARD_SMOKE=1 ;;
        --daemon-smoke) DAEMON_SMOKE=1 ;;
        --fleet-smoke) FLEET_SMOKE=1 ;;
        *) echo "usage: scripts/ci.sh [--quick] [--bench-smoke] [--chaos-smoke] [--sched-smoke] [--profile-smoke] [--trace-smoke] [--shard-smoke] [--daemon-smoke] [--fleet-smoke]" >&2; exit 2 ;;
    esac
done

step() {
    echo
    echo "==> $*"
}

if [ "$CHAOS_SMOKE" -eq 1 ]; then
    step "chaos smoke (tests/chaos.rs: fault injection + degradation)"
    cargo test -q -p gcs-core --test chaos
    echo
    echo "chaos smoke passed"
    exit 0
fi

if [ "$SCHED_SMOKE" -eq 1 ]; then
    step "sched smoke (tests/sched.rs: batch equivalence + determinism)"
    cargo test -q -p gcs-sched
    step "sched smoke (schedd_sim, short seeded trace, all policies, GCS_SCALE=test)"
    cargo build --release --bin schedd_sim
    GCS_SCALE=test ./target/release/schedd_sim
    for policy in fcfs greedy ilp; do
        test -s "results/sched/sched_test_q14_$policy.json" || {
            echo "missing results/sched/sched_test_q14_$policy.json" >&2; exit 1;
        }
    done
    echo
    echo "sched smoke passed"
    exit 0
fi

if [ "$PROFILE_SMOKE" -eq 1 ]; then
    step "profile smoke (fig41_two_app --profile, GCS_SCALE=small, cache off)"
    cargo build --release --bin fig41_two_app
    REF=""
    for threads in 1 2 8; do
        LINE=$(GCS_CACHE=off GCS_SCALE=small GCS_THREADS=$threads \
               ./target/release/fig41_two_app --profile | grep '^profile:') || {
            echo "no profile line in fig41_two_app --profile output" >&2; exit 1;
        }
        echo "  threads=$threads  $LINE"
        TOTAL=$(echo "$LINE" | sed -n 's/.* total=\([0-9]*\).*/\1/p')
        SIM=$(echo "$LINE" | sed -n 's/.* sim_cycles=\([0-9]*\).*/\1/p')
        if [ -z "$TOTAL" ] || [ "$TOTAL" -eq 0 ] || [ "$TOTAL" != "$SIM" ]; then
            echo "phase totals ($TOTAL) must sum to simulated cycles ($SIM)" >&2
            exit 1
        fi
        if [ -z "$REF" ]; then
            REF="$LINE"
        elif [ "$LINE" != "$REF" ]; then
            echo "profile line differs at $threads threads:" >&2
            echo "  ref: $REF" >&2
            echo "  got: $LINE" >&2
            exit 1
        fi
    done
    echo
    echo "profile smoke passed (totals partition the cycles; byte-stable at 1/2/8 threads)"
    exit 0
fi

# Sharded-stepping gate: one fixed SMRA co-run per point of the
# SM-shard × memory-shard grid; the canonical JSON stats line must be
# byte-identical at every point (sharding is a pure wall-clock
# optimization — DESIGN.md §12, both phase A and phase M).
shard_smoke() {
    step "shard smoke (shard_smoke co-run, SM shards 1/2/4 x mem shards 1/2/4, plus the cycle-stepped reference)"
    cargo build --release --bin shard_smoke
    local ref="" line point shards mem mode
    # The last point steps every cycle and visits every SM
    # (`StepMode::Cycle`): horizon jumps and idle-SM elision are gated
    # byte-for-byte, not only in tier-1.
    for point in "1 1" "2 1" "4 1" "1 2" "1 4" "4 2" "4 4" "1 1 cycle"; do
        read -r shards mem mode <<<"$point"
        line=$(./target/release/shard_smoke "$shards" "$mem" $mode | grep '^stats:') || {
            echo "no stats line in shard_smoke output" >&2; exit 1;
        }
        echo "  shards=$shards mem=$mem ${mode:-horizon}  ${line:0:60}..."
        if [ -z "$ref" ]; then
            ref="$line"
        elif [ "$line" != "$ref" ]; then
            echo "canonical stats differ at shards=$shards mem=$mem ${mode:-horizon}:" >&2
            echo "  ref: $ref" >&2
            echo "  got: $line" >&2
            exit 1
        fi
    done
    echo "shard smoke passed (stats byte-identical across the SM x mem shard grid and the cycle-stepped reference)"
}

if [ "$SHARD_SMOKE" -eq 1 ]; then
    shard_smoke
    exit 0
fi

# Scheduler-daemon gate: the online daemon session must be the same
# computation as the batch scheduler (byte-identical reports, stable
# across worker-thread counts), and the injected-fault session must be
# perfectly reproducible from its seed (DESIGN.md §13).
daemon_smoke() {
    step "daemon smoke (schedd_client --virtual: batch equivalence + fault determinism)"
    cargo build --release --bin schedd_client
    local dir threads run ref=""
    dir=$(mktemp -d)
    for threads in 1 2 8; do
        GCS_SCALE=test GCS_THREADS=$threads ./target/release/schedd_client --virtual \
            --jobs 8 --out "$dir/daemon_$threads.json" \
            --batch-out "$dir/batch_$threads.json" >/dev/null
        cmp "$dir/daemon_$threads.json" "$dir/batch_$threads.json" || {
            echo "daemon report differs from batch report at $threads threads" >&2
            exit 1
        }
        if [ -z "$ref" ]; then
            ref="$dir/daemon_$threads.json"
        else
            cmp "$ref" "$dir/daemon_$threads.json" || {
                echo "daemon report differs across worker-thread counts" >&2
                exit 1
            }
        fi
    done
    echo "  daemon session == batch report, byte-identical at 1/2/8 threads"
    for run in 1 2; do
        GCS_SCALE=test ./target/release/schedd_client --virtual --jobs 10 \
            --faults 3491 --transcript "$dir/transcript_$run.txt" \
            --out "$dir/faulted_$run.json" >/dev/null
    done
    cmp "$dir/transcript_1.txt" "$dir/transcript_2.txt" || {
        echo "fault transcript is not deterministic" >&2
        exit 1
    }
    cmp "$dir/faulted_1.json" "$dir/faulted_2.json" || {
        echo "fault-session report is not deterministic" >&2
        exit 1
    }
    echo "  fault-injected session reproducible (seed 3491: transcript + report)"
    rm -rf "$dir"
    echo "daemon smoke passed"
}

if [ "$DAEMON_SMOKE" -eq 1 ]; then
    daemon_smoke
    exit 0
fi

# Heterogeneous-fleet gate: the degenerate 1-device fleet must be
# byte-identical to the single-GPU scheduler, and the heterogeneous
# run's canonical JSON must be deterministic across re-runs
# (DESIGN.md §14). fleet_sim itself asserts fleet STP > FCFS STP.
fleet_smoke() {
    step "fleet smoke (tests/fleet.rs: equivalence, conservation, determinism)"
    cargo test -q -p gcs-fleet
    step "fleet smoke (fleet_sim, GCS_SCALE=test: hom byte-diff + hetero re-run pin)"
    cargo build --release --bin fleet_sim
    GCS_SCALE=test ./target/release/fleet_sim >/dev/null
    cmp results/fleet/fleet_hom_test_fleetpolicy.json \
        results/fleet/fleet_hom_test_ilp.json || {
        echo "homogeneous 1-device fleet report differs from single-GPU report" >&2
        exit 1
    }
    echo "  1-device FleetPolicy == IlpEpoch, byte-for-byte"
    cp results/fleet/fleet_test_fleet.json results/fleet/fleet_test_fleet.json.ref
    GCS_SCALE=test ./target/release/fleet_sim >/dev/null
    cmp results/fleet/fleet_test_fleet.json results/fleet/fleet_test_fleet.json.ref || {
        echo "heterogeneous fleet report is not deterministic across re-runs" >&2
        exit 1
    }
    rm -f results/fleet/fleet_test_fleet.json.ref
    echo "  heterogeneous canonical JSON stable across re-runs"
    echo "fleet smoke passed"
}

if [ "$FLEET_SMOKE" -eq 1 ]; then
    fleet_smoke
    exit 0
fi

if [ "$TRACE_SMOKE" -eq 1 ]; then
    step "trace smoke (trace_record + trace_replay round trip, GCS_SCALE=test)"
    cargo build --release --bin trace_record --bin trace_replay
    TRACE_DIR=$(mktemp -d)
    trap 'rm -rf "$TRACE_DIR"' EXIT
    GCS_SCALE=test ./target/release/trace_record BLK "$TRACE_DIR/blk.trace" \
        --json "$TRACE_DIR/blk.json"
    test -s "$TRACE_DIR/blk.trace" || { echo "empty trace file" >&2; exit 1; }
    test -s "$TRACE_DIR/blk.json" || { echo "empty trace json" >&2; exit 1; }
    REF=""
    for threads in 1 2 8; do
        LINE=$(GCS_CACHE=off GCS_SCALE=test GCS_THREADS=$threads \
               ./target/release/trace_replay "$TRACE_DIR/blk.trace" | grep '^replay:') || {
            echo "no replay line in trace_replay output" >&2; exit 1;
        }
        echo "  threads=$threads  $LINE"
        if [ -z "$REF" ]; then
            REF="$LINE"
        elif [ "$LINE" != "$REF" ]; then
            echo "replay line differs at $threads threads:" >&2
            echo "  ref: $REF" >&2
            echo "  got: $LINE" >&2
            exit 1
        fi
    done
    echo
    echo "trace smoke passed (replay report byte-stable at 1/2/8 threads)"
    exit 0
fi

step "build (release)"
cargo build --release

step "test (default features)"
cargo test -q

if [ "$QUICK" -eq 1 ]; then
    echo
    echo "quick gate passed (tier-1: release build + default tests)"
    exit 0
fi

step "test (widened property-test case counts)"
cargo test -q --features proptest-tests

# No rustfmt gate: tables like PAPER_PROFILES keep deliberate
# one-row-per-line layouts that rustfmt would destroy.
step "clippy (deny warnings)"
if cargo clippy --version >/dev/null 2>&1; then
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "clippy not installed; skipping lint step"
fi

# One wire kernel (DESIGN.md "Wire kernel"): FNV-1a, JSON escaping and
# the float rule are defined in crates/sim/src/wire.rs and nowhere else.
step "duplicate guard (one FNV-1a, one escaper, one float rule under crates/)"
BASIS=$(grep -rl 'cbf2_9ce4_8422_2325' crates)
if [ "$BASIS" != "crates/sim/src/wire.rs" ]; then
    echo "the FNV offset basis must occur in crates/sim/src/wire.rs only, found in:" >&2
    echo "$BASIS" >&2
    exit 1
fi
if grep -rnE 'fn (esc|escape_json|fmt_f64)\b' crates --include='*.rs' \
        | grep -v '^crates/sim/src/wire.rs:'; then
    echo "private escaper / float formatter outside crates/sim/src/wire.rs" >&2
    exit 1
fi

shard_smoke
daemon_smoke
fleet_smoke

step "benchmark smoke (benchmark/smoke.sh: seven workloads, golden digests)"
benchmark/smoke.sh

if [ "$BENCH_SMOKE" -eq 1 ]; then
    step "bench smoke (scripts/bench.sh --smoke)"
    scripts/bench.sh --smoke
fi

echo
echo "full gate passed"
