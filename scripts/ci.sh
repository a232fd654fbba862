#!/usr/bin/env bash
# Offline CI gate for the workspace.
#
# The whole pipeline runs without network access: the workspace has no
# external dependencies (no registry, no index update), so this script
# works on an air-gapped machine exactly as it does in CI.
#
#   scripts/ci.sh               full gate: public-surface audit, build,
#                               tests, widened property tests, clippy (deny
#                               warnings), the two duplicate guards, the
#                               one-event-loop, deleted-name and one-binary
#                               guards, the
#                               daemon/sched/fleet smokes and
#                               benchmark/smoke.sh (golden digests)
#   scripts/ci.sh --quick       tier-1 only: public-surface audit, release
#                               build + default tests
#   scripts/ci.sh --chaos-smoke fault-injection gate only: runs the
#                               tests/chaos.rs suite (DESIGN.md §9) and
#                               exits — a fast standalone check that the
#                               degradation paths still hold
#   scripts/ci.sh --sched-smoke online-scheduler gate only: runs the
#                               tests/sched.rs suite (DESIGN.md §10) and a
#                               short seeded trace through `repro
#                               schedd_sim` under all three policies at
#                               TEST scale, byte-compares its seven
#                               reports with tests/golden/sched/, then
#                               exits
#   scripts/ci.sh --profile-smoke
#                               phase-profiler gate only: runs one SMALL
#                               co-run sweep with --profile and a cold cache
#                               at 1/2/8 worker threads, asserts the phase
#                               totals sum to the simulated cycle count and
#                               that the profile line is byte-identical at
#                               every thread count, then exits
#   scripts/ci.sh --trace-smoke trace record/replay gate only: records one
#                               kernel with `repro trace_record`, replays
#                               it with `repro trace_replay` at 1/2/8
#                               worker threads with a cold cache, and
#                               asserts the replay report line is
#                               byte-identical every time, then exits
#   scripts/ci.sh --daemon-smoke
#                               scheduler-daemon gate only: drives a seeded
#                               trace through an in-process schedd over
#                               virtual sockets (`repro schedd_client
#                               --virtual`), asserts the drained report is
#                               byte-identical to the batch scheduler at
#                               1/2/8 worker threads, and replays a
#                               fault-injected session twice to pin its
#                               transcript and report (DESIGN.md §13), then
#                               exits
#   scripts/ci.sh --fleet-smoke heterogeneous-fleet gate only: runs the
#                               gcs-fleet suites and a TEST-scale `repro
#                               fleet_sim` pass, byte-diffs the homogeneous
#                               1-device FleetPolicy report against the
#                               IlpEpoch report, and byte-compares its four
#                               reports with tests/golden/fleet/
#                               (DESIGN.md §14), then exits
#
# Any failing step aborts the run (set -e) with the step name printed.

set -euo pipefail
cd "$(dirname "$0")/.."

# Never let cargo try the network: everything must resolve from the
# local workspace alone.
export CARGO_NET_OFFLINE=true

QUICK=0
CHAOS_SMOKE=0
SCHED_SMOKE=0
PROFILE_SMOKE=0
TRACE_SMOKE=0
DAEMON_SMOKE=0
FLEET_SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --quick) QUICK=1 ;;
        --chaos-smoke) CHAOS_SMOKE=1 ;;
        --sched-smoke) SCHED_SMOKE=1 ;;
        --profile-smoke) PROFILE_SMOKE=1 ;;
        --trace-smoke) TRACE_SMOKE=1 ;;
        --daemon-smoke) DAEMON_SMOKE=1 ;;
        --fleet-smoke) FLEET_SMOKE=1 ;;
        *) echo "usage: scripts/ci.sh [--quick] [--chaos-smoke] [--sched-smoke] [--profile-smoke] [--trace-smoke] [--daemon-smoke] [--fleet-smoke]" >&2; exit 2 ;;
    esac
done

# The repro binary `cargo build --release` writes, wherever
# CARGO_TARGET_DIR puts it.
REPRO="${CARGO_TARGET_DIR:-target}/release/repro"

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

# Online-scheduler gate: the seven TEST-scale schedd_sim reports must
# equal their committed twins in tests/golden/sched/ (DESIGN.md §10).
sched_smoke() {
    step "sched smoke (tests/sched.rs: batch equivalence + determinism)"
    cargo test -q -p gcs-sched
    step "sched smoke (repro schedd_sim, short seeded trace, all policies, GCS_SCALE=test)"
    cargo build --release --bin repro
    GCS_SCALE=test "$REPRO" schedd_sim >/dev/null
    local f
    for f in sched_test_q14_{fcfs,greedy,ilp}.json sched_test_q28_{fcfs,greedy,ilp}.json summary_test.json; do
        cmp "tests/golden/sched/$f" "results/sched/$f" || {
            echo "results/sched/$f differs from tests/golden/sched/$f" >&2; exit 1;
        }
    done
    echo "  seven TEST-scale reports == tests/golden/sched/"
    echo "sched smoke passed"
}

if [ "$SCHED_SMOKE" -eq 1 ]; then
    sched_smoke
    exit 0
fi

if [ "$PROFILE_SMOKE" -eq 1 ]; then
    step "profile smoke (repro fig41_two_app --profile, GCS_SCALE=small, cache off)"
    cargo build --release --bin repro
    REF=""
    for threads in 1 2 8; do
        LINE=$(GCS_CACHE=off GCS_SCALE=small GCS_THREADS=$threads \
               "$REPRO" fig41_two_app --profile | grep '^profile:') || {
            echo "no profile line in repro fig41_two_app --profile output" >&2; exit 1;
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

# Scheduler-daemon gate: the online daemon session must be the same
# computation as the batch scheduler (byte-identical reports, stable
# across worker-thread counts), and the injected-fault session must be
# perfectly reproducible from its seed (DESIGN.md §13).
daemon_smoke() {
    step "daemon smoke (repro schedd_client --virtual: batch equivalence + fault determinism)"
    cargo build --release --bin repro
    local dir threads run ref=""
    dir=$(mktemp -d)
    for threads in 1 2 8; do
        GCS_SCALE=test GCS_THREADS=$threads "$REPRO" schedd_client --virtual \
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
        GCS_SCALE=test "$REPRO" schedd_client --virtual --jobs 10 \
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
# byte-identical to the single-GPU scheduler, and every TEST-scale report
# must equal its committed twin in tests/golden/fleet/ (DESIGN.md §14).
# repro fleet_sim itself asserts fleet STP > FCFS STP.
fleet_smoke() {
    step "fleet smoke (gcs-fleet suites: equivalence, conservation, determinism, oracle)"
    cargo test -q -p gcs-fleet
    step "fleet smoke (repro fleet_sim, GCS_SCALE=test: hom byte-diff + golden reports)"
    cargo build --release --bin repro
    GCS_SCALE=test "$REPRO" fleet_sim >/dev/null
    cmp results/fleet/fleet_hom_test_fleetpolicy.json \
        results/fleet/fleet_hom_test_ilp.json || {
        echo "homogeneous 1-device fleet report differs from single-GPU report" >&2
        exit 1
    }
    echo "  1-device FleetPolicy == IlpEpoch, byte-for-byte"
    for f in fleet_test_{fleet,fcfs}.json fleet_hom_test_{fleetpolicy,ilp}.json; do
        cmp "tests/golden/fleet/$f" "results/fleet/$f" || {
            echo "results/fleet/$f differs from tests/golden/fleet/$f" >&2; exit 1;
        }
    done
    echo "  four TEST-scale reports == tests/golden/fleet/"
    echo "fleet smoke passed"
}

if [ "$FLEET_SMOKE" -eq 1 ]; then
    fleet_smoke
    exit 0
fi

if [ "$TRACE_SMOKE" -eq 1 ]; then
    step "trace smoke (repro trace_record + trace_replay round trip, GCS_SCALE=test)"
    cargo build --release --bin repro
    TRACE_DIR=$(mktemp -d)
    trap 'rm -rf "$TRACE_DIR"' EXIT
    GCS_SCALE=test "$REPRO" trace_record BLK "$TRACE_DIR/blk.trace" \
        --json "$TRACE_DIR/blk.json"
    test -s "$TRACE_DIR/blk.trace" || { echo "empty trace file" >&2; exit 1; }
    test -s "$TRACE_DIR/blk.json" || { echo "empty trace json" >&2; exit 1; }
    REF=""
    for threads in 1 2 8; do
        LINE=$(GCS_CACHE=off GCS_SCALE=test GCS_THREADS=$threads \
               "$REPRO" trace_replay "$TRACE_DIR/blk.trace" | grep '^replay:') || {
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

# Every pub item under crates/*/src has a caller outside its own file
# or a justified line in scripts/pub_audit.allow (DESIGN.md "Public
# surface"). A text scan with no build, so it runs first in both gates.
step "public-surface audit (scripts/pub_audit.sh)"
scripts/pub_audit.sh

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

# One wire kernel (DESIGN.md "Wire kernel"): FNV-1a, JSON escaping, the
# float rule, the integer writer and its two-digit table are defined in
# crates/sim/src/wire.rs and nowhere else.
step "duplicate guard (one FNV-1a, one escaper, one float rule, one integer writer and digit table under crates/)"
BASIS=$(grep -rl 'cbf2_9ce4_8422_2325' crates)
if [ "$BASIS" != "crates/sim/src/wire.rs" ]; then
    echo "the FNV offset basis must occur in crates/sim/src/wire.rs only, found in:" >&2
    echo "$BASIS" >&2
    exit 1
fi
if grep -rnE 'fn (esc|escape_json|fmt_f64|push_u64|push_u32|push_usize|push_int|push_digits|itoa|write_u64|write_int|write_digits)\b' \
        crates --include='*.rs' | grep -v '^crates/sim/src/wire.rs:'; then
    echo "private escaper / float formatter / integer writer outside crates/sim/src/wire.rs" >&2
    exit 1
fi
if grep -rnE '0001020304|DIGIT_PAIRS|DEC_DIGITS_LUT' crates --include='*.rs' \
        | grep -v '^crates/sim/src/wire.rs:'; then
    echo "a second decimal digit table outside crates/sim/src/wire.rs" >&2
    exit 1
fi

# One scenario table (tests/README.md): the both-mode runner, the golden
# line renderer, the four-controller device and the shared fault plan are
# each defined once, in tests/common/scenario.rs.
step "duplicate guard (one engine-equivalence harness and one fixture set under tests/)"
for def in 'fn cycle_matches_horizon\b' 'fn stats_line\b' 'fn cfg4\b' \
        'mem_latency_window\(5_000, 20_000, 40, 80\)'; do
    FOUND=$(grep -rnE "$def" crates tests --include='*.rs')
    if [ "$(echo "$FOUND" | grep -c .)" -ne 1 ]; then
        echo "'$def' must be defined exactly once under crates/ and tests/, found:" >&2
        echo "$FOUND" >&2
        exit 1
    fi
done
# The integration suites' pipeline and profile fixtures are defined
# once, in tests/common/fixtures.rs.
for def in 'fn run_config\b' 'fn pipeline_with_engine\b' 'fn pipeline\b' 'fn profile_bits\b'; do
    FOUND=$(grep -rnE "$def" tests --include='*.rs')
    if [ "$(echo "$FOUND" | grep -c .)" -ne 1 ]; then
        echo "'$def' must be defined exactly once under tests/, found:" >&2
        echo "$FOUND" >&2
        exit 1
    fi
done

# One wake calendar (DESIGN.md §8, "Active-SM stepping"): the device's
# SM wakes and each SM's warp wakes share the one WakeRing, and no
# binary heap of sleepers comes back beside it.
step "wake-calendar guard (one WakeRing, no sleeper heap)"
if grep -nE 'BinaryHeap' crates/sim/src/sm.rs crates/sim/src/activity.rs; then
    echo "a BinaryHeap is back in sm.rs or activity.rs (the sleepers live in a WakeRing)" >&2
    exit 1
fi
FOUND=$(grep -rnE 'struct WakeRing\b' crates --include='*.rs')
if [ "$(echo "$FOUND" | grep -c .)" -ne 1 ]; then
    echo "'struct WakeRing' must be defined exactly once under crates/, found:" >&2
    echo "$FOUND" >&2
    exit 1
fi

# One event loop (DESIGN.md §14): the scheduler's completions →
# admissions → dispatch loop is defined in crates/sched/src/daemon.rs
# alone, and the fleet's churn map once.
step "one-event-loop guard (pump_until and free_completions in daemon.rs only, one ChurnMap)"
if grep -rnE 'fn (pump_until|free_completions)\b' crates --include='*.rs' \
        | grep -v '^crates/sched/src/daemon.rs:'; then
    echo "an event loop is defined outside crates/sched/src/daemon.rs" >&2
    exit 1
fi
FOUND=$(grep -rnE 'struct ChurnMap\b' crates --include='*.rs')
if [ "$(echo "$FOUND" | grep -c .)" -ne 1 ]; then
    echo "'struct ChurnMap' must be defined exactly once under crates/, found:" >&2
    echo "$FOUND" >&2
    exit 1
fi

# Deleted names stay deleted: the sharded lanes of the one stepping
# engine (DESIGN.md §12), their thread lease and knobs, the surface the
# public-surface audit removed (LP text format, window trace recorder,
# debug_* binaries, cache GC script), the fleet's own event loop, the
# solver's per-node problem copies and per-plan queue snapshot, the
# legacy `cargo bench` instrument (benchmark/ is the only one), the
# tombstoned DRAM queue the per-bank lists replaced (DESIGN.md §8), and
# the sweep retry layer (deterministic jobs replay their failure).
# CHANGES.md and ROADMAP.md are history and may name them.
step "deleted-name guard (no sharded-lane, audited-away, second-loop, per-node-clone, legacy-bench, tombstone-queue or retry-layer names)"
GONE='ShardCell|MemShard|ShardSink|ShardCtl|ThreadedExec|issue_prepare|issue_more'
GONE="$GONE|resolve_pending|PendingAccess|run_sharded|ShardLease|set_shards"
GONE="$GONE|set_mem_shards|set_shard_workers|with_sim_threads|GCS_SIM_THREADS|shard_smoke"
GONE="$GONE|WindowTrace|parse_lp|to_lp_string|gc_cache|debug_counters|debug_pair|debug_queue"
GONE="$GONE|pump_to|track_churn|dispatch_marginal|dispatch_fcfs"
GONE="$GONE|as_max_problem|best_objective_max|LpSolution|pending_vec"
GONE="$GONE|scripts/bench\.sh|BENCH_sim|BENCH_sched|gcs_bench::timing|BENCH_JSON|bench-smoke"
GONE="$GONE|\[\[bench\]\]"
GONE="$GONE|Option<DramEntry>|VecDeque<Option<|retain\(Option::is_some\)"
GONE="$GONE|RetryPolicy|with_retry_policy|JobRetried"
if grep -rnE "$GONE" crates tests scripts README.md DESIGN.md EXPERIMENTS.md \
        .claude/skills/verify/SKILL.md --exclude=ci.sh; then
    echo "a deleted name is back (see the matches above)" >&2
    exit 1
fi

# One binary (DESIGN.md §4): every table, figure and tool is a `repro`
# subcommand. No cargo `--bin` target other than repro, and no path to one
# of the 23 binaries it replaced, may come back. Only the current-code
# documents are searched: CHANGES.md and ROADMAP.md are history.
step "one-binary guard (no cargo bin target but repro, no old binary paths)"
OLD_BINS='ablation|appendix_a|fig12_utilization|fig34_interference|fig35_scalability'
OLD_BINS="$OLD_BINS|fig36_ipc_cores|fig41_two_app|fig42_pair_cycles|fig43_two_app_dist"
OLD_BINS="$OLD_BINS|fig44_equal_perapp|fig45_48_dense|fig49_three_app|fig410_group_cycles"
OLD_BINS="$OLD_BINS|fig411_three_app_dist|fig412_three_perapp|fig_table32|fleet_sim"
OLD_BINS="$OLD_BINS|headline|schedd|schedd_client|schedd_sim|trace_record|trace_replay"
if grep -rnP -e "--bin\s+(?!repro\b)\S|target/release/($OLD_BINS)\b" \
        crates tests scripts examples README.md DESIGN.md EXPERIMENTS.md \
        .claude/skills/verify/SKILL.md; then
    echo "a cargo bin target other than repro, or an old binary path, is back" >&2
    exit 1
fi

daemon_smoke
sched_smoke
fleet_smoke

step "benchmark smoke (benchmark/smoke.sh: seven workloads, golden digests)"
benchmark/smoke.sh

echo
echo "full gate passed"
