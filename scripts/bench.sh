#!/usr/bin/env bash
# Simulator + scheduler performance benchmark runner.
#
# Runs the simulator micro-benchmarks plus one fixed cold reference
# sweep and writes the results to BENCH_sim.json in the repo root:
#
#   {
#     "benches":    { "<name>": {"mean_ns": N, "min_ns": N,
#                                "sim_threads": 1, "sm_shards": 1,
#                                "mem_shards": 1}, ... },
#     "cold_sweep": { "name": "...", "wall_seconds": S, "sim_threads": 1, ... }
#   }
#
# Every simulation steps on one thread, so each entry carries the plan
# stamp 1/1/1. The stamp stays so that committed baselines keep
# comparing: the gate below skips any bench whose recorded
# sim_threads/sm_shards/mem_shards differ from the baseline's.
#
# It then runs the online-scheduler micro-benchmarks (epoch planning
# cost per policy, warm-cache event loop, plus the fleet/ family:
# marginal-gain allocation over a warmed predictor and the warm-cache
# heterogeneous fleet loop) the same way into BENCH_sched.json, gated
# against its own committed baseline with the same min_ns tolerance.
#
# Usage:
#   scripts/bench.sh            full run (~200 ms x 3 samples per bench)
#   scripts/bench.sh --smoke    fast sanity pass (~25 ms x 1 sample);
#                               numbers are noisy, only checks that every
#                               benchmark still runs and emits JSON
#
# A full run also compares the fresh numbers against the committed
# baselines: every device bench runs with no fault plan installed, so
# the fault-injection layer must stay zero-cost on the healthy path
# (one branch per step). Both families (BENCH_sim.json and
# BENCH_sched.json) go through the one gate below, which prints the
# full per-bench min_ns delta table and fails if any bench exceeds its
# tolerance. Tolerance resolution, per bench:
#   1. a per-bench override in BENCH_TOLERANCES ("name=2.0,name=2.5")
#   2. BENCH_TOLERANCE (default 1.6x, generous for shared machines)
# Regressions smaller than BENCH_NOISE_FLOOR_NS (default 50 ns) never
# fail regardless of the ratio: single-digit-ns benches (the scheduler
# picks) sit at the timer's resolution, where 1 ns -> 2 ns is
# quantization, not a regression. Smoke runs skip the comparison.
#
# Offline by construction, like scripts/ci.sh.

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true
export BENCH_JSON=1

SMOKE=0
for arg in "$@"; do
    case "$arg" in
        --smoke) SMOKE=1 ;;
        *) echo "usage: scripts/bench.sh [--smoke]" >&2; exit 2 ;;
    esac
done

if [ "$SMOKE" -eq 1 ]; then
    export BENCH_TARGET_MS=25
    export BENCH_SAMPLES=1
fi

OUT=BENCH_sim.json
SCHED_OUT=BENCH_sched.json
RAW=$(mktemp)
BASELINE=$(mktemp)
SCHED_RAW=$(mktemp)
SCHED_BASELINE=$(mktemp)
trap 'rm -f "$RAW" "$BASELINE" "$SCHED_RAW" "$SCHED_BASELINE"' EXIT

# The one regression gate shared by both benchmark families. Gates the
# fresh min_ns numbers in $2 against the baseline snapshot in $1 and
# always prints the full per-bench delta table so a failing run shows
# every bench, not just the offender. min_ns is the least noisy
# statistic; benches absent from the baseline pass as "new".
gate_against_baseline() {  # $1 = baseline json, $2 = fresh json
    awk -v deftol="${BENCH_TOLERANCE:-1.6}" -v overrides="${BENCH_TOLERANCES:-}" \
        -v floor="${BENCH_NOISE_FLOOR_NS:-50}" '
        function tol_for(name) { return (name in tolmap) ? tolmap[name] : deftol }
        function field(line, key,   v) {
            # Numeric field extractor; absent keys (entries written
            # before the field was recorded) count as the default
            # unsharded setting.
            if (line !~ ("\"" key "\"")) return 1
            v = line
            sub(".*\"" key "\": ", "", v); sub(/[^0-9].*/, "", v)
            return v
        }
        function parse(line,   name, min, plan) {
            name = line; sub(/^[[:space:]]*"/, "", name); sub(/".*/, "", name)
            min = line; sub(/.*"min_ns": /, "", min); sub(/[^0-9].*/, "", min)
            # The shard plan the entry was measured under: worker
            # threads / SM shards / memory shards. Any difference makes
            # wall-clock deltas meaningless, so the gate skips rather
            # than compares.
            plan = field(line, "sim_threads") "/" field(line, "sm_shards") \
                   "/" field(line, "mem_shards")
            return name SUBSEP min SUBSEP plan
        }
        BEGIN {
            n = split(overrides, pairs, ",")
            for (i = 1; i <= n; i++)
                if (split(pairs[i], kv, "=") == 2) tolmap[kv[1]] = kv[2]
        }
        /"min_ns"/ {
            split(parse($0), kv, SUBSEP)
            if (NR == FNR) { base[kv[1]] = kv[2]; base_st[kv[1]] = kv[3]; next }
            order[++m] = kv[1]; fresh[kv[1]] = kv[2]; fresh_st[kv[1]] = kv[3]
        }
        END {
            printf "  %-52s %14s %14s %8s  %s\n",
                   "bench", "baseline", "fresh", "delta", "gate"
            for (i = 1; i <= m; i++) {
                name = order[i]; cur = fresh[name] + 0
                if (!(name in base) || base[name] + 0 <= 0) {
                    printf "  %-52s %14s %14d %8s  new\n", name, "-", cur, "-"
                    continue
                }
                if (base_st[name] != fresh_st[name]) {
                    printf "  %-52s %14d %14d %8s  skip (plan %s -> %s)\n",
                           name, base[name], cur, "-",
                           base_st[name], fresh_st[name]
                    continue
                }
                ref = base[name] + 0
                t = tol_for(name)
                if (cur > ref * t && cur - ref > floor) {
                    verdict = sprintf("FAIL (>%sx)", t); bad = 1
                } else if (cur > ref * t) {
                    verdict = sprintf("ok (+%dns < noise floor)", cur - ref)
                } else {
                    verdict = sprintf("ok (<=%sx)", t)
                }
                printf "  %-52s %14d %14d %+7.1f%%  %s\n",
                       name, ref, cur, (cur / ref - 1) * 100, verdict
            }
            exit bad
        }
    ' "$1" "$2"
}

# Snapshot the committed baselines before overwriting them.
HAVE_BASELINE=0
if [ "$SMOKE" -eq 0 ] && [ -f "$OUT" ]; then
    cp "$OUT" "$BASELINE"
    HAVE_BASELINE=1
fi
HAVE_SCHED_BASELINE=0
if [ "$SMOKE" -eq 0 ] && [ -f "$SCHED_OUT" ]; then
    cp "$SCHED_OUT" "$SCHED_BASELINE"
    HAVE_SCHED_BASELINE=1
fi

echo "==> cargo bench --bench simulator"
cargo bench --bench simulator | tee "$RAW"

# Fixed cold reference sweep: the fig. 4.1 pipeline at TEST scale with
# the on-disk memo cache disabled, so the simulator (not the cache) is
# what gets timed. TEST scale keeps this a seconds-long sanity point;
# the CHANGES.md wall-clock entries use the full SMALL-scale run.
echo "==> cold reference sweep (repro fig41_two_app, GCS_SCALE=test, cache off)"
cargo build --release --bin repro >/dev/null
SWEEP_T0=$(date +%s.%N)
GCS_CACHE=off GCS_SCALE=test ./target/release/repro fig41_two_app >/dev/null
SWEEP_T1=$(date +%s.%N)
SWEEP_SECS=$(awk -v a="$SWEEP_T0" -v b="$SWEEP_T1" 'BEGIN { printf "%.3f", b - a }')

# Collect the BENCH_JSON lines into one document, stamping each entry
# with the one-thread plan 1/1/1.
PLAN=', "sim_threads": 1, "sm_shards": 1, "mem_shards": 1'
awk -v sweep_secs="$SWEEP_SECS" -v plan="$PLAN" '
    /^BENCH_JSON / {
        line = substr($0, 12)
        # {"name":"X","mean_ns":N,"min_ns":M}
        name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        mean = line; sub(/.*"mean_ns":/, "", mean); sub(/,.*/, "", mean)
        min  = line; sub(/.*"min_ns":/,  "", min);  sub(/}.*/, "", min)
        entry = "    \"" name "\": {\"mean_ns\": " mean ", \"min_ns\": " min plan "}"
        entries = entries (entries == "" ? "" : ",\n") entry
    }
    END {
        print "{"
        print "  \"benches\": {"
        print entries
        print "  },"
        print "  \"cold_sweep\": {"
        print "    \"name\": \"fig41_two_app (GCS_SCALE=test, GCS_CACHE=off)\","
        print "    \"wall_seconds\": " sweep_secs ","
        print "    \"sim_threads\": 1,"
        print "    \"sm_shards\": 1,"
        print "    \"mem_shards\": 1"
        print "  }"
        print "}"
    }
' "$RAW" > "$OUT"

echo
echo "wrote $OUT ($(grep -c mean_ns "$OUT") benches, cold sweep ${SWEEP_SECS}s)"

# Regression gate vs the previous baseline (fault layer must stay
# zero-cost on the healthy path; min_ns is the least noisy statistic).
if [ "$HAVE_BASELINE" -eq 1 ]; then
    echo "==> regression check vs committed baseline (tolerance ${BENCH_TOLERANCE:-1.6}x)"
    gate_against_baseline "$BASELINE" "$OUT" || {
        echo "benchmark regression vs BENCH_sim.json baseline" >&2
        exit 1
    }
    echo "no regressions"
fi

# Online-scheduler benchmarks, collected and gated the same way.
echo
echo "==> cargo bench --bench sched"
cargo bench --bench sched | tee "$SCHED_RAW"

awk -v plan="$PLAN" '
    /^BENCH_JSON / {
        line = substr($0, 12)
        name = line; sub(/.*"name":"/, "", name); sub(/".*/, "", name)
        mean = line; sub(/.*"mean_ns":/, "", mean); sub(/,.*/, "", mean)
        min  = line; sub(/.*"min_ns":/,  "", min);  sub(/}.*/, "", min)
        entry = "    \"" name "\": {\"mean_ns\": " mean ", \"min_ns\": " min plan "}"
        entries = entries (entries == "" ? "" : ",\n") entry
    }
    # Daemon decision sidecar (decisions_per_sec, p50/p99 decision
    # latency) — informational, not gated: throughput moves the other
    # way from min_ns, so the regression gate above must not see it.
    /^BENCH_DAEMON_JSON / { daemon = substr($0, 19) }
    END {
        print "{"
        print "  \"benches\": {"
        print entries
        if (daemon != "") {
            print "  },"
            print "  \"daemon\": " daemon
        } else {
            print "  }"
        }
        print "}"
    }
' "$SCHED_RAW" > "$SCHED_OUT"

echo
echo "wrote $SCHED_OUT ($(grep -c mean_ns "$SCHED_OUT") benches)"

if [ "$HAVE_SCHED_BASELINE" -eq 1 ]; then
    echo "==> regression check vs committed baseline (tolerance ${BENCH_TOLERANCE:-1.6}x)"
    gate_against_baseline "$SCHED_BASELINE" "$SCHED_OUT" || {
        echo "benchmark regression vs BENCH_sched.json baseline" >&2
        exit 1
    }
    echo "no regressions"
fi
