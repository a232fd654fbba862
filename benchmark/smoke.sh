#!/usr/bin/env bash
# Quick pass before a full run: every workload for a tenth of the time
# (one set-up, at least one timed sample), golden digests still checked.
# About 20 s once built. Extra arguments go to `run` (e.g. --trace).
set -euo pipefail
cd "$(dirname "$0")/.."
exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick "$@"
