#!/usr/bin/env bash
# Run the model-checking suites under the vendored exbox-loom explorer.
#
# Usage:
#   scripts/loom_check.sh               # bounded smoke (preemption bound 2)
#   EXBOX_LOOM_EXHAUSTIVE=1 scripts/loom_check.sh   # lift the bound (nightly)
#
# Counterexample traces are dumped to $EXBOX_LOOM_TRACE_DIR (default:
# target/loom-traces at the repo root). The path is made absolute
# before the suites run because cargo test executes each test binary
# with the *crate* directory as CWD — a relative trace dir would
# scatter dumps across crates/*/.
#
# Each trace file replays the exact failing schedule:
#   EXBOX_LOOM_REPLAY="$(tail -1 trace)" RUSTFLAGS='--cfg exbox_loom' \
#     cargo test -p exbox-core --lib <failing test name>
set -euo pipefail
cd "$(dirname "$0")/.."

TRACE_DIR="${EXBOX_LOOM_TRACE_DIR:-target/loom-traces}"
mkdir -p "$TRACE_DIR"
export EXBOX_LOOM_TRACE_DIR="$(cd "$TRACE_DIR" && pwd)"

export RUSTFLAGS="${RUSTFLAGS:-} --cfg exbox_loom"

echo "== exbox-loom self-tests (explorer properties, shim differential)"
cargo test -q -p exbox-loom

echo "== gateway models (snapshot publish order + count/value, shard merge, tally cells, SPSC ring)"
cargo test -q -p exbox-core --lib

echo "== exbox-obs under the loom cfg (atomics shim compiles + behaves)"
cargo test -q -p exbox-obs --lib

echo "loom check passed (traces, if any, under $EXBOX_LOOM_TRACE_DIR)"
