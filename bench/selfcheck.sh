#!/usr/bin/env bash
# Self-agreement of the ledger: do two sets of runs of the SAME code
# agree with each other within the ledger's own bounds?
#
#   bench/selfcheck.sh [runs-per-set (default 10)] [first seed (default 1)]
#
# Run i of either set uses seed (first seed + i - 1), as the driver of
# BENCHMARK.json gives every run of a set another seed. The two sets
# are interleaved (a1 b1 a2 b2 ...) so that slow drift of the machine
# falls on both alike. For every workload and end-to-end metric it
# prints both set medians, their gap, each set's quartile spread, and
# the largest distance of any run from the median of its own set. It
# fails if, on a workload BENCHMARK.json gates, a gap or a spread
# exceeds the metric's bound or a run lies more than 10 % from its set
# median (setup_s excepted from the last two, as the driver excepts
# it), if any run's outputs were wrong, or if the two runs of a seed
# disagree on the verdict checksum. drift_learn is run and tabled the
# same way, but of it only the outputs are judged: a run whose outputs
# are wrong exits 1 and stops this script (bench/NOISE.md says why).
# The table it prints is what bench/NOISE.md records.
set -euo pipefail
cd "$(dirname "$0")/.."

runs=${1:-10}
seed=${2:-1}
gated="day_serve arrival_storm flash_state"
workloads="$gated drift_learn"
out=bench/out/selfcheck
rm -rf "$out"
mkdir -p "$out"

cargo build --release --offline --manifest-path bench/Cargo.toml
bin=${CARGO_TARGET_DIR:-bench/target}/release/exbox-ledger

for i in $(seq 1 "$runs"); do
    for set in a b; do
        for w in $workloads; do
            "$bin" --workload "$w" --seed $((seed + i - 1)) \
                --report "$out/$w.$set$i.json" >"$out/$w.$set$i.log"
        done
    done
done

status=0
echo "| workload | metric | unit | median A | median B | gap | spread A | spread B | bound | farthest run | verdict |"
echo "|---|---|---|---|---|---|---|---|---|---|---|"
for w in $gated; do
    "$bin" agree "$out/$w".a*.json -- "$out/$w".b*.json || status=1
done
"$bin" agree "$out"/drift_learn.a*.json -- "$out"/drift_learn.b*.json || true
exit $status
