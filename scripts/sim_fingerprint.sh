#!/usr/bin/env bash
# Writes a fingerprint of one build's simulated runs, so two builds can be
# shown to behave identically on the deterministic simulator:
#
#   scripts/sim_fingerprint.sh build-a out-a
#   scripts/sim_fingerprint.sh build-b out-b
#   diff -r out-a out-b        # empty output: byte-identical runs
#
# <out-dir>/fig7/   bench_fig7_lan --block 100 --sizes 40 --workers 0,4:
#                   stdout, the --json-out summary and the --metrics-out file
# <out-dir>/chaos/  the 24 per-seed dumps of the randomized chaos sweep
#                   (BFT_CHAOS_METRICS_DIR)
#
# The build directory must contain bench/bench_fig7_lan and tests/chaos_test.
# Takes a few minutes; not registered with ctest because a comparison needs
# two builds.
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <build-dir> <out-dir>" >&2
  exit 2
fi
build=$(cd "$1" && pwd)
out=$2

for bin in bench/bench_fig7_lan tests/chaos_test; do
  if [[ ! -x "$build/$bin" ]]; then
    echo "missing $build/$bin (build the tree first)" >&2
    exit 2
  fi
done

mkdir -p "$out/fig7" "$out/chaos"
out=$(cd "$out" && pwd)

# Relative output names keep the out-dir path out of the bench's stdout.
(cd "$out/fig7" && "$build/bench/bench_fig7_lan" --block 100 --sizes 40 \
  --workers 0,4 --json-out summary.json --metrics-out metrics.json \
  > stdout.txt)

# The gtest log carries wall-clock timings, so it stays out of the out-dir.
log=$(mktemp)
trap 'rm -f "$log"' EXIT
if ! BFT_CHAOS_METRICS_DIR="$out/chaos" "$build/tests/chaos_test" \
    --gtest_filter='ChaosSweepTest.RandomizedFaultScenariosPreserveInvariants' \
    > "$log" 2>&1; then
  tail -n 40 "$log" >&2
  echo "chaos sweep failed" >&2
  exit 1
fi

dumps=$(find "$out/chaos" -name 'chaos_*.json' | wc -l)
echo "fingerprint written to $out (fig7 + $dumps chaos dumps)"
