#!/usr/bin/env bash
# End-to-end multi-process smoke test: launches a 4-node f=1 ordering cluster,
# a long-lived receiver frontend and per-phase submitter frontends as SEPARATE
# OS PROCESSES talking TCP over localhost. Verifies 6 blocks are delivered
# (each accepted only on 2f+1 matching signed copies), with one node killed
# and restarted mid-stream. Exits 0 on success.
#
# With --kill9 the mid-stream kill is a SIGKILL fired while a submitter is
# actively loading the cluster (a power-fail stand-in: no destructors, no
# flush), and the restarted node must report a restart-from-disk replay
# (`replayed=` > 0 in its startup banner) before the run may pass.
#
# On failure every process's log (nodes, restarted node, receiver) is printed
# to stderr.
#
# Usage: scripts/run_local_cluster.sh [build-dir] [--kill9]   (default: build)
set -euo pipefail

BUILD_DIR="build"
KILL9=0
for arg in "$@"; do
  case "$arg" in
    --kill9) KILL9=1 ;;
    *) BUILD_DIR="$arg" ;;
  esac
done
NODE_BIN="$BUILD_DIR/examples/bft_node"
FRONTEND_BIN="$BUILD_DIR/examples/bft_frontend"
for bin in "$NODE_BIN" "$FRONTEND_BIN"; do
  if [[ ! -x "$bin" ]]; then
    echo "missing $bin — build first: cmake -B $BUILD_DIR -S . && cmake --build $BUILD_DIR -j" >&2
    exit 2
  fi
done

WORK_DIR="$(mktemp -d)"
CONFIG="$WORK_DIR/cluster.cfg"
RECEIVER_LOG="$WORK_DIR/receiver.log"
declare -a NODE_PIDS=()
RECEIVER_PID=""
RESTARTED_PID=""

cleanup() {
  local status=$? pid log
  for pid in "${NODE_PIDS[@]:-}" "$RECEIVER_PID" "$RESTARTED_PID"; do
    [[ -n "$pid" ]] && kill "$pid" 2>/dev/null || true
  done
  wait 2>/dev/null || true
  if (( status != 0 )); then
    for log in "$WORK_DIR"/*.log; do
      [[ -f "$log" ]] || continue
      echo "----- $(basename "$log") -----" >&2
      cat "$log" >&2
    done
  fi
  rm -rf "$WORK_DIR"
}
trap cleanup EXIT

# Random port base keeps concurrent runs (CI, sanitizer configs) apart.
BASE=$((20000 + RANDOM % 20000))
{
  echo "# generated by run_local_cluster.sh"
  for i in 0 1 2 3; do
    echo "node $i 127.0.0.1:$((BASE + i))"
  done
  echo "frontend 100 127.0.0.1:$((BASE + 100))"   # long-lived receiver
  # One submitter id per phase: replicas dedup requests by (client id, seq),
  # and a fresh submitter process restarts its sequence numbers at 1.
  for i in 101 102 103; do
    echo "frontend $i 127.0.0.1:$((BASE + i))"
  done
} > "$CONFIG"
echo "== topology ($CONFIG)"
cat "$CONFIG"

# Polls the receiver's log until it reports block #N (or the script times out).
wait_for_block() {
  local n="$1" deadline=$((SECONDS + 60))
  while ! grep -q "^block #$n " "$RECEIVER_LOG" 2>/dev/null; do
    if (( SECONDS >= deadline )); then
      echo "timed out waiting for block #$n" >&2
      exit 1
    fi
    if [[ -n "$RECEIVER_PID" ]] && ! kill -0 "$RECEIVER_PID" 2>/dev/null; then
      echo "receiver died" >&2
      exit 1
    fi
    sleep 0.2
  done
}

submit() {
  local id="$1" count="$2"
  "$FRONTEND_BIN" --config "$CONFIG" --id "$id" \
    --submit "$count" --no-receive --linger-ms 1500
}

# Data dirs live under the per-run temp dir: runs must not inherit another
# run's WAL/checkpoints (replayed client dedup windows would swallow the
# fresh submitters' envelopes).
start_node() {
  local i="$1" log="$2"
  "$NODE_BIN" --config "$CONFIG" --id "$i" \
    --data-dir "$WORK_DIR/data/node$i" > "$log" 2>&1 &
}

echo "== starting 4 ordering nodes"
for i in 0 1 2 3; do
  start_node "$i" "$WORK_DIR/node$i.log"
  NODE_PIDS[$i]=$!
done

echo "== starting receiver frontend (expects 6 blocks over all phases)"
"$FRONTEND_BIN" --config "$CONFIG" --id 100 \
  --expect-blocks 6 --timeout-sec 180 > "$RECEIVER_LOG" 2>&1 &
RECEIVER_PID=$!

echo "== phase 1: submit 20 envelopes -> blocks #1,#2 (2f+1 copies each)"
submit 101 20

wait_for_block 2

if (( KILL9 )); then
  # Block #2's delivery only proves 2f+1 nodes executed; make sure node 3
  # itself persisted decisions before we pull its plug, or the restart has
  # nothing to replay.
  deadline=$((SECONDS + 30))
  until find "$WORK_DIR/data/node3/wal" -name 'wal-*.seg' -size +8c 2>/dev/null \
      | grep -q .; do
    if (( SECONDS >= deadline )); then
      echo "node 3 never wrote a WAL record" >&2
      exit 1
    fi
    sleep 0.2
  done
  echo "== phase 2: SIGKILL node 3 (pid ${NODE_PIDS[3]}) mid-load; no shutdown path runs"
  submit 102 20 &
  SUBMIT_PID=$!
  sleep 0.3
  kill -9 "${NODE_PIDS[3]}"
  wait "${NODE_PIDS[3]}" 2>/dev/null || true
  NODE_PIDS[3]=""
  wait "$SUBMIT_PID"
else
  echo "== killing node 3 (pid ${NODE_PIDS[3]}); 3 = 2f+1 nodes remain"
  kill "${NODE_PIDS[3]}"
  wait "${NODE_PIDS[3]}" 2>/dev/null || true
  NODE_PIDS[3]=""

  echo "== phase 2: service must keep cutting blocks with one node down"
  submit 102 20
fi

wait_for_block 4

echo "== restarting node 3 (same data dir: it must resume from disk)"
start_node 3 "$WORK_DIR/node3-restart.log"
RESTARTED_PID=$!

if (( KILL9 )); then
  # Recovery runs inside startup; the banner prints what disk contributed.
  deadline=$((SECONDS + 30))
  until grep -q "replayed=" "$WORK_DIR/node3-restart.log" 2>/dev/null; do
    if (( SECONDS >= deadline )); then
      echo "restarted node never reported storage recovery" >&2
      exit 1
    fi
    sleep 0.2
  done
  if ! grep -q "replayed=[1-9]" "$WORK_DIR/node3-restart.log"; then
    echo "restarted node did not replay any decisions from its WAL" >&2
    exit 1
  fi
  grep "storage:" "$WORK_DIR/node3-restart.log"
fi

echo "== phase 3: blocks still delivered after the restart"
submit 103 20

wait_for_block 6

# The receiver exits 0 once its 6th block arrived and the chain verified.
if ! wait "$RECEIVER_PID"; then
  echo "receiver failed" >&2
  exit 1
fi
RECEIVER_PID=""
cat "$RECEIVER_LOG"
echo "== OK: multi-process cluster delivered 6 blocks through kill + restart"
