#!/usr/bin/env bash
# Two-process replica-sync demo and regression test
# (docs/distributed.md). Phase 1 trains against a live rlcut_replica
# worker and checks the two processes agree on the final plan
# fingerprint. Phase 2 SIGKILLs the worker mid-run and restarts it
# empty on the same port: the client must reconnect, detect the version
# gap, heal via snapshot resync, and still end synced, with the
# restarted worker at the tool's fingerprint. Phase 3 serves a
# stream with the worker attached: the worker must end at the last
# published version, with that plan's fingerprint.
#
#   tools/net_demo.sh <rlcut_replica> <rlcut_tool> <rlcut_serve>
set -u

usage="usage: net_demo.sh <rlcut_replica> <rlcut_tool> <rlcut_serve>"
REPLICA_BIN=${1:?$usage}
TOOL_BIN=${2:?$usage}
SERVE_BIN=${3:?$usage}

workdir=$(mktemp -d "${TMPDIR:-/tmp}/rlcut_net_demo.XXXXXX")
replica_pid=""
cleanup() {
  if [[ -n "$replica_pid" ]]; then
    kill -TERM "$replica_pid" 2>/dev/null
    wait "$replica_pid" 2>/dev/null
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

fail() {
  echo "FAIL: $*" >&2
  echo "---- replica log ----" >&2
  cat "$workdir"/replica*.log >&2 2>/dev/null
  echo "---- tool log ----" >&2
  cat "$workdir"/tool*.log >&2 2>/dev/null
  echo "---- serve log ----" >&2
  cat "$workdir"/serve*.log >&2 2>/dev/null
  exit 1
}

# Starts a replica worker and waits for its listening line.
# start_replica <log file> <port (0 = ephemeral)>; sets replica_pid and
# replica_port.
start_replica() {
  local log=$1 port=$2
  "$REPLICA_BIN" --port="$port" >"$log" 2>&1 &
  replica_pid=$!
  replica_port=""
  for _ in $(seq 1 100); do
    replica_port=$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
                   "$log" | head -n1)
    [[ -n "$replica_port" ]] && return 0
    kill -0 "$replica_pid" 2>/dev/null || fail "replica died on startup"
    sleep 0.1
  done
  fail "replica never printed its port"
}

# ---- Phase 1: clean run; fingerprints must agree ----------------------
start_replica "$workdir/replica1.log" 0

"$TOOL_BIN" --gen_vertices=2048 --gen_edges=8192 --dcs=4 --method=RLCut \
    --t_opt=0.5 --replica_endpoint=127.0.0.1:"$replica_port" \
    >"$workdir/tool1.log" 2>&1 \
  || fail "phase 1: rlcut_tool exited non-zero"
grep -q "Replica 127.0.0.1:$replica_port: synced" "$workdir/tool1.log" \
  || fail "phase 1: tool did not report a synced replica"
tool_fp=$(sed -n 's/.*fingerprint \([0-9a-f]\{16\}\).*/\1/p' \
          "$workdir/tool1.log" | head -n1)

kill -TERM "$replica_pid" && wait "$replica_pid" 2>/dev/null
replica_pid=""
replica_fp=$(sed -n 's/.*replica final: v[0-9]* fingerprint \([0-9a-f]\{16\}\).*/\1/p' \
             "$workdir/replica1.log" | head -n1)
[[ -n "$tool_fp" && "$tool_fp" == "$replica_fp" ]] \
  || fail "phase 1: fingerprint mismatch (tool=$tool_fp replica=$replica_fp)"
echo "phase 1 ok: both processes at fingerprint $tool_fp"

# ---- Phase 2: kill the worker mid-run, restart empty, must resync ----
start_replica "$workdir/replica2.log" 0
fixed_port=$replica_port

# Unstalled, this run ends in a few hundredths of a second, long before
# the kill below. The armed stall sites hold every batch's scoring for
# ~10 ms, so the run lasts seconds and the kill lands mid-run; four
# threads make the helper-side site fire on any host.
"$TOOL_BIN" --gen_vertices=2048 --gen_edges=8192 --dcs=4 --method=RLCut \
    --t_opt=6 --threads=4 --replica_endpoint=127.0.0.1:"$fixed_port" \
    --faults='threadpool.caller_stall:prob=1,amount=10;threadpool.worker_stall:prob=1,amount=10' \
    >"$workdir/tool2.log" 2>&1 &
tool_pid=$!

sleep 2
kill -9 "$replica_pid" 2>/dev/null
wait "$replica_pid" 2>/dev/null
# Restart empty on the same port: the reconnecting client sees a
# version gap and must heal with a full snapshot.
start_replica "$workdir/replica3.log" "$fixed_port"

wait "$tool_pid" || fail "phase 2: rlcut_tool exited non-zero"
grep -q "Replica 127.0.0.1:$fixed_port: synced" "$workdir/tool2.log" \
  || fail "phase 2: tool did not report a synced replica"
heals=$(sed -n 's/.*synced.* \([0-9]*\) resyncs, \([0-9]*\) reconnects.*/\1 \2/p' \
        "$workdir/tool2.log" | head -n1)
read -r resyncs reconnects <<<"$heals"
# The first dial and Begin snapshot account for one of each; the kill
# must add a reconnect and the restarted, empty worker a resync.
[[ "${resyncs:-0}" -ge 2 && "${reconnects:-0}" -ge 2 ]] \
  || fail "phase 2: the kill left no resync and reconnect (got '$heals')"
tool_fp=$(sed -n 's/.*synced.*fingerprint \([0-9a-f]\{16\}\).*/\1/p' \
          "$workdir/tool2.log" | head -n1)
kill -TERM "$replica_pid" && wait "$replica_pid" 2>/dev/null
replica_pid=""
replica_fp=$(sed -n 's/.*replica final: v[0-9]* fingerprint \([0-9a-f]\{16\}\).*/\1/p' \
             "$workdir/replica3.log" | head -n1)
[[ -n "$tool_fp" && "$tool_fp" == "$replica_fp" ]] \
  || fail "phase 2: restarted worker at '$replica_fp', tool at '$tool_fp'"
echo "phase 2 ok: survived kill/restart ($resyncs resyncs," \
     "$reconnects reconnects), restarted worker at fingerprint $tool_fp"

# ---- Phase 3: a serving session replicates every published plan ------
start_replica "$workdir/replica4.log" 0

"$SERVE_BIN" --vertices=1024 --edges=6144 --quiet \
    --replica_endpoint=127.0.0.1:"$replica_port" \
    >"$workdir/serve.log" 2>&1 \
  || fail "phase 3: rlcut_serve exited non-zero"
published=$(sed -n "s/^replica 127\.0\.0\.1:$replica_port: synced, published v\([0-9]*\) fingerprint \([0-9a-f]\{16\}\).*/\1 \2/p" \
            "$workdir/serve.log" | head -n1)
[[ -n "$published" ]] || fail "phase 3: serve did not report a synced replica"

kill -TERM "$replica_pid" && wait "$replica_pid" 2>/dev/null
replica_pid=""
final=$(sed -n 's/.*replica final: v\([0-9]*\) fingerprint \([0-9a-f]\{16\}\).*/\1 \2/p' \
        "$workdir/replica4.log" | head -n1)
[[ "$published" == "$final" ]] \
  || fail "phase 3: replica holds '$final', serve published '$published'"
echo "phase 3 ok: replica holds published plan v${published% *}" \
     "(fingerprint ${published#* })"
