#!/usr/bin/env bash
# Hard-crash torture of the serve daemon: repeatedly SIGKILL it with a
# keyed stream mid-flight (periodic checkpoints enabled), restart it
# on the same checkpoint directory, RESUME, and require the merged
# final reports to be byte-identical to a one-shot sequential run.
# Also covers recovery of a stream killed before its first checkpoint
# (fresh re-admit at offset 0) and recovery stats over the wire.
#
# Registered with CTest (label "serve"); $1 is papsim. Env knobs:
#   CYCLES        kill -9 / restart cycles (default 3)
#   EXTRA_FAULTS  extra --inject-faults spec for the daemon, e.g.
#                 "disconnect-client:2:0.3,slow-client:2:0.3"
set -euo pipefail

PAPSIM="$1"
CYCLES="${CYCLES:-3}"
EXTRA_FAULTS="${EXTRA_FAULTS:-}"
WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"
SOCK="$WORK/pap.sock"
CKPT="$WORK/ckpt"
mkdir "$CKPT"

cat > rules.txt <<'RULES'
ab.*cd
fgh
h[af]+g
RULES
"$PAPSIM" compile rules.txt m.nfa >/dev/null
"$PAPSIM" gentrace m.nfa t.bin 65536 --pm=0.6 --seed=9 >/dev/null
"$PAPSIM" run m.nfa t.bin --sequential --max-reports=100000 \
    | grep "^  match" > expected.txt

FAULT_FLAGS=()
if [ -n "$EXTRA_FAULTS" ]; then
    FAULT_FLAGS=(--inject-faults="$EXTRA_FAULTS" --fault-seed=29)
fi

start_daemon() {
    "$PAPSIM" serve m.nfa --socket="$SOCK" --threads=2 --chunk=2048 \
        --checkpoint-dir="$CKPT" --checkpoint-interval=2 \
        "${FAULT_FLAGS[@]}" > "daemon.$1.log" 2>&1 &
    DAEMON_PID=$!
    for _ in $(seq 1 100); do
        if "$PAPSIM" ctl "$SOCK" ping 2>/dev/null | grep -q PONG; then
            return 0
        fi
        sleep 0.05
    done
    echo "daemon did not come up (cycle $1)" >&2
    exit 1
}

# Poll STATS until $1 matches (daemon-side state is asynchronous).
wait_for_stat() {
    for _ in $(seq 1 100); do
        if "$PAPSIM" ctl "$SOCK" stats 2>/dev/null | grep -q "$1"; then
            return 0
        fi
        sleep 0.05
    done
    echo "daemon never reported $1" >&2
    "$PAPSIM" ctl "$SOCK" stats >&2 || true
    exit 1
}

for cycle in $(seq 1 "$CYCLES"); do
    start_daemon "$cycle"

    # Feed a cycle-dependent prefix of the trace through a fifo, wait
    # until at least one periodic checkpoint is durable, then pull the
    # plug with SIGKILL — no drain, no flush, no goodbye.
    PREFIX=$((16384 + (cycle * 12289) % 32768))
    mkfifo "feed.$cycle.pipe"
    "$PAPSIM" stream "$SOCK" alice - --key=k < "feed.$cycle.pipe" \
        > "half.$cycle.out" 2>&1 &
    CLIENT_PID=$!
    exec 8> "feed.$cycle.pipe"
    head -c "$PREFIX" t.bin >&8
    wait_for_stat "periodic_ckpts=[1-9]"
    kill -9 "$DAEMON_PID"
    wait "$DAEMON_PID" 2>/dev/null || true
    DAEMON_PID=""
    exec 8>&-
    wait "$CLIENT_PID" 2>/dev/null || true
    rm -f "$SOCK" "feed.$cycle.pipe"

    # Restart on the same directory: the manifest must name the
    # session and RESUME must continue it from a nonzero offset with
    # replay bounded by the checkpoint interval.
    start_daemon "r$cycle"
    wait_for_stat "resumable=[1-9]"
    "$PAPSIM" stream "$SOCK" alice t.bin --key=k --resume \
        --max-reports=100000 > "resumed.$cycle.txt"
    grep -q "resumed from checkpoint: [1-9]" "resumed.$cycle.txt"
    grep "^  match" "resumed.$cycle.txt" | diff - expected.txt
    wait_for_stat "recovered_sessions=1"

    kill -TERM "$DAEMON_PID"
    wait "$DAEMON_PID"
    DAEMON_PID=""
done

# Read generation=<n> from STATS.
generation() {
    "$PAPSIM" ctl "$SOCK" stats | sed -n 's/.* generation=\([0-9]*\).*/\1/p'
}

# Kill before the first checkpoint: recovery falls back to a fresh
# re-admit at offset 0 and the re-fed stream is still exact. A hot
# swap before the kill is journaled before SWAP answers, so the
# restarted daemon's generation continues above it.
start_daemon early
mkfifo early.pipe
"$PAPSIM" stream "$SOCK" alice - --key=early < early.pipe \
    > early.out 2>&1 &
CLIENT_PID=$!
exec 8> early.pipe
head -c 1024 t.bin >&8
wait_for_stat "admitted=1"
"$PAPSIM" ctl "$SOCK" swap "$WORK/m.nfa" | grep -q "^OK "
GEN_BEFORE="$(generation)"
kill -9 "$DAEMON_PID"
wait "$DAEMON_PID" 2>/dev/null || true
DAEMON_PID=""
exec 8>&-
wait "$CLIENT_PID" 2>/dev/null || true
rm -f "$SOCK" early.pipe

start_daemon rearly
GEN_AFTER="$(generation)"
if [ "$GEN_AFTER" -le "$GEN_BEFORE" ]; then
    echo "generation $GEN_AFTER after the restart, $GEN_BEFORE before" >&2
    exit 1
fi
"$PAPSIM" stream "$SOCK" alice t.bin --key=early --resume \
    --max-reports=100000 > early_resumed.txt
grep "^  match" early_resumed.txt | diff - expected.txt
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""

echo "serve crash smoke ok ($CYCLES cycles)"
