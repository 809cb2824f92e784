#!/usr/bin/env bash
# End-to-end smoke test of the serve daemon over its Unix socket:
# stream results byte-identical to one-shot runs, concurrent clients,
# ctl verbs (ping/stats/weight/swap), typed shedding at the admission
# cap, injected client faults, and SIGTERM drain -> checkpoint ->
# resume. Registered with CTest (label "serve"); $1 is papsim.
set -euo pipefail

PAPSIM="$1"
WORK="$(mktemp -d)"
DAEMON_PID=""
cleanup() {
    [ -n "$DAEMON_PID" ] && kill -9 "$DAEMON_PID" 2>/dev/null || true
    rm -rf "$WORK"
}
trap cleanup EXIT
cd "$WORK"
SOCK="$WORK/pap.sock"

cat > rules.txt <<'RULES'
ab.*cd
fgh
h[af]+g
RULES
cat > rules2.txt <<'RULES'
abc
dd+
RULES

"$PAPSIM" compile rules.txt m.nfa >/dev/null
"$PAPSIM" compile rules2.txt m2.nfa >/dev/null
"$PAPSIM" gentrace m.nfa t.bin 65536 --pm=0.6 --seed=3 >/dev/null
"$PAPSIM" gentrace m2.nfa t2.bin 32768 --pm=0.6 --seed=5 >/dev/null

wait_for_daemon() {
    for _ in $(seq 1 100); do
        if "$PAPSIM" ctl "$SOCK" ping 2>/dev/null | grep -q PONG; then
            return 0
        fi
        sleep 0.05
    done
    echo "daemon did not come up" >&2
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
    exit 1
}

# ctl against a dead socket is a typed error, not a hang.
if "$PAPSIM" ctl "$SOCK" ping 2>/dev/null; then exit 1; fi

# --- Equivalence and concurrency ------------------------------------

"$PAPSIM" run m.nfa t.bin --sequential --max-reports=100000 \
    | grep "^  match" > expected.txt

"$PAPSIM" serve m.nfa --socket="$SOCK" --threads=4 --chunk=4096 \
    > daemon.log 2>&1 &
DAEMON_PID=$!
wait_for_daemon

# A second daemon must refuse the live socket instead of stealing it.
if "$PAPSIM" serve m.nfa --socket="$SOCK" >/dev/null 2>&1; then
    echo "second daemon stole the socket" >&2
    exit 1
fi

"$PAPSIM" stream "$SOCK" alice t.bin --max-reports=100000 > s1.txt
grep "^  match" s1.txt | diff - expected.txt

# Three concurrent clients from two tenants, all exact.
"$PAPSIM" ctl "$SOCK" weight bob 2 | grep -q OK
"$PAPSIM" stream "$SOCK" alice t.bin --max-reports=100000 > c1.txt &
C1=$!
"$PAPSIM" stream "$SOCK" bob t.bin --max-reports=100000 > c2.txt &
C2=$!
"$PAPSIM" stream "$SOCK" bob t.bin --max-reports=100000 > c3.txt &
C3=$!
wait "$C1" "$C2" "$C3"
for f in c1.txt c2.txt c3.txt; do
    grep "^  match" "$f" | diff - expected.txt
done

"$PAPSIM" ctl "$SOCK" stats | tee stats.txt | grep -q "STATS "
grep -q "completed=4" stats.txt
grep -q "shed=0" stats.txt

# --- Hot swap --------------------------------------------------------

"$PAPSIM" run m2.nfa t2.bin --sequential --max-reports=100000 \
    | grep "^  match" > expected2.txt
"$PAPSIM" ctl "$SOCK" swap "$WORK/m2.nfa" | grep -q "OK 2"
"$PAPSIM" stream "$SOCK" alice t2.bin --max-reports=100000 \
    | grep "^  match" | diff - expected2.txt
"$PAPSIM" ctl "$SOCK" swap "$WORK/m.nfa" | grep -q "OK 3"
if "$PAPSIM" ctl "$SOCK" swap "$WORK/missing.nfa" 2>/dev/null; then
    exit 1
fi
# A malformed automaton is refused with ERR InvalidInput; the daemon
# keeps serving.
printf 'papsim-nfa 1\nname bad\nstates 1\ns 0 abc 1 0 0\nend\n' > bad.nfa
if "$PAPSIM" ctl "$SOCK" swap "$WORK/bad.nfa" 2>bad_swap.err; then
    exit 1
fi
grep -q "papsim: error: InvalidInput" bad_swap.err
"$PAPSIM" ctl "$SOCK" ping | grep -q PONG

kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
grep -q "drained" daemon.log
test ! -S "$SOCK"
DAEMON_PID=""

# --- Admission shedding and injected client faults -------------------

"$PAPSIM" serve m.nfa --socket="$SOCK" --threads=2 --chunk=1024 \
    --max-sessions=1 > shed.log 2>&1 &
DAEMON_PID=$!
wait_for_daemon
# Hold the single slot open with a slow client (a fifo feeds it), then
# overflow: the second stream is shed with the typed error.
mkfifo slow.pipe
"$PAPSIM" stream "$SOCK" alice - < slow.pipe > slow.out &
SLOW_PID=$!
exec 9> slow.pipe
head -c 2048 t.bin >&9
sleep 0.3
if "$PAPSIM" stream "$SOCK" bob t.bin >/dev/null 2>shed.err; then
    echo "overflow stream was not shed" >&2
    exit 1
fi
grep -q "ResourceExhausted" shed.err
exec 9>&-
wait "$SLOW_PID"
kill -TERM "$DAEMON_PID" && wait "$DAEMON_PID"
DAEMON_PID=""

# Injected disconnects drop some streams (typed), never the daemon.
"$PAPSIM" serve m.nfa --socket="$SOCK" --threads=2 --chunk=1024 \
    --inject-faults=disconnect-client:2:0.5 --fault-seed=17 \
    > faulty.log 2>&1 &
DAEMON_PID=$!
wait_for_daemon
DROPPED=0
for i in $(seq 1 6); do
    if ! "$PAPSIM" stream "$SOCK" "t$i" t2.bin >/dev/null 2>&1; then
        DROPPED=$((DROPPED + 1))
    fi
done
test "$DROPPED" -gt 0
test "$DROPPED" -le 2
"$PAPSIM" ctl "$SOCK" ping | grep -q PONG
kill -TERM "$DAEMON_PID" && wait "$DAEMON_PID"
DAEMON_PID=""

# --- Drain checkpoint -> resume across a daemon restart --------------

mkdir ckpt
"$PAPSIM" serve m.nfa --socket="$SOCK" --threads=2 --chunk=2048 \
    --checkpoint-dir="$WORK/ckpt" > drain1.log 2>&1 &
DAEMON_PID=$!
wait_for_daemon
# Stream s2 composes at least one chunk before the drain, so its
# checkpoint covers more than the short input it resumes with below.
mkfifo short.pipe
"$PAPSIM" stream "$SOCK" alice - --key=s2 < short.pipe \
    > short_half.out 2>&1 &
SHORT_PID=$!
exec 7> short.pipe
head -c 8192 t.bin >&7
wait_for_stat " chunks=[1-9]"
mkfifo drain.pipe
"$PAPSIM" stream "$SOCK" alice - --key=s1 < drain.pipe \
    > half.out 2>half.err &
HALF_PID=$!
exec 8> drain.pipe
head -c 30000 t.bin >&8
sleep 0.5
kill -TERM "$DAEMON_PID"
wait "$DAEMON_PID"
DAEMON_PID=""
exec 7>&- 8>&-
wait "$SHORT_PID" "$HALF_PID" 2>/dev/null || true
grep -q "drained" drain1.log
ls ckpt | grep -q "alice-s1.papckpt"
ls ckpt | grep -q "alice-s2.papckpt"

"$PAPSIM" serve m.nfa --socket="$SOCK" --threads=2 --chunk=2048 \
    --checkpoint-dir="$WORK/ckpt" > drain2.log 2>&1 &
DAEMON_PID=$!
wait_for_daemon
# The checkpoint offset is whatever had been composed at drain time
# (>0, <=30000 fed bytes); the re-fed stream must still be exact.
"$PAPSIM" stream "$SOCK" alice t.bin --key=s1 --resume \
    --max-reports=100000 > resumed.txt
grep -q "resumed from checkpoint: [1-9]" resumed.txt
grep "^  match" resumed.txt | diff - expected.txt

# Resuming from an input shorter than the checkpoint fails typed on
# stdin too. The client hangs up, which aborts the session and removes
# its checkpoint: this is why s2 is a key of its own.
if head -c 1000 t.bin | "$PAPSIM" stream "$SOCK" alice - --key=s2 \
    --resume > short.txt 2> short.err; then
    echo "a resume past the end of its input succeeded" >&2
    exit 1
fi
grep -q "InvalidInput: checkpoint covers [0-9]* symbols" short.err
grep -q "but the input has only 1000$" short.err
for _ in $(seq 1 100); do
    [ -e ckpt/alice-s2.papckpt ] || break
    sleep 0.05
done
test ! -e ckpt/alice-s2.papckpt
kill -TERM "$DAEMON_PID" && wait "$DAEMON_PID"
DAEMON_PID=""

echo "serve smoke ok"
