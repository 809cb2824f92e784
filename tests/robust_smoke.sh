#!/usr/bin/env bash
# End-to-end smoke test of the hardened-execution CLI surface:
# --threads / PAP_THREADS validation, worker-fault injection,
# checkpoint kill/resume equivalence (and the rejection of corrupt and
# foreign checkpoints), and the metrics JSON echo.
# Registered with CTest (label "robust"); $1 is the papsim binary.
set -euo pipefail

PAPSIM="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > rules.txt <<'RULES'
abra
cad(ab)+ra
x[yz]{2,3}q
RULES

"$PAPSIM" compile rules.txt m.nfa --prefix-merge >/dev/null
"$PAPSIM" gentrace m.nfa t.bin 32768 --pm=0.6 --seed=3 >/dev/null

# --- Thread plumbing -------------------------------------------------

# The same run is byte-identical for any host thread count.
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose > run_t1.txt
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose --threads=2 > run_t2.txt
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose --threads=8 > run_t8.txt
grep -q "exec: 2 host threads" run_t2.txt
grep -q "exec: 8 host threads" run_t8.txt
# Strip the exec and pipeline summaries (the only lines allowed to
# differ: thread census and wall-clock timings) and compare.
grep -v "^  exec:\|^  pipeline:" run_t1.txt > run_t1.stripped
grep -v "^  exec:\|^  pipeline:" run_t2.txt | cmp - run_t1.stripped
grep -v "^  exec:\|^  pipeline:" run_t8.txt | cmp - run_t1.stripped

# PAP_THREADS sets the default; the flag wins over it.
PAP_THREADS=2 "$PAPSIM" run m.nfa t.bin --ranks=4 \
    | grep -q "exec: 2 host threads"
PAP_THREADS=2 "$PAPSIM" run m.nfa t.bin --ranks=4 --threads=4 \
    | grep -q "exec: 4 host threads"
# --threads=0 resolves to at least one hardware thread.
"$PAPSIM" run m.nfa t.bin --ranks=4 --threads=0 >/dev/null

# Validation: junk values are typed CLI errors, not crashes.
if "$PAPSIM" run m.nfa t.bin --threads=nope 2>/dev/null; then exit 1; fi
("$PAPSIM" run m.nfa t.bin --threads=nope 2>&1 || true) \
    | grep -q "papsim: error: --threads"
if PAP_THREADS=wat "$PAPSIM" run m.nfa t.bin 2>/dev/null; then exit 1; fi
(PAP_THREADS=wat "$PAPSIM" run m.nfa t.bin 2>&1 || true) \
    | grep -q "papsim: error: PAP_THREADS"
if "$PAPSIM" run m.nfa t.bin --max-retries=x 2>/dev/null; then exit 1; fi
if "$PAPSIM" run m.nfa t.bin --deadline-ms=x 2>/dev/null; then exit 1; fi
if "$PAPSIM" run m.nfa t.bin --stop-after-segment=x 2>/dev/null; then
    exit 1
fi

# The thread count is echoed into the metrics JSON.
"$PAPSIM" run m.nfa t.bin --ranks=4 --threads=2 \
    --metrics-json=metrics.json >/dev/null
grep -q '"exec.threads_used"' metrics.json
grep -q '"exec.pool.tasks"' metrics.json

# --- Worker faults ---------------------------------------------------

# Malformed specs (including worker kinds) are rejected with a typed
# message; the new kind names parse.
for BAD in "stall-worker:x" "crash-worker:1:2.0" "corrupt-sv:0" \
           "walk-worker" ""; do
    if "$PAPSIM" run m.nfa t.bin --inject-faults="$BAD" 2>/dev/null
    then
        echo "accepted bad spec '$BAD'" >&2
        exit 1
    fi
    ("$PAPSIM" run m.nfa t.bin --inject-faults="$BAD" 2>&1 || true) \
        | grep -q "papsim: error:"
done

# A transient crash fault heals by retry: same matches as the clean
# run and the run still verifies.
CLEAN=$("$PAPSIM" run m.nfa t.bin --ranks=4 | grep "PAP\[")
CLEAN_MATCHES=$(echo "$CLEAN" \
    | sed 's/PAP\[[a-z0-9+]*\]: \([0-9]*\) matches.*/\1/')
FAULTY=$("$PAPSIM" run m.nfa t.bin --ranks=4 --threads=2 \
    --inject-faults=crash-worker:1 --fault-seed=7 2>/dev/null)
grep -q "(verified)" <<< "$FAULTY"
grep -q "PAP\[[a-z0-9+]*\]: $CLEAN_MATCHES matches" <<< "$FAULTY"
grep -q "segments retried" <<< "$FAULTY"

# A persistent stall exhausts its retries, falls back to the
# per-segment oracle, and still reproduces the clean matches.
STALLED=$("$PAPSIM" run m.nfa t.bin --ranks=4 --threads=2 \
    --deadline-ms=5 --max-retries=1 \
    --inject-faults=stall-worker:8 --fault-seed=7 2>/dev/null)
grep -q "PAP\[[a-z0-9+]*\]: $CLEAN_MATCHES matches" <<< "$STALLED"
grep -q "recovered" <<< "$STALLED"

# --- Checkpoint / resume --------------------------------------------

# Wall-clock pipeline timings are the one nondeterministic verbose
# line; strip them from every byte comparison below.
FULL=$("$PAPSIM" run m.nfa t.bin --ranks=4 --verbose \
    | grep -v "^  pipeline:")

# Kill the run after composing segment 1: non-zero exit, checkpoint
# left on disk.
if "$PAPSIM" run m.nfa t.bin --ranks=4 --checkpoint=run.ckpt \
    --stop-after-segment=1 >/dev/null 2>&1; then
    echo "stop-after-segment did not stop" >&2
    exit 1
fi
test -f run.ckpt

# Resume: byte-identical output (minus the resume banner), checkpoint
# cleaned up after the completed run.
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose --checkpoint=run.ckpt \
    > resumed.txt
grep -q "resumed from checkpoint: 2 segments" resumed.txt
grep -v "^  resumed from checkpoint:\|^  pipeline:" resumed.txt \
    | diff - <(echo "$FULL")
test ! -f run.ckpt

# A corrupt checkpoint is ignored (fresh run, same result).
if "$PAPSIM" run m.nfa t.bin --ranks=4 --checkpoint=run.ckpt \
    --stop-after-segment=0 >/dev/null 2>&1; then exit 1; fi
printf 'garbage' | dd of=run.ckpt bs=1 seek=16 conv=notrunc \
    2>/dev/null
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose --checkpoint=run.ckpt \
    2>/dev/null > fresh.txt
if grep -q "resumed from checkpoint" fresh.txt; then exit 1; fi
grep -v "^  resumed from checkpoint:\|^  pipeline:" fresh.txt \
    | diff - <(echo "$FULL")

# A checkpoint of another automaton is ignored too. One letter of one
# rule changes: the CLI names the automaton after its rules file, so
# the name and the state count stay the same.
if "$PAPSIM" run m.nfa t.bin --ranks=4 --checkpoint=run.ckpt \
    --stop-after-segment=1 >/dev/null 2>&1; then exit 1; fi
cp rules.txt rules.orig
sed -i 's/^abra$/abrx/' rules.txt
"$PAPSIM" compile rules.txt edited.nfa --prefix-merge >/dev/null
mv rules.orig rules.txt
EDITED=$("$PAPSIM" run edited.nfa t.bin --ranks=4 --verbose \
    | grep -v "^  pipeline:")
"$PAPSIM" run edited.nfa t.bin --ranks=4 --verbose --checkpoint=run.ckpt \
    2>/dev/null > foreign.txt
if grep -q "resumed from checkpoint" foreign.txt; then exit 1; fi
grep -v "^  pipeline:" foreign.txt | diff - <(echo "$EDITED")

echo "robust smoke ok"
