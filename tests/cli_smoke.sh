#!/usr/bin/env bash
# End-to-end smoke test of the papsim CLI: compile -> analyze ->
# convert (both formats) -> gentrace -> run (sequential, PAP,
# speculative). Registered with CTest; $1 is the papsim binary.
set -euo pipefail

PAPSIM="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > rules.txt <<'RULES'
# smoke rules
abra
cad(ab)+ra
x[yz]{2,3}q
RULES

"$PAPSIM" compile rules.txt m.nfa --prefix-merge | grep -q "compiled 3 rules"
"$PAPSIM" analyze m.nfa | grep -q "components:"
"$PAPSIM" convert m.nfa m.anml | grep -q "converted"
grep -q "<anml-network" m.anml
"$PAPSIM" convert m.anml m2.nfa | grep -q "converted"
cmp m.nfa m2.nfa

"$PAPSIM" gentrace m.anml t.bin 32768 --pm=0.6 --seed=3 \
    | grep -q "wrote 32768 symbols"

"$PAPSIM" run m.nfa t.bin --sequential | grep -q "sequential\[sparse\]"
"$PAPSIM" run m.nfa t.bin --ranks=4 --verbose \
    | grep -q "PAP\[sparse\].*(verified)"
"$PAPSIM" run m.anml t.bin --spec=128 | grep -q "speculative\[sparse\]"

# Fault injection: deterministic, detected, recovered, same matches.
CLEAN=$("$PAPSIM" run m.nfa t.bin --ranks=4 | grep "PAP\[")
FAULTY=$("$PAPSIM" run m.nfa t.bin --ranks=4 \
    --inject-faults=all:16 --fault-seed=7 2>/dev/null)
grep -q "(recovered)" <<< "$FAULTY"
grep -q "detected=80 recovered=80" <<< "$FAULTY"
CLEAN_MATCHES=$(echo "$CLEAN" \
    | sed 's/PAP\[[a-z0-9+]*\]: \([0-9]*\) matches.*/\1/')
grep -q "PAP\[[a-z0-9+]*\]: $CLEAN_MATCHES matches" <<< "$FAULTY"
# SVC overflow: two ".*" states in one component plan 2 enumeration
# flows per segment, which with the ASG flow overflow a 2-entry SVC.
# The default path evicts, verifies and reports the live cache.
printf 'ab.*cd.*ef\n' > o.txt
"$PAPSIM" compile o.txt o.nfa | grep -q "compiled 1 rules"
"$PAPSIM" gentrace o.nfa o.bin 16384 --alphabet=abcdefgh --seed=5 \
    | grep -q "wrote 16384 symbols"
OVERFLOW=$("$PAPSIM" run o.nfa o.bin --svc-capacity=2)
grep -q "(verified)" <<< "$OVERFLOW"
grep -q "SVC live cache: capacity 2, [1-9][0-9]* evictions" <<< "$OVERFLOW"
"$PAPSIM" run o.nfa o.bin --overflow=sequential --svc-capacity=2 \
    2>/dev/null | grep -q "\[degraded\]"
# Batch overflow handling is gone: the flag value is an error.
if "$PAPSIM" run o.nfa o.bin --overflow=batch 2>/dev/null; then exit 1; fi
("$PAPSIM" run o.nfa o.bin --overflow=batch 2>&1 || true) \
    | grep -q "papsim: error:"

"$PAPSIM" bench Bro217 | grep -q "Bro217:"
test -f Bro217.nfa

# Error paths exit non-zero with a clear message.
if "$PAPSIM" run missing.nfa t.bin 2>/dev/null; then exit 1; fi
if "$PAPSIM" bogus 2>/dev/null; then exit 1; fi
("$PAPSIM" run missing.nfa t.bin 2>&1 || true) \
    | grep -q "papsim: error:"
: > empty.bin
if "$PAPSIM" run m.nfa empty.bin 2>/dev/null; then exit 1; fi
if "$PAPSIM" run m.nfa t.bin --ranks=zero 2>/dev/null; then exit 1; fi
if "$PAPSIM" run m.nfa t.bin --inject-faults=bogus 2>/dev/null; then
    exit 1
fi
if "$PAPSIM" run m.nfa t.bin --overflow=wat 2>/dev/null; then exit 1; fi
printf '# nothing\n' > empty_rules.txt
if "$PAPSIM" compile empty_rules.txt e.nfa 2>/dev/null; then exit 1; fi

# An automaton the board cannot place is a typed error too: a chain of
# 25,000 states is one component, larger than a 24,576-STE half-core.
awk 'BEGIN {
    n = 25000; label = ""
    for (i = 0; i < 64; ++i) label = label "f"
    print "papsim-nfa 1"; print "name chain"; print "states " n
    for (q = 0; q < n; ++q)
        print "s " q " " label " " (q == 0 ? 2 : 0) " " (q == n - 1) " 0"
    for (q = 0; q + 1 < n; ++q) print "e " q " " q + 1
    print "end"
}' > chain.nfa
for cmd in "run chain.nfa t.bin" "run chain.nfa t.bin --spec" \
           "analyze chain.nfa"; do
    rc=0
    # shellcheck disable=SC2086 # $cmd is a command line
    "$PAPSIM" $cmd > /dev/null 2> chain.err || rc=$?
    test "$rc" -eq 1
    grep -q "papsim: error: CapacityExceeded" chain.err
    if grep -q "fatal:" chain.err; then exit 1; fi
done

# Malformed automaton and rule files are typed errors: exit 1, never
# an abort.
printf 'papsim-nfa 1\nname bad\nstates 1\ns 0 abc 1 0 0\nend\n' > bad.nfa
printf '<anml-network id="bad">\n<state-transition-element id="q0" symbol-set="[a" start="all-input"/>\n</anml-network>\n' \
    > bad.anml
printf 'a[b\n' > bad_rules.txt
for cmd in "run bad.nfa t.bin" "analyze bad.anml" \
           "compile bad_rules.txt b.nfa"; do
    rc=0
    # shellcheck disable=SC2086 # $cmd is a command line
    "$PAPSIM" $cmd 2> bad.err || rc=$?
    test "$rc" -eq 1
    grep -q "papsim: error: InvalidInput" bad.err
done

echo "cli smoke ok"
