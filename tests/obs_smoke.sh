#!/usr/bin/env bash
# Observability smoke test: run the CLI with --metrics-json /
# --trace-out / --profile, validate the metrics dump against the
# checked-in schema, and sanity-check the Chrome trace. Registered
# with CTest (label: obs); $1 is the papsim binary, $2 the repo root.
set -euo pipefail

PAPSIM="$1"
REPO_ROOT="$2"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT
cd "$WORK"

cat > rules.txt <<'RULES'
abra
cad(ab)+ra
RULES

"$PAPSIM" compile rules.txt m.nfa >/dev/null
"$PAPSIM" gentrace m.nfa t.bin 32768 --pm=0.6 --seed=7 >/dev/null

OUT="$("$PAPSIM" run m.nfa t.bin --ranks=2 \
    --metrics-json metrics.json --trace-out trace.json --profile)"
grep -q "(verified)" <<< "$OUT"
grep -q "metrics -> metrics.json" <<< "$OUT"
grep -q "trace   -> trace.json" <<< "$OUT"
grep -q "Phase" <<< "$OUT"

# The metrics dump matches the schema and holds the headline metrics.
python3 "$REPO_ROOT/scripts/check_metrics_schema.py" metrics.json
python3 - <<'PY'
import json
m = json.load(open("metrics.json"))
assert m["counters"]["runner.runs"] == 1, m["counters"]
assert m["counters"]["runner.segments"] >= 1
assert "runner.speedup" in m["gauges"], sorted(m["gauges"])
assert m["histograms"]["runner.segment.length"]["count"] >= 1
PY

# The trace is valid JSON with balanced, phase-named host spans and
# simulated-timeline slices.
python3 - <<'PY'
import json
events = json.load(open("trace.json"))
assert isinstance(events, list) and events, "empty trace"
begins = [e for e in events if e["ph"] == "B"]
ends = [e for e in events if e["ph"] == "E"]
assert len(begins) == len(ends), (len(begins), len(ends))
names = {e["name"] for e in begins}
for phase in ("pap.run", "pap.partition", "pap.execute",
              "pap.compose"):
    assert phase in names, f"missing span {phase}: {sorted(names)}"
sim = [e for e in events if e["ph"] == "X" and e["pid"] == 2]
assert any(e["name"] == "execute" for e in sim), "no simulated spans"
for e in events:
    assert e["ts"] >= 0 and "pid" in e and "tid" in e
PY

# --attrib prints the wall-time ledger as a table whose wall buckets
# sum to the measured wall, and --attrib=json emits machine-readable
# buckets.
ATTRIB="$("$PAPSIM" run m.nfa t.bin --ranks=2 --threads=2 --attrib)"
grep -q "attribution (wall" <<< "$ATTRIB"
grep -q "compose.decode" <<< "$ATTRIB"

"$PAPSIM" run m.nfa t.bin --ranks=2 --threads=2 --attrib=json > attrib.txt
python3 - <<'PY'
import json
line = next(l for l in open("attrib.txt")
            if l.startswith("{") and '"wall_ms"' in l)
a = json.loads(line)
wall = a["wall_ms"]
charged = sum(a["buckets"].values())
assert wall > 0, a
assert abs(charged - wall) <= max(0.05 * wall, 0.5), (charged, wall)
assert "device.execute" in a["buckets"], a
assert "workers.execute" in a["aux"], a
PY

# Multi-threaded traces carry causal flow events: every flow id runs
# s -> t -> f with ordered timestamps, B/E stay balanced per track.
"$PAPSIM" run m.nfa t.bin --ranks=2 --threads=2 \
    --trace-out trace_threads.json >/dev/null
python3 - <<'PY'
import json
from collections import defaultdict
events = json.load(open("trace_threads.json"))
per_track = defaultdict(int)
flows = defaultdict(dict)
for e in events:
    if e["ph"] in "BE":
        per_track[e["tid"]] += 1 if e["ph"] == "B" else -1
    if e["ph"] in "stf":
        assert e["id"] != 0
        flows[e["id"]][e["ph"]] = e["ts"]
    if e["ph"] == "f":
        assert e.get("bp") == "e", e
assert all(v == 0 for v in per_track.values()), per_track
assert flows, "no flow events in the trace"
for fid, ph in flows.items():
    assert set(ph) == {"s", "t", "f"}, (fid, ph)
    assert ph["s"] <= ph["t"] <= ph["f"], (fid, ph)
counters = {e["name"] for e in events if e["ph"] == "C"}
assert "pipeline.inflight" in counters, counters
PY

# Without the flags, no artifacts appear.
"$PAPSIM" run m.nfa t.bin --ranks=2 >/dev/null
test ! -f extra.json

echo "obs smoke ok"
