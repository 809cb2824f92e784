#!/usr/bin/env python3
"""Build and run the PAPsim benchmark of record.

Usage (from the repository root):

    python3 papbench/run.py --workload regex_suite --seed 1 --seconds 25 --trace 0

Builds the simulator libraries and the papbench program from source with
CMake (Release) into $CARGO_TARGET_DIR, or .bench_build when unset, runs
one workload, and forwards its output. The last stdout line is the
result JSON; it is checked against the metric names in BENCHMARK.json.
Exits non-zero when the sources are missing, the build fails, the run
fails its correctness checks, or the result is malformed.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("regex_suite", "anmlzoo_suite", "serve_ids")
# A run must end within 180 s; leave room for start-up and the check.
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"papbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build(build_dir):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("simulator sources (src/) not found next to papbench/")
    jobs = str(max(1, len(os.sched_getaffinity(0))))
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j", jobs,
                  "--target", "papbench"])
    for cmd in steps:
        # Build chatter goes to stderr: stdout ends with the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))
    return os.path.join(build_dir, "papbench")


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    """Return why the result line is malformed, or None."""
    try:
        result = json.loads(line)
    except ValueError:
        return "last line is not JSON"
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        return "result keys differ from the contract"
    names = expected_metrics(trace)
    if sorted(result["metrics"]) != sorted(names):
        missing = set(names) - set(result["metrics"])
        extra = set(result["metrics"]) - set(names)
        return f"metrics differ from BENCHMARK.json: missing {sorted(missing)} extra {sorted(extra)}"
    if result["attempted"] < 1:
        return "nothing attempted"
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", type=int, default=0,
                    help="host threads (default: one per core)")
    args = ap.parse_args()

    build_dir = os.path.abspath(
        os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")))
    binary = build(build_dir)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--threads", str(args.threads),
           "--work-dir", build_dir]
    if args.trace:
        cmd += ["--spans-out", os.path.join(
            build_dir, f"spans-{args.workload}-{args.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s", 3)
    lines = run.stdout.rstrip("\n").split("\n")
    why = check_result(lines[-1], args.trace) if lines else "no output"
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    if why:
        fail(why, 3)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
