#!/usr/bin/env python3
"""qrdtm-bench: end-to-end benchmark of the qrdtm simulator on both clocks.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds perfbench/ (the driver plus the library sources under src/) into
.bench_build/perfbench, then runs the named workload.

--trace 0 repeats the seeded point, each time in a fresh single-threaded
process, for S host seconds.  Simulated metrics (label "sim") must come out
bit-identical on every repetition; host metrics (label "host") are the
median over repetitions.  --trace 1 runs the traced point once and prints
the per-layer ledger; its host spans are written to
.bench_build/traces/<workload>-<seed>.json (Chrome trace JSON).

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics.  The exit code is 0 only when every output check passed.
See perfbench/README.md for the workloads and what each metric means.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_DIR = os.path.join(ROOT, "perfbench")
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
TRACE_DIR = os.path.join(ROOT, ".bench_build", "traces")
BINARY = os.path.join(BUILD_DIR, "qrdtm_bench")
POINT_TIMEOUT_S = 150

# End-to-end metrics: (name, unit, clock).  "sim" metrics are sampled on the
# simulated clock at the deadline and repeat exactly per seed; "host" ones
# are wall-clock measurements of the workload process.
END_TO_END = [
    ("sim_txn_per_s", "1/s", "sim"),
    ("sim_commit_p50_ms", "ms", "sim"),
    ("sim_commit_p99_ms", "ms", "sim"),
    ("aborts_per_commit", "aborts/commit", "sim"),
    ("msgs_per_commit", "msgs/commit", "sim"),
    ("setup_s", "s", "host"),
    ("total_s", "s", "host"),
    ("sim_s_per_host_s", "s/s", "host"),
    ("peak_rss_mb", "MB", "host"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the driver; False when it cannot be built."""
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("qrdtm-bench: no qrdtm sources (src/) next to perfbench/")
        return False
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if proc.returncode != 0:
            log("qrdtm-bench: build step failed: " + " ".join(cmd))
            return False
    return os.path.exists(BINARY)


def run_point(workload, seed, trace, trace_out=None):
    """Run the driver once; returns (parsed JSON or None, exit code)."""
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--trace", str(trace)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=POINT_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("qrdtm-bench: point timed out: " + " ".join(cmd))
        return None, -1
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]), proc.returncode
    except (IndexError, json.JSONDecodeError):
        log("qrdtm-bench: no result from: " + " ".join(cmd))
        return None, proc.returncode


def declared_metrics(key):
    """(name, unit) pairs BENCHMARK.json declares under `key`."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return [(m["name"], m["unit"]) for m in json.load(f)[key]]


def measure_end_to_end(workload, seed, seconds, problems):
    deadline = time.monotonic() + seconds
    passes = []
    while True:
        started = time.monotonic()
        res, code = run_point(workload, seed, 0)
        if res is None:
            problems.append("a repetition produced no result")
            return None
        passes.append(res)
        if code != 0 or not res["ok"]:
            problems.extend(res["failures"] or ["driver exit code %d" % code])
            break
        # Stop when one more repetition of this length would overrun.
        now = time.monotonic()
        if now + (now - started) > deadline:
            break
    if any(p["sim"] != passes[0]["sim"] for p in passes):
        problems.append("simulated metrics differ between repetitions of "
                        "one seed (determinism broke)")

    def host_median(name):
        return statistics.median(p["host"][name] for p in passes)

    values = {name: (passes[0]["sim"][name] if clock == "sim"
                     else host_median(name))
              for name, _, clock in END_TO_END}
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    log("qrdtm-bench %s seed=%d: %d repetitions, %d commits at the deadline, "
        "%d drained after it" % (workload, seed, len(passes),
                                 passes[0]["sim"]["commits_at_deadline"],
                                 passes[0]["sim"]["drain_commits"]))
    for name, unit, clock in END_TO_END:
        print("  %-20s %-4s %18.6f %s" % (name, clock, values[name], unit))
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit, _ in END_TO_END}
    return metrics, attempted, failed


def measure_per_layer(workload, seed, problems):
    os.makedirs(TRACE_DIR, exist_ok=True)
    trace_out = os.path.join(TRACE_DIR, "%s-%d.json" % (workload, seed))
    res, code = run_point(workload, seed, 1, trace_out)
    if res is None:
        problems.append("the traced run produced no result")
        return None
    if code != 0 or not res["ok"]:
        problems.extend(res["failures"] or ["driver exit code %d" % code])
    log("qrdtm-bench %s seed=%d traced; host spans in %s"
        % (workload, seed, os.path.relpath(trace_out, ROOT)))
    for name, m in res["per_layer"].items():
        print("  %-46s %18.6f %s" % (name, m["value"], m["unit"]))
    return res["per_layer"], res["attempted"], res["failed"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 1

    problems = []
    if args.trace:
        got = measure_per_layer(args.workload, args.seed, problems)
        key = "per_layer"
    else:
        got = measure_end_to_end(args.workload, args.seed, args.seconds,
                                 problems)
        key = "end_to_end"
    if got is None:
        for p in problems:
            log("qrdtm-bench: " + p)
        return 1
    metrics, attempted, failed = got

    declared = declared_metrics(key)
    produced = [(name, m["unit"]) for name, m in metrics.items()]
    if sorted(declared) != sorted(produced):
        problems.append("metrics differ from BENCHMARK.json %s: missing %s, "
                        "undeclared %s" % (key,
                                           sorted(set(declared) - set(produced)),
                                           sorted(set(produced) - set(declared))))
    if attempted < 1:
        problems.append("no transaction was attempted")
    for p in problems:
        log("qrdtm-bench: CHECK FAILED: " + p)

    correct = not problems
    print(json.dumps({"correct": correct, "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
