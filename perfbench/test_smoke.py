#!/usr/bin/env python3
"""Smoke test of the benchmark: every workload in both modes, a few cycles.

    python3 perfbench/test_smoke.py [--binary PATH] [--spec BENCHMARK.json]

Without --binary the runs go through perfbench/run.py (which builds first).
Checks, per workload: the run is correct with no failed operation; the last
stdout line has exactly the result keys; --trace 0 prints exactly the
end_to_end metrics of the spec and --trace 1 exactly its per_layer metrics,
each with the spec's unit; end-to-end values are positive; two traced runs
with the same seed give identical counts; and the Chrome trace parses, with
every operation span parented by its cycle and every layer span by an
operation. Exits 1 on the first violation.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def fail(message):
    print("FAIL: " + message)
    sys.exit(1)


def run(args, workload, trace, seed, trace_out=None):
    if args.binary:
        command = [args.binary]
    else:
        command = [sys.executable, os.path.join(HERE, "run.py")]
    command += ["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke"]
    if trace_out and args.binary:
        command += ["--trace-out", trace_out]
    done = subprocess.run(command, capture_output=True, text=True, cwd=ROOT, timeout=600)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        fail("%s trace=%d exited %d: %s" % (workload, trace, done.returncode, done.stderr[-2000:]))
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("%s: result keys %s" % (workload, sorted(result)))
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        fail("%s trace=%d: correct=%s attempted=%s failed=%s" %
             (workload, trace, result["correct"], result["attempted"], result["failed"]))
    return result["metrics"]


def check_schema(workload, metrics, specs, positive):
    expected = {spec["name"]: spec["unit"] for spec in specs}
    if set(metrics) != set(expected):
        fail("%s: metrics %s, spec %s" % (workload, sorted(metrics), sorted(expected)))
    for name, metric in metrics.items():
        if set(metric) != {"value", "unit"} or metric["unit"] != expected[name]:
            fail("%s: metric %s is %s" % (workload, name, metric))
        if not isinstance(metric["value"], (int, float)):
            fail("%s: %s is not a number" % (workload, name))
        if positive and not metric["value"] > 0:
            fail("%s: %s is %s" % (workload, name, metric["value"]))


def check_trace(workload, path):
    with open(path) as handle:
        events = json.load(handle)["traceEvents"]
    spans = [e for e in events if e.get("cat") == "perfbench"]
    by_id = {e["args"]["id"]: e for e in spans}
    for span in spans:
        parent = span["args"]["parent"]
        if span["name"] == "cycle":
            if parent != 0:
                fail("%s: cycle span with a parent" % workload)
            continue
        if parent not in by_id:
            fail("%s: span %s has no parent" % (workload, span["name"]))
        parent_span = by_id[parent]
        if parent_span["args"]["cycle"] != span["args"]["cycle"]:
            fail("%s: span %s crosses cycles" % (workload, span["name"]))
        is_op = "." not in span["name"]
        if is_op != (parent_span["name"] == "cycle"):
            fail("%s: span %s under %s" % (workload, span["name"], parent_span["name"]))
    if not any(e.get("pid") == 2 for e in events):
        fail("%s: no library spans in the trace" % workload)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--binary")
    parser.add_argument("--spec", default=os.path.join(ROOT, "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.spec) as handle:
        spec = json.load(handle)
    counts = {m["name"] for m in spec["per_layer"] if m["unit"] in ("count", "bytes")}
    for workload in (w["name"] for w in spec["workloads"]):
        check_schema(workload, run(args, workload, 0, 1), spec["end_to_end"], positive=True)
        with tempfile.TemporaryDirectory() as scratch:
            # run.py writes the trace into the build directory itself.
            trace_out = (os.path.join(scratch, "trace.json") if args.binary else
                         os.path.join(ROOT, ".bench_build", "trace-%s-3.json" % workload))
            first = run(args, workload, 1, 3, trace_out)
            check_trace(workload, trace_out)
        check_schema(workload, first, spec["per_layer"], positive=False)
        second = run(args, workload, 1, 3)
        for name in sorted(counts):
            if first[name]["value"] != second[name]["value"]:
                fail("%s: count %s differs between same-seed runs: %s vs %s" %
                     (workload, name, first[name]["value"], second[name]["value"]))
        print("ok %s" % workload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
