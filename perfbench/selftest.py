#!/usr/bin/env python3
"""Tiny-scale self-test of the GraphSig benchmark.

    python3 perfbench/selftest.py

Builds the benchmark binary (as run.py does), validates BENCHMARK.json,
then runs every workload at --tiny scale, untraced and traced, and
asserts that

  * the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, and the run is correct;
  * it carries every end-to-end (untraced) or per-layer (traced) metric
    of BENCHMARK.json, each with the unit BENCHMARK.json gives it;
  * the report above it prints every workload metric named in NOTES.md
    with a unit;
  * each correctness check fails, and the run exits non-zero, when its
    expected output is perturbed (--perturb CHECK).

Exits non-zero on the first failed assertion.
"""

import json
import os
import re
import subprocess
import sys

import run

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Metrics each workload's report must print, by the names NOTES.md uses.
REPORTED = {
    "mine_screen": {
        "0": ["setup_s", "failed_frac", "mine_s.t1", "mine_s.t4"],
        "1": ["mine.uncovered_s", "trace.overhead_frac"],
    },
    "serve_mixed": {
        "0": ["setup_s", "failed_frac", "serve.exact_p50_ms",
              "serve.exact_p99_ms", "serve.approx_p50_ms",
              "serve.approx_p99_ms"],
        "1": ["serve.max_qps_at_p99", "trace.overhead_frac"],
    },
    "ingest_stream": {
        "0": ["setup_s", "failed_frac", "ingest.batch_p50_s",
              "ingest.batch_max_s", "ingest.append_p50_ms"],
        "1": ["stream.mine_s", "trace.overhead_frac"],
    },
}

# Correctness check -> (workload, trace) whose run performs it.
CHECKS = {
    "mine_threads": ("mine_screen", "0"),
    "mine_trace": ("mine_screen", "1"),
    "serve_reply": ("serve_mixed", "0"),
    "serve_stats": ("serve_mixed", "0"),
    "ingest_cold": ("ingest_stream", "0"),
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def fail(message):
    sys.exit("selftest: FAIL: " + message)


def check_benchmark_json(spec):
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end",
            "per_layer"}
    if set(spec) != keys:
        fail("BENCHMARK.json keys %s" % sorted(spec))
    if not 1 <= spec["run_seconds"] <= 60:
        fail("run_seconds out of range")
    if not 2 <= len(spec["workloads"]) <= 8:
        fail("need 2 to 8 workloads")
    if not 1 <= len(spec["end_to_end"]) <= 16:
        fail("need 1 to 16 end-to-end metrics")
    if not 1 <= len(spec["per_layer"]) <= 128:
        fail("need 1 to 128 per-layer metrics")
    names = set()
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200:
            fail("workload entry %s" % w)
        names.add(w["name"])
    for m in spec["end_to_end"] + spec["per_layer"]:
        if not NAME.match(m["name"]) or not UNIT.match(m["unit"]):
            fail("metric name or unit %s" % m)
        if m["name"] in names:
            fail("name used twice: %s" % m["name"])
        names.add(m["name"])
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or m["bound"] > 0.25:
            fail("end-to-end entry %s" % m)
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        fail("setup_s must be an end-to-end metric in s, lower is better")
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            fail("per-layer entry %s" % m)


def run_binary(binary, workload, trace, perturb=None):
    args = [binary, "--workload", workload, "--seed", "7", "--seconds", "1",
            "--trace", trace, "--tiny",
            "--out-dir", os.path.join(ROOT, ".bench_out")]
    if perturb:
        args += ["--perturb", perturb]
    done = subprocess.run(args, capture_output=True, text=True, timeout=300)
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s trace %s printed nothing; stderr: %s" %
             (workload, trace, done.stderr[-2000:]))
    return done.returncode, lines


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    check_benchmark_json(spec)
    binary = run.build()
    expected = {"0": spec["end_to_end"], "1": spec["per_layer"]}

    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in ("0", "1"):
            code, lines = run_binary(binary, workload, trace)
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                fail("%s result keys %s" % (workload, sorted(result)))
            if code != 0 or result["correct"] is not True:
                fail("%s trace %s not correct: %s" %
                     (workload, trace, "\n".join(lines[-40:])))
            if result["attempted"] < 1 or result["failed"] != 0:
                fail("%s attempted/failed %s/%s" %
                     (workload, result["attempted"], result["failed"]))
            for m in expected[trace]:
                got = result["metrics"].get(m["name"])
                if got is None or got.get("unit") != m["unit"]:
                    fail("%s trace %s: metric %s missing or unit differs" %
                         (workload, trace, m["name"]))
                if not isinstance(got["value"], (int, float)):
                    fail("%s: %s is not a number" % (workload, m["name"]))
            if trace == "0" and set(result["metrics"]) != {
                    m["name"] for m in spec["end_to_end"]}:
                fail("%s: extra end-to-end metrics" % workload)
            report = {}
            for line in lines[:-1]:
                fields = line.split()
                if len(fields) == 3 and UNIT.match(fields[2]):
                    report[fields[0]] = fields[2]
            for name in REPORTED[workload][trace]:
                if name not in report:
                    fail("%s trace %s report lacks %s" %
                         (workload, trace, name))
            print("ok   %s trace %s: %d metrics" %
                  (workload, trace, len(result["metrics"])))

    for check, (workload, trace) in CHECKS.items():
        code, lines = run_binary(binary, workload, trace, perturb=check)
        result = json.loads(lines[-1])
        flagged = any(line.strip().startswith("CHECK FAILED " + check)
                      for line in lines)
        if code == 0 or result["correct"] is not False or not flagged:
            fail("perturbed %s did not fail its check" % check)
        print("ok   perturbed %s fails" % check)
    print("selftest: PASS")


if __name__ == "__main__":
    main()
