#!/usr/bin/env python3
"""Smoke test of the benchmark at the tiny input size (a few seconds
once built).

    python3 perfbench/smoke.py

Runs all three workloads untraced and the traced breakdown once, through
run.py, and asserts that:
  - every end-to-end and per-layer metric of BENCHMARK.json is printed in
    the result line with its unit;
  - every workload prints its named metrics with units in its human lines
    (wall_s, setup_s, the workload's throughput, cell_ms_p50, cell_ms_tail,
    peak_rss_mb, error_rate) and error_rate is 0;
  - the result says correct, with no failed operation;
  - the traced run's cross-check passes and its Chrome trace file parses.
Exits non-zero on the first failed assertion.
"""

import json
import os
import re
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THROUGHPUT = {
    "thm27-sweep": ["steps_per_s"],
    "serve-closed": ["steps_per_s", "requests_per_s"],
    "census": ["pairs_per_s"],
}
COMMON = ["wall_s", "setup_s", "cell_ms_p50", "cell_ms_tail", "peak_rss_mb",
          "error_rate"]


def run(workload, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "1", "--seconds", "1", "--trace", str(trace),
           "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout + proc.stderr)
        raise AssertionError("run.py exited with %d" % proc.returncode)
    lines = proc.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def check_result(result, wanted, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True, what + ": not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, what
    assert set(result["metrics"]) == {m["name"] for m in wanted}, what
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"], what + ": unit of " + m["name"]
        assert isinstance(got["value"], float), what + ": " + m["name"]


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in ("thm27-sweep", "serve-closed", "census"):
        human, result = run(workload, 0)
        check_result(result, spec["end_to_end"], workload)
        printed = {}
        for line in human:
            m = re.match(r"^\s+(\w+) = (\S+) (\S+)$", line)
            if m:
                printed[m.group(1)] = (float(m.group(2)), m.group(3))
        for name in COMMON + THROUGHPUT[workload]:
            assert name in printed, "%s: %s not printed" % (workload, name)
        assert printed["error_rate"][0] == 0.0, workload + ": errors"
        print("ok  %-12s %s" % (workload, json.dumps(result["metrics"])))

    human, result = run("thm27-sweep", 1)
    check_result(result, spec["per_layer"], "traced")
    trace = [l.split(": ", 1)[1] for l in human if "chrome trace:" in l]
    assert trace, "traced run names no trace file"
    with open(trace[0]) as f:
        events = json.load(f)["traceEvents"]
    assert any(e.get("ph") == "X" for e in events), "trace has no spans"
    print("ok  traced       %d metrics, %d trace events" %
          (len(result["metrics"]), len(events)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
