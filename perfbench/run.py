#!/usr/bin/env python3
"""The repository benchmark (see perfbench/WORKLOADS.md).

    python3 perfbench/run.py --workload thm27-sweep --seed 1 --seconds 30 --trace 0

Builds the perfbench package (CMake; into $CARGO_TARGET_DIR, default
.bench_build, under the checkout root), runs one workload and checks its
outputs. Human-readable lines come first; the last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics.

--trace 0 runs the untraced program and reports the end-to-end metrics of
BENCHMARK.json. --trace 1 runs the traced program, which breaks all three
workloads down per layer, cross-checks rebuilt cells against the library's
own output, writes a Chrome trace-event file into the build directory, and
reports the per-layer metrics plus each workload's tracing overhead against
the untraced program on the same number of iterations.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("thm27-sweep", "serve-closed", "census")
PREFIX = {"thm27-sweep": "thm27.", "serve-closed": "serve.", "census": "census."}

DEFAULT_SEED = 1
# Digest of the deterministic row facts (steps, schedule hashes, witness
# bounds, decisions, census counts) at the default seed and full size.
# Independent of the thread count; a mismatch means the program computes
# something else.
PINNED_DIGESTS = {
    "thm27-sweep": "a96c6cc3ea8b2024",
    "serve-closed": "a3fb019dbd3a43e8",
    "census": "76073e2468ef6085",
}

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def run_process(cmd, timeout, log=None):
    """Runs cmd in its own process group; kills the group on timeout."""
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.STDOUT if log else subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError("timed out after %ds: %s" % (timeout, " ".join(cmd)))
    if log is not None:
        log.write(out)
        err = ""
    return proc.returncode, out, err


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "perfbench")


def build(out_dir):
    source = HERE
    cache = os.path.join(out_dir, "CMakeCache.txt")
    if os.path.isfile(cache):
        with open(cache) as f:
            home = [l for l in f if l.startswith("CMAKE_HOME_DIRECTORY:")]
        if not home or home[0].split("=", 1)[1].strip() != source:
            shutil.rmtree(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    log_path = os.path.join(out_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    steps = []
    if not os.path.isfile(cache):
        steps.append(["cmake", "-S", source, "-B", out_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out_dir, "--target", "perfbench",
                  "perfbench_traced", "-j", jobs])
    with open(log_path, "w") as log:
        for cmd in steps:
            left = max(1, int(deadline - time.monotonic()))
            code, _, _ = run_process(cmd, left, log=log)
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return (os.path.join(out_dir, "perfbench"),
            os.path.join(out_dir, "perfbench_traced"))


def run_binary(binary, args):
    code, out, err = run_process([binary] + args, RUN_TIMEOUT_S)
    sys.stderr.write(err)
    result = None
    for line in out.splitlines():
        if line.startswith("PERFBENCH_RESULT "):
            result = json.loads(line[len("PERFBENCH_RESULT "):])
        else:
            print(line)
    if code != 0 or result is None:
        raise BenchError("%s exited with %d" % (os.path.basename(binary), code))
    return result


def pick(metrics, wanted, what):
    out = {}
    for spec in wanted:
        name = spec["name"]
        if name not in metrics:
            raise BenchError("%s metric %s was not produced" % (what, name))
        if metrics[name]["unit"] != spec["unit"]:
            raise BenchError("%s metric %s is in %s, BENCHMARK.json says %s" %
                             (what, name, metrics[name]["unit"], spec["unit"]))
        out[name] = {"value": float(metrics[name]["value"]),
                     "unit": spec["unit"]}
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the smoke-test inputs")
    args = parser.parse_args()

    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(ROOT, "src"))):
        raise BenchError("no setlib source tree next to perfbench/")
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    perfbench, perfbench_traced = build(build_dir())
    common = ["--seed", str(args.seed), "--size", args.size]

    if args.trace == 0:
        doc = run_binary(perfbench, ["--workload", args.workload,
                                     "--seconds", str(args.seconds)] + common)
        correct = doc["failed"] == 0 and doc["digest_stable"]
        pinned = PINNED_DIGESTS[args.workload]
        if args.seed == DEFAULT_SEED and args.size == "full":
            digest_ok = doc["digest"] == pinned
            print("  digest %s (pinned %s): %s" %
                  (doc["digest"], pinned, "match" if digest_ok else "MISMATCH"))
            correct = correct and digest_ok
        metrics = pick(doc["metrics"], spec["end_to_end"], "end-to-end")
        attempted, failed = doc["attempted"], doc["failed"]
    else:
        # Untraced iterations of every workload (as many as the traced
        # program's library pass runs): the reference for the tracing
        # overhead.
        untraced = {}
        attempted = failed = 0
        correct = True
        for workload in WORKLOADS:
            ref = run_binary(perfbench, [
                "--workload", workload,
                "--iterations", "2" if args.size == "full" else "1"] + common)
            untraced[workload] = ref["metrics"]["wall_s"]["value"]
            attempted += ref["attempted"]
            failed += ref["failed"]
        trace_file = os.path.join(
            build_dir(), "trace-%s-seed%d.json" % (args.workload, args.seed))
        doc = run_binary(perfbench_traced, ["--workload", args.workload,
                                            "--trace-out", trace_file] + common)
        produced = dict(doc["metrics"])
        for workload in WORKLOADS:
            traced_wall = produced[PREFIX[workload] + "trace.wall_s"]["value"]
            name = PREFIX[workload] + "trace.overhead_frac"
            produced[name] = {"value": traced_wall / untraced[workload] - 1.0,
                              "unit": "ratio"}
            print("  %s = %r ratio (traced wall %.4f s vs untraced %.4f s)" %
                  (name, produced[name]["value"], traced_wall,
                   untraced[workload]))
        print("  chrome trace: " + trace_file)
        metrics = pick(produced, spec["per_layer"], "per-layer")
        attempted += doc["attempted"]
        failed += doc["failed"]
        correct = correct and failed == 0

    print(json.dumps({"correct": bool(correct), "attempted": int(attempted),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, OSError, ValueError, TypeError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
