#!/usr/bin/env python3
"""Builds and runs the layered end-to-end benchmark (e2ebench/e2e_bench.cc).

Run from the repository root:

    python3 e2ebench/run.py --workload trickle --seed 1 --seconds 10 --trace 0
    python3 e2ebench/run.py --smoke

The first form builds the engine and the benchmark program with CMake (Release) into
$CARGO_TARGET_DIR/e2ebench (default .bench_build/e2ebench), runs one
workload and passes its output through; the last line is the result JSON.
`--trace 1` prints the per-layer metrics instead of the end-to-end ones.

`--smoke` runs every workload at a tiny size, traced and untraced, and
checks that each metric named in BENCHMARK.json is emitted with its unit.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    return os.path.join(target, "e2ebench")


def build():
    """Configures (once) and builds the program; returns the binary path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("e2ebench: engine sources (src/) not found next to e2ebench/")
        sys.exit(2)
    out = build_dir()
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("e2ebench: cmake configure failed")
            sys.exit(2)
    cmd = ["cmake", "--build", out, "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
        log("e2ebench: build failed")
        sys.exit(2)
    return os.path.join(out, "e2e_bench")


def git_sha():
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"  # an exported checkout, not a clone
    try:
        return subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
            text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def run_once(binary, args, extra=(), echo=True):
    """Runs one workload; returns (exit code, stdout lines)."""
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--dir", os.path.join(build_dir(), "data"),
           "--git-sha", git_sha(), *extra]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("e2ebench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 3, []
    lines = proc.stdout.splitlines()
    if echo:
        sys.stdout.write(proc.stdout)
        sys.stdout.flush()
    return proc.returncode, lines


def parse_result(lines):
    if not lines:
        return None
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return None
    keys = {"correct", "attempted", "failed", "metrics"}
    return result if isinstance(result, dict) and set(result) == keys else None


def smoke():
    """Tiny runs of every workload; checks every named metric is emitted."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = build()
    problems = []
    for workload in [w["name"] for w in bench["workloads"]]:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            args = argparse.Namespace(workload=workload, seed=7, seconds=1,
                                      trace=trace)
            code, lines = run_once(binary, args,
                                   ["--scale", "0.02", "--setups", "1"],
                                   echo=False)
            result = parse_result(lines)
            tag = "%s trace=%d" % (workload, trace)
            if code != 0 or result is None:
                problems.append("%s: exit %d, no result" % (tag, code))
                continue
            if not result["correct"] or result["failed"] != 0:
                problems.append("%s: correct=%s failed=%s" %
                                (tag, result["correct"], result["failed"]))
            want = {m["name"]: m["unit"] for m in bench[section]}
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            if want != got:
                problems.append("%s: metrics differ: missing %s, extra %s, "
                                "unit mismatch %s" % (
                                    tag, sorted(set(want) - set(got)),
                                    sorted(set(got) - set(want)),
                                    sorted(k for k in want.keys() & got.keys()
                                           if want[k] != got[k])))
            log("smoke %s: %d problem(s) so far" % (tag, len(problems)))
    if problems:
        for p in problems:
            log("smoke FAILED: " + p)
        return 1
    print("smoke ok")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=["trickle", "bulk"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    binary = build()
    code, lines = run_once(binary, args)
    if code != 0:
        return code
    if parse_result(lines) is None:
        log("e2ebench: e2e_bench printed no result line")
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
