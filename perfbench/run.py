#!/usr/bin/env python3
"""Builds the benchmark binary from this checkout and runs one workload.

    python3 perfbench/run.py --workload advise|serve_mixed \
        --seed N --seconds S --trace 0|1

The last line of standard output is the JSON result; the line before it
("perfbench-meta {...}") describes the run. Build output goes to standard
error. Everything is built and written under .bench_build/ at the root of
the checkout.

BENCHMARK.json is the one list of metrics: the binary prints the raw
values it measured, and this script orders them as declared, attaches the
declared units, and checks that nothing is missing or undeclared.
"""

import argparse
import json
import math
import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
WORK_DIR = ROOT / ".bench_build" / "perfbench-work"
WORKLOADS = ("advise", "serve_mixed")
# The repository's default build type (see the root CMakeLists.txt).
BUILD_TYPE = "RelWithDebInfo"
RUN_TIMEOUT_S = 170
META_PREFIX = "perfbench-meta "


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: no library sources (src/) in this checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr).returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(step))
    return BUILD_DIR / "xia_perfbench"


def git_sha():
    # The checkout may not be a git repository; never look above it.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def label(measured, declared, trace):
    """Orders `measured` ({name: value}) as `declared` and attaches units.

    Returns (metrics, not_exercised, errors). A per-layer metric the
    workload does not exercise reads 0 and is listed in not_exercised; a
    missing end-to-end metric, an undeclared one, or a value that is not
    a finite number is an error.
    """
    metrics, not_exercised, errors = {}, [], []
    names = {m["name"] for m in declared}
    for name in measured:
        if name not in names:
            errors.append("metric %s is not declared in BENCHMARK.json" % name)
    for spec in declared:
        name = spec["name"]
        value = measured.get(name)
        if name not in measured:
            if not trace:
                errors.append("end-to-end metric %s is missing" % name)
            not_exercised.append(name)
            value = 0
        elif not isinstance(value, (int, float)) or not math.isfinite(value):
            errors.append("%s is not a finite number" % name)
            value = sys.float_info.max
        metrics[name] = {"value": value, "unit": spec["unit"]}
    return metrics, not_exercised, errors


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not 1 <= args.seconds <= 60:
        sys.exit("perfbench: --seconds must be within 1..60")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    binary = build()
    cmd = [str(binary), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", str(WORK_DIR), "--git-sha", git_sha()]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or len(lines) < 2 or \
            not lines[-2].startswith(META_PREFIX):
        sys.stderr.write(run.stdout)
        sys.exit("perfbench: the run gave no result (exit code %d)"
                 % run.returncode)
    meta = json.loads(lines[-2][len(META_PREFIX):])
    result = json.loads(lines[-1])

    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics, not_exercised, errors = label(result["metrics"], declared,
                                           args.trace)
    for error in errors:
        print("check failed: " + error, file=sys.stderr)
    if args.trace:
        meta["not_exercised"] = not_exercised
    result["correct"] = result["correct"] and not errors
    result["metrics"] = metrics
    for line in lines[:-2]:
        print(line)
    print(META_PREFIX + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
