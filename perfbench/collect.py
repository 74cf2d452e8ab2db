#!/usr/bin/env python3
"""Runs perfbench over several seeds and saves each run's output.

    python3 perfbench/collect.py --out DIR [--workloads advise,serve_mixed]
        [--seeds 1-10] [--seconds S] [--trace 0|1]

Each run's standard output lands in DIR/<workload>-seed<N>[-trace].out,
its standard error next to it as .err. Summarize or compare the sets with
perfbench/bench_diff.py. Without --seconds, run_seconds from
BENCHMARK.json is used.
"""

import argparse
import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for workload in args.workloads.split(","):
        for seed in parse_seeds(args.seeds):
            stem = "%s-seed%d%s" % (workload, seed,
                                    "-trace" if args.trace else "")
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
                   "--workload", workload, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
            with open(out / (stem + ".out"), "w") as fout, \
                    open(out / (stem + ".err"), "w") as ferr:
                rc = subprocess.run(cmd, cwd=ROOT, stdout=fout,
                                    stderr=ferr).returncode
            last = (out / (stem + ".out")).read_text().strip().splitlines()
            print("%-28s rc=%d %s" % (stem, rc, last[-1][:150] if last else ""),
                  flush=True)


if __name__ == "__main__":
    main()
