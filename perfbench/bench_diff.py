#!/usr/bin/env python3
"""Summarizes one set of perfbench runs, or compares two.

    python3 perfbench/bench_diff.py RUNS            # medians, quartiles, spread
    python3 perfbench/bench_diff.py BASE NEW        # verdict per metric

A set is a directory of run outputs as perfbench/collect.py writes them
(one .out file per run: the perfbench-meta line, then the JSON result).
Runs are grouped by the workload named on their meta line. For a set of
traced runs (--trace 1) the summary lists the per-layer metrics instead,
and checks that runs of one workload and seed report identical exact
counts ("exact_counts" on the meta line).

For each workload and end-to-end metric the comparison prints both
medians and quartiles, the ratio NEW/BASE with its base, and a verdict:

  improved       NEW wins at least 9 of 10 seed-matched pairs and the
                 medians differ by more than BASE's own quartile spread;
  worse          NEW's median is worse than BASE's by more than the bound
                 fixed in BENCHMARK.json;
  unresolved     BASE's spread is wider than the bound, and not every NEW
                 run beats every BASE run;
  within bound   otherwise.

Spread is (Q3 - Q1) / median, with quartiles as statistics.quantiles(n=4)
gives them. The single-set summary flags every spread above the bound
(and, for information, above a third of it). Exit status: 0, or 1 when a
comparison finds a metric worse or a run that was not correct.
"""

import json
import pathlib
import statistics
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def load(directory):
    """Returns {workload: [(seed, result_dict, meta)]} and the bad runs."""
    runs, bad = {}, []
    for path in sorted(pathlib.Path(directory).glob("*.out")):
        lines = path.read_text().strip().splitlines()
        meta = next((json.loads(l.split(" ", 1)[1]) for l in lines
                     if l.startswith("perfbench-meta ")), None)
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            bad.append("%s: no result line" % path.name)
            continue
        if meta is None:
            bad.append("%s: no meta line" % path.name)
            continue
        if not result["correct"] or result["failed"]:
            bad.append("%s: correct=%s failed=%d" % (
                path.name, result["correct"], result["failed"]))
        runs.setdefault(meta["workload"], []).append(
            (meta["seed"], result, meta))
    return runs, bad


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else float("inf")


def values_of(runs, metric):
    return [r["metrics"][metric]["value"] for _, r, _ in runs
            if metric in r["metrics"]]


def check_exact(runs):
    """Runs of one workload and seed must report identical exact counts."""
    status = 0
    for workload, wruns in sorted(runs.items()):
        by_seed = {}
        for seed, _, meta in wruns:
            if "exact_counts" in meta:
                by_seed.setdefault(seed, []).append(meta["exact_counts"])
        for seed, counts in sorted(by_seed.items()):
            if len(counts) < 2:
                continue
            same = all(c == counts[0] for c in counts)
            print("%-12s seed %-4d %d traced runs: exact counts %s" % (
                workload, seed, len(counts),
                "identical" if same else "DIFFER"))
            if not same:
                status = 1
    return status


def summarize(spec, runs):
    traced = any(meta.get("trace") for w in runs.values() for _, _, meta in w)
    metrics = spec["per_layer"] if traced else spec["end_to_end"]
    print("%-12s %-34s %5s %14s %14s %14s %8s" % (
        "workload", "metric", "runs", "Q1", "median", "Q3", "spread"))
    for workload, wruns in sorted(runs.items()):
        for m in metrics:
            vals = values_of(wruns, m["name"])
            if not any(vals):  # a layer this workload does not exercise
                continue
            q1, med, q3 = quartiles(vals)
            s = spread(vals)
            flag = ""
            if "bound" in m:
                flag = ("  > bound %.3f" % m["bound"] if s > m["bound"] else
                        "  > bound/3" if s > m["bound"] / 3 else "")
            print("%-12s %-34s %5d %14.6g %14.6g %14.6g %8.4f%s" % (
                workload, m["name"], len(vals), q1, med, q3, s, flag))
    return check_exact(runs) if traced else 0


def verdict(metric, base, new, base_by_seed, new_by_seed):
    lower = metric["better"] == "lower"
    _, bmed, _ = quartiles(base)
    _, nmed, _ = quartiles(new)
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    worse_share = (nmed - bmed) / bmed if lower else (bmed - nmed) / bmed
    seeds = sorted(set(base_by_seed) & set(new_by_seed))
    if seeds:
        pairs = [(base_by_seed[s], new_by_seed[s]) for s in seeds]
    else:
        pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if better(n, b))
    base_iqr = quartiles(base)[2] - quartiles(base)[0]
    if pairs and wins >= 0.9 * len(pairs) and abs(nmed - bmed) > base_iqr:
        return "improved"
    if worse_share > metric["bound"]:
        return "worse"
    if spread(base) > metric["bound"]:
        all_better = all(better(n, b) for n in new for b in base)
        return "improved" if all_better else "unresolved"
    return "within bound"


def compare(spec, base_runs, new_runs):
    status = 0
    print("%-12s %-22s %24s %24s %22s  %s" % (
        "workload", "metric", "BASE median [Q1,Q3]", "NEW median [Q1,Q3]",
        "NEW/BASE (base)", "verdict"))
    for workload in sorted(set(base_runs) | set(new_runs)):
        b_runs = base_runs.get(workload, [])
        n_runs = new_runs.get(workload, [])
        for m in spec["end_to_end"]:
            base = values_of(b_runs, m["name"])
            new = values_of(n_runs, m["name"])
            if not base or not new:
                print("%-12s %-22s missing in %s" % (
                    workload, m["name"], "BASE" if not base else "NEW"))
                status = 1
                continue
            bq = quartiles(base)
            nq = quartiles(new)
            v = verdict(m, base, new,
                        {s: r["metrics"][m["name"]]["value"]
                         for s, r, _ in b_runs},
                        {s: r["metrics"][m["name"]]["value"]
                         for s, r, _ in n_runs})
            if v == "worse":
                status = 1
            print("%-12s %-22s %10.5g [%.5g,%.5g] %10.5g [%.5g,%.5g] "
                  "%7.4f (of %.5g %s)  %s" % (
                      workload, m["name"], bq[1], bq[0], bq[2], nq[1], nq[0],
                      nq[2], nq[1] / bq[1], bq[1], m["unit"], v))
    return status


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sets = [load(d) for d in sys.argv[1:]]
    status = 0
    for (_, bad), d in zip(sets, sys.argv[1:]):
        for b in bad:
            print("not correct: %s/%s" % (d, b))
            status = 1
    if len(sets) == 1:
        status = max(status, summarize(spec, sets[0][0]))
    else:
        status = max(status, compare(spec, sets[0][0], sets[1][0]))
    sys.exit(status)


if __name__ == "__main__":
    main()
