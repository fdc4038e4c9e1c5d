#!/usr/bin/env python3
"""Compares two sets of rlcut_bench runs, or summarizes one set.

A set is a directory of per-run JSON files as `run.sh --out=DIR` (or
`rlcut_bench --out=DIR`) writes them; runs may sit in subdirectories.

  compare.py SET_A SET_B      one row per (workload, end-to-end metric):
                              medians, quartiles, n and a verdict
  compare.py --summary SET    every metric of every run, with unit and n
  compare.py --record SET_A SET_B --commit C
                              one history.jsonl line: both sets' medians

Verdicts use the bounds in BENCHMARK.json, except for plan quality when
both sets ran one and the same seed (SAME_SEED_BOUNDS). A metric is
"unresolved" when either set's run-to-run spread (interquartile range
over median) exceeds its bound, unless every run of B beats every run of
A; otherwise it is "regressed" or "improved" when B's median differs from
A's by more than the bound, and "ok" when it does not. Exits 1 if
anything regressed, 2 if the sets ran for different lengths.
"""

import argparse
import glob
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Plan quality is the program's output for the seed's instance: at one
# seed it repeats exactly (rlcut_bench checks that every rep yields the
# same plan), while the bound in BENCHMARK.json must also hold across
# seeds. Sets of one and the same seed are judged against these instead.
SAME_SEED_BOUNDS = {"plan_transfer_ms": 0.005, "plan_cost_usd": 0.005}


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def load_runs(set_dir, trace):
    """Per-run JSON documents of one trace mode, sorted by path."""
    pattern = os.path.join(set_dir, "**", f"*.trace{trace}.json")
    runs = []
    for path in sorted(glob.glob(pattern, recursive=True)):
        with open(path) as f:
            runs.append(json.load(f))
    return runs


def values_by_workload(runs):
    """{workload: {metric: [value per run]}}."""
    out = {}
    for run in runs:
        metrics = out.setdefault(run["workload"], {})
        for name, m in run["result"]["metrics"].items():
            metrics.setdefault(name, []).append(m["value"])
    return out


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def spread(values):
    med = statistics.median(values)
    q1, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def verdict(a, b, better, bound):
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1 if better == "lower" else -1
    worse = sign * (med_b - med_a) / med_a if med_a else 0.0
    b_always_better = all(sign * (y - x) < 0 for x in a for y in b)
    if spread(a) > bound or spread(b) > bound:
        return worse, "improved" if b_always_better else "unresolved"
    if worse > bound:
        return worse, "regressed"
    if -worse > bound:
        return worse, "improved"
    return worse, "ok"


def fmt(values):
    q1, q3 = quartiles(values)
    return (f"{statistics.median(values):.6g} [{q1:.6g}, {q3:.6g}] "
            f"n={len(values)}")


def compare(set_a, set_b):
    spec = load_spec()
    runs_a, runs_b = load_runs(set_a, 0), load_runs(set_b, 0)
    seconds = {run["seconds"] for run in runs_a + runs_b}
    if len(seconds) > 1:
        print(f"the sets ran for different lengths: {sorted(seconds)} s")
        return 2
    seeds = {run["seed"] for run in runs_a + runs_b}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if len(seeds) == 1:
        bounds.update(SAME_SEED_BOUNDS)
    a, b = values_by_workload(runs_a), values_by_workload(runs_b)
    regressed = 0
    print(f"{'workload':15} {'metric':18} {'A':42} {'B':42} "
          f"{'change':>8} {'bound':>6}  verdict")
    for workload in spec["workloads"]:
        name = workload["name"]
        for metric in spec["end_to_end"]:
            va = a.get(name, {}).get(metric["name"])
            vb = b.get(name, {}).get(metric["name"])
            if not va or not vb:
                print(f"{name:15} {metric['name']:18} missing in a set")
                regressed += 1
                continue
            bound = bounds[metric["name"]]
            worse, word = verdict(va, vb, metric["better"], bound)
            regressed += word == "regressed"
            print(f"{name:15} {metric['name']:18} {fmt(va):42} {fmt(vb):42} "
                  f"{100 * worse:+7.2f}% {100 * bound:5.1f}%  {word}")
    return 1 if regressed else 0


def sample_count(run, name):
    """What stands behind a reported value."""
    if name == "setup_s":
        return f"n={run['setup_s']['n']} set-ups"
    if name in ("partition_s", "plan_transfer_ms", "plan_cost_usd",
                "peak_rss_mb"):
        return f"n={len(run['rep_s'])} reps"
    for prefix, key in (("op_", "op_ms"), ("reopt_", "reopt_ms")):
        if name.startswith(prefix):
            return (f"n={run[key]['n']} over {len(run['rep_s'])} reps")
    # Per-layer values measured once per run (harness.cc, MeasureLayers).
    once = {
        "graph.build_s": f"n={run['setup_s']['n']} set-ups",
        "partition.evaluate_move_all_ns": "n=100000 calls",
        "partition.move_master_ns": "n=100000 calls",
        "rlcut.train_s_1t": "n=1 rep",
        "rlcut.scaling_4t": f"1 rep / {run['traced_rep_s']['n']} traced reps",
        "obs.trace_overhead_frac":
            f"{run['traced_rep_s']['n']} traced reps / 1 rep",
    }
    return once.get(name, f"n={run['traced_rep_s']['n']} traced reps")


def summary(set_dir):
    spec = load_spec()
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    status = 0
    for trace in (0, 1):
        for run in load_runs(set_dir, trace):
            result = run["result"]
            print(f"== {run['workload']} seed={run['seed']} trace={trace} "
                  f"nproc={run['nproc']}: correct={result['correct']} "
                  f"attempted={result['attempted']} "
                  f"failed={result['failed']} failed_frac="
                  f"{result['failed'] / max(1, result['attempted']):.3g}")
            status |= not result["correct"]
            for name, m in result["metrics"].items():
                status |= name not in names
                print(f"  {name:32} {m['value']:>16.6g} {m['unit']:12} "
                      f"{sample_count(run, name)}")
    return 1 if status else 0


def record(set_a, set_b, commit):
    def medians(set_dir):
        out = {}
        for trace in (0, 1):
            for wl, metrics in values_by_workload(
                    load_runs(set_dir, trace)).items():
                out.setdefault(wl, {}).update(
                    {k: statistics.median(v) for k, v in metrics.items()})
        return out

    runs = load_runs(set_a, 0)
    line = {
        "commit": commit,
        "nproc": runs[0]["nproc"] if runs else None,
        "seconds": runs[0]["seconds"] if runs else None,
        "sets": {"A": medians(set_a), "B": medians(set_b)},
    }
    print(json.dumps(line, sort_keys=True))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("sets", nargs="+")
    parser.add_argument("--summary", action="store_true")
    parser.add_argument("--record", action="store_true")
    parser.add_argument("--commit", default="")
    args = parser.parse_args()
    if args.summary:
        return summary(args.sets[0])
    if len(args.sets) != 2:
        parser.error("give two sets")
    if args.record:
        return record(args.sets[0], args.sets[1], args.commit)
    return compare(args.sets[0], args.sets[1])


if __name__ == "__main__":
    sys.exit(main())
