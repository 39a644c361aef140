"""Repeat benchmark runs over seeds and summarize each metric.

Usage (from the repository root):

    python3 perfbench/spread.py [--trace-seed 0] [--out perfbench/BASELINE.json]

For every workload of BENCHMARK.json it runs ``run.py`` once per seed 1-10,
for BENCHMARK.json's ``run_seconds``, with tracing off, and
reports each end-to-end metric's median, quartiles and spread (the distance
between the first and third quartile as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them).  With ``--trace-seed``
it adds one traced run per workload at that seed.  ``--out`` writes the
summary together with every run's result and machine record.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


SEEDS = range(1, 11)


def bench(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited with "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    return {"seed": seed, "machine": json.loads(lines[-2]),
            "result": json.loads(lines[-1])}


def summarize(runs):
    values = {}
    for r in runs:
        for name, m in r["result"]["metrics"].items():
            values.setdefault(name, []).append(m["value"])
    out = {}
    for name, vals in values.items():
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med,
                     "n": len(vals)}
    return out


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out")
    args = ap.parse_args(argv)

    declared = {m["name"]: m for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    doc = {"run_seconds": seconds, "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [bench(w, s, seconds, 0) for s in SEEDS]
        summary = summarize(runs)
        entry = {"summary": summary, "runs": runs}
        print(f"{w}: {len(runs)} runs")
        for name, s in summary.items():
            m = declared[name]
            print(f"  {name:16s} median {s['median']:.6g} {m['unit']}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  "
                  f"spread {s['spread']:.4f}  bound {m['bound']}")
        if args.trace_seed is not None:
            traced = bench(w, args.trace_seed, seconds, 1)
            entry["traced"] = traced
            layers = traced["result"]["metrics"]
            print(f"  traced seed {args.trace_seed}: " + ", ".join(
                f"{k} {v['value']:.6g} {v['unit']}" for k, v in layers.items()))
        doc["workloads"][w] = entry
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")


if __name__ == "__main__":
    main()
