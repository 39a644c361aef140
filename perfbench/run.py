"""Benchmark for floqep: three seeded workloads through ``floqep.cli.main``.

Usage (from the repository root):

    python3 perfbench/run.py --workload ep-map --seed 0 --seconds 30 --trace 0

Workloads are ``ep-map``, ``scenario`` and ``resonance4`` (see
``workloads.py``).  A run first times set-up in fresh interpreters, then
runs passes, each in a fresh interpreter, while the next pass is expected
to end within ``--seconds``; every pass's outputs are checked.

With ``--trace 0`` the last stdout line reports the end-to-end metrics
(medians over the run's passes and set-ups).  With ``--trace 1`` the run
makes one traced pass and one untraced pass, and reports the per-layer
metrics of the traced one plus the tracing overhead (traced minus
untraced wall time).  The spans of the traced pass are written to
``.perfbench-work/spans-<workload>-seed<seed>.json``.

The last line is ``{"correct", "attempted", "failed", "metrics"}``: an
attempted operation is one ``cli.main`` call.  When a call returns non-zero
or the pass's outputs fail a check, every call of that pass counts as
failed, ``correct`` is false and the exit code is non-zero.  Refinement
failures that ``ep-map`` itself reports are outcomes, not failed calls;
the traced run gives them as ``failed_frac``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench-work")
SPEC = os.path.join(ROOT, "BENCHMARK.json")
SETUP_WORKERS = 9          # set-up-only interpreters per run, besides passes
DEADLINE_S = 170.0         # a run must end well inside 180 s


def machine_record() -> dict:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"cpu_model": model, "nproc": os.cpu_count()}


class Runner:
    """Starts worker interpreters for one run, in a private scratch
    directory under .perfbench-work that ``close`` removes."""

    def __init__(self, workload, seed, deadline):
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=WORK)
        self.n = 0

    def worker(self, argvs=(), trace=False):
        """Run one worker interpreter; return its result dict."""
        self.n += 1
        tag = os.path.join(self.tmp, f"w{self.n}")
        job = {"src": SRC, "argvs": [list(a) for a in argvs], "trace": trace,
               "result": tag + ".result.json",
               "spans": os.path.join(
                   WORK, f"spans-{self.workload}-seed{self.seed}.json")}
        with open(tag + ".job.json", "w") as fh:
            json.dump(job, fh)
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise RuntimeError("out of time before the run finished")
        with open(tag + ".log", "w") as log:
            proc = subprocess.run(
                [sys.executable, os.path.join(HERE, "worker.py"),
                 tag + ".job.json"], stdout=log, stderr=subprocess.STDOUT,
                cwd=self.tmp, timeout=timeout)
        if proc.returncode != 0 or not os.path.exists(job["result"]):
            with open(tag + ".log") as fh:
                tail = fh.read()[-2000:]
            raise RuntimeError(f"worker exited with {proc.returncode}:\n{tail}")
        with open(job["result"]) as fh:
            return json.load(fh)

    def run_pass(self, trace=False):
        """One checked pass.

        Returns (worker result, check result, error message or None, number
        of cli.main calls).
        """
        pdir = os.path.join(self.tmp, f"pass{self.n + 1}")
        os.makedirs(pdir)
        inputs = workloads.make_pass(self.workload, self.seed, pdir)
        res = self.worker(inputs["argvs"], trace=trace)
        bad = [c for c in res["codes"] if c != 0]
        try:
            if bad:
                raise workloads.CheckFailure(f"cli.main returned {bad}")
            chk = workloads.check_pass(self.workload, inputs)
            err = None
        except (workloads.CheckFailure, OSError, KeyError, ValueError) as ex:
            chk, err = None, f"{type(ex).__name__}: {ex}"
        shutil.rmtree(pdir, ignore_errors=True)
        return res, chk, err, len(inputs["argvs"])

    def close(self):
        shutil.rmtree(self.tmp, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    for need in (os.path.join(SRC, "floqep", "__init__.py"),
                 os.path.join(SRC, "floqep", "cli.py"), SPEC):
        if not os.path.isfile(need):
            print(f"error: {need} not found; run from a checkout that holds "
                  "the floqep sources", file=sys.stderr)
            return 2

    with open(SPEC) as fh:
        spec = json.load(fh)
    start = time.monotonic()
    machine = machine_record()
    machine["loadavg_before"] = list(os.getloadavg())
    runner = Runner(args.workload, args.seed, start + DEADLINE_S)
    try:
        runner.worker()                              # compiles bytecode, warms caches
        setups = [runner.worker()["setup_s"] for _ in range(SETUP_WORKERS)]
        passes, errors = [], []
        attempted = failed = 0
        t_meas = time.monotonic()
        while True:
            res, chk, err, n_ops = runner.run_pass(
                trace=bool(args.trace) and not passes)
            setups.append(res["setup_s"])
            attempted += n_ops
            if err is not None:
                failed += n_ops
                errors.append(err)
            passes.append((res, chk))
            if args.trace:
                if len(passes) == 2:
                    break
            elif time.monotonic() - t_meas + res["wall_s"] + 1.0 > args.seconds:
                break
    except (RuntimeError, subprocess.TimeoutExpired) as ex:
        print(f"error: {ex}", file=sys.stderr)
        return 1
    finally:
        runner.close()
    machine["loadavg_after"] = list(os.getloadavg())
    first = passes[0][0]
    machine.update(numpy=first["numpy"], scipy=first["scipy"],
                   python=first["python"], passes=len(passes),
                   setups=len(setups))

    if args.trace:
        (traced, chk), (plain, _) = passes
        layers = dict(traced["layers"])
        layers.update({
            "failed_frac": chk["failed"] / chk["attempted"] if chk else 1.0,
            "trace.wall_s": traced["wall_s"],
            "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
            "trace.self_s_total": traced["self_s_total"]})
        values, declared = layers, spec["per_layer"]
    else:
        walls = [r["wall_s"] for r, _ in passes]
        results = sum(c["results"] for _, c in passes if c)
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "results_per_min": 60.0 * results / sum(walls),
            "cpu_s": statistics.median(r["cpu_s"] for r, _ in passes),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r, _ in passes),
        }
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for e in errors:
        print(f"check failed: {e}", file=sys.stderr)
    print(json.dumps({"machine": machine, "workload": args.workload,
                      "seed": args.seed, "run_s": time.monotonic() - start}))
    print(json.dumps({"correct": not errors, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
