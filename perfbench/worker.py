"""One benchmark pass in a fresh interpreter.

Usage: python3 perfbench/worker.py JOB.json

The job names the source tree, the argv lists for ``floqep.cli.main`` (none
for a set-up-only worker), whether to trace, and where to write the result.
The worker first times set-up: importing floqep and its CLI, loading the
``h2plus`` model and building the CLI parser.  It then calls
``cli.main(argv)`` in-process for each argv and times the pass.  A fresh
interpreter per pass keeps any in-process memo filled by one pass from
speeding up the next, which a user running the CLI would not see.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _cpu(who):
    r = resource.getrusage(who)
    return r.ru_utime + r.ru_stime


def main(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    src = job["src"]
    sys.path.insert(0, src)

    import floqep
    from floqep import cli

    floqep.load_molecule("h2plus")
    cli._build_parser()
    setup_s = time.perf_counter() - T0

    pkg_dir = os.path.realpath(os.path.dirname(floqep.__file__))
    if os.path.commonpath([pkg_dir, os.path.realpath(src)]) != os.path.realpath(src):
        raise SystemExit(f"floqep was imported from {pkg_dir}, not from {src}")

    import numpy
    import scipy

    out = {"setup_s": setup_s, "python": sys.version.split()[0],
           "numpy": numpy.__version__, "scipy": scipy.__version__}
    argvs = job["argvs"]
    if argvs:
        tracer = None
        if job["trace"]:
            sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
            from tracer import Tracer, layer_metrics, self_times
            tracer = Tracer().install()
        cpu0 = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN)
        t = time.perf_counter()
        try:
            codes = [cli.main(list(a)) for a in argvs]
        finally:
            wall = time.perf_counter() - t
            if tracer is not None:
                tracer.remove()
        cpu = _cpu(resource.RUSAGE_SELF) + _cpu(resource.RUSAGE_CHILDREN) - cpu0
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        out.update(codes=codes, wall_s=wall, cpu_s=cpu, peak_rss_mb=rss_kb / 1024.0)
        if tracer is not None:
            tracer.write(job["spans"])
            out["layers"] = layer_metrics(tracer.spans)
            out["self_s_total"] = sum(self_times(tracer.spans))
    with open(job["result"], "w") as fh:
        json.dump(out, fh)


if __name__ == "__main__":
    main(sys.argv[1])
