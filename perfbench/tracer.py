"""Layer tracing from outside the program.

``Tracer`` replaces the public functions of each floqep module with timing
wrappers at *every* module binding: ``ep``, ``loops`` and ``cli`` import
``find_resonance``, ``build_system``, ``vibrational_levels`` and friends by
name, so patching only the defining module would miss most calls.  Methods
(``CoupledSystem.determinant``, ``SolveCache.get/put/flush``) are wrapped on
the class.  Every call becomes one span kept in memory; ``remove`` puts the
original objects back.  ``layer_metrics`` turns the spans of one pass into
the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# layer -> public functions of floqep.<layer> that are traced
FUNCTIONS = {
    "molecule": ["load_molecule"],
    "bound_states": ["vibrational_levels", "adiabatic_levels"],
    "floquet": ["build_system", "find_resonance", "classify_resonance"],
    "ep": ["approximate_eps", "refine_ep"],
    "loops": ["follow_resonance", "run_scenario"],
    "svg": ["line_plot", "ep_map_plot"],
    "cli": ["main", "cmd_levels", "cmd_adiabatic", "cmd_resonance",
            "cmd_ep_map", "cmd_ep_refine", "cmd_loop", "cmd_scenario"],
}
# layer -> (class, method) pairs wrapped on the class
METHODS = {
    "floquet": [("CoupledSystem", "determinant")],
    "cache": [("SolveCache", "get"), ("SolveCache", "put"),
              ("SolveCache", "flush")],
}

PACKAGE = "floqep"

# span fields
NAME, START, END, PARENT, FAILED, EXTRA = range(6)


def _extra_find_resonance(args, kwargs, result):
    return bool(kwargs.get("deflate"))


def _extra_follow_resonance(args, kwargs, result):
    return len(result.samples) - 1          # accepted steps


def _extra_approximate_eps(args, kwargs, result):
    return len(result)


_EXTRAS = {
    "floquet.find_resonance": _extra_find_resonance,
    "loops.follow_resonance": _extra_follow_resonance,
    "ep.approximate_eps": _extra_approximate_eps,
}


class Tracer:
    """Context manager that records one span per traced call.

    A span is ``[name, start, end, parent, failed, extra]``: ``parent`` is
    the index of the enclosing span (-1 at top level), ``failed`` is set
    when the call raised, and ``extra`` holds a per-function detail (whether
    a resonance solve deflated, a loop's accepted steps, a scan's candidate
    count).
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        extra = _EXTRAS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, False, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[FAILED] = True
                raise
            finally:
                span[END] = clock()
                stack.pop()
            if extra is not None:
                span[EXTRA] = extra(args, kwargs, result)
            return result

        return traced

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in sorted(sys.modules.items()) if m is not None
                   and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        by_name = {m.__name__: m for m in modules}
        # id(original) -> wrapper; each wrapper holds its original, so the
        # ids stay unique while the tracer is installed
        wrappers = {}
        for layer, names in FUNCTIONS.items():
            mod = by_name[f"{PACKAGE}.{layer}"]
            for fname in names:
                fn = getattr(mod, fname)
                wrappers[id(fn)] = self._wrap(f"{layer}.{fname}", fn)
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                w = wrappers.get(id(val))
                if w is not None:
                    self._saved.append((mod, attr, val))
                    setattr(mod, attr, w)
        for layer, pairs in METHODS.items():
            mod = by_name[f"{PACKAGE}.{layer}"]
            for cls_name, meth in pairs:
                cls = getattr(mod, cls_name)
                fn = cls.__dict__[meth]
                self._saved.append((cls, meth, fn))
                setattr(cls, meth, self._wrap(f"{layer}.{meth}", fn))
        return self

    def remove(self):
        for owner, attr, val in reversed(self._saved):
            setattr(owner, attr, val)
        self._saved.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path):
        """Write the spans as JSON (times relative to the first span)."""
        t0 = self.spans[0][START] if self.spans else 0.0
        rows = [[s[NAME], s[START] - t0, s[END] - t0, s[PARENT], s[FAILED],
                 s[EXTRA]] for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "failed",
                                  "extra"], "spans": rows}, fh)


def self_times(spans) -> list[float]:
    """Duration of each span minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def _under(spans, name) -> list[bool]:
    """For each span, whether some ancestor (or itself) is called name."""
    flags = []
    for s in spans:
        flags.append(s[NAME] == name or (s[PARENT] >= 0 and flags[s[PARENT]]))
    return flags


def layer_metrics(spans) -> dict[str, float]:
    """Per-layer counts and times of one traced pass."""
    selfs = self_times(spans)
    calls, failed, total, self_s = {}, {}, {}, {}
    for s, st in zip(spans, selfs):
        n = s[NAME]
        calls[n] = calls.get(n, 0) + 1
        failed[n] = failed.get(n, 0) + int(s[FAILED])
        total[n] = total.get(n, 0.0) + s[END] - s[START]
        self_s[n] = self_s.get(n, 0.0) + st

    def c(n):
        return calls.get(n, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    in_refine = _under(spans, "ep.refine_ep")
    in_follow = _under(spans, "loops.follow_resonance")
    det, solve = "floquet.determinant", "floquet.find_resonance"
    dets_in_solves = sum(1 for s in spans if s[NAME] == det and s[PARENT] >= 0
                         and spans[s[PARENT]][NAME] == solve)
    dets_in_refine = sum(1 for s, f in zip(spans, in_refine)
                         if f and s[NAME] == det)
    pair_solves = sum(1 for s, f in zip(spans, in_refine)
                      if f and s[NAME] == solve and s[EXTRA])
    loop_solves = sum(1 for s, f in zip(spans, in_follow)
                      if f and s[NAME] == solve)
    loop_steps = sum(s[EXTRA] or 0 for s in spans
                     if s[NAME] == "loops.follow_resonance")

    def layer_self(prefix):
        return sum((v for n, v in self_s.items() if n.startswith(prefix)), 0.0)

    return {
        "floquet.determinant.calls": c(det),
        "floquet.determinant.self_s": self_s.get(det, 0.0),
        "floquet.determinant.us_per_call": 1e6 * ratio(self_s.get(det, 0.0), c(det)),
        "floquet.build_system.calls": c("floquet.build_system"),
        "floquet.build_system.self_s": self_s.get("floquet.build_system", 0.0),
        "floquet.find_resonance.calls": c(solve),
        "floquet.find_resonance.failed": failed.get(solve, 0),
        "floquet.dets_per_solve": ratio(dets_in_solves, c(solve)),
        "floquet.classify_resonance.calls": c("floquet.classify_resonance"),
        "bound_states.vibrational_levels.calls": c("bound_states.vibrational_levels"),
        "bound_states.vibrational_levels.self_s":
            self_s.get("bound_states.vibrational_levels", 0.0),
        "bound_states.adiabatic_levels.calls": c("bound_states.adiabatic_levels"),
        "ep.approximate_eps.s": total.get("ep.approximate_eps", 0.0),
        "ep.approximate_eps.candidates": sum(
            s[EXTRA] or 0 for s in spans if s[NAME] == "ep.approximate_eps"),
        "ep.refine_ep.calls": c("ep.refine_ep"),
        "ep.refine_ep.failed": failed.get("ep.refine_ep", 0),
        "ep.refine_ep.s": total.get("ep.refine_ep", 0.0),
        "ep.refine_ep.dets_per_call": ratio(dets_in_refine, c("ep.refine_ep")),
        "ep.pair_solves": pair_solves,
        "loops.follow_resonance.calls": c("loops.follow_resonance"),
        "loops.follow_resonance.s": total.get("loops.follow_resonance", 0.0),
        "loops.solves_per_step": ratio(loop_solves, loop_steps),
        "cache.put.calls": c("cache.put"),
        "cache.flush.s": total.get("cache.flush", 0.0),
        "molecule.load_molecule.s": total.get("molecule.load_molecule", 0.0),
        "cli.self_s": layer_self("cli."),
        "svg.self_s": layer_self("svg."),
    }
