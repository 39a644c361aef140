"""Self-tests of the benchmark.

Run from the repository root (about three minutes on two cores):

    python3 -m pytest -q perfbench/selftest.py

The file name keeps these out of the default test collection: each traced
pass re-runs a full workload.
"""

from __future__ import annotations

import importlib
import json
import os
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# Exact per-pass counts at seed 0, measured at the seed commit.
SEED0_COUNTS = {
    "ep-map": {"floquet.determinant.calls": 6191,
               "bound_states.adiabatic_levels.calls": 37,
               "ep.approximate_eps.candidates": 3,
               "ep.refine_ep.calls": 3,
               "ep.refine_ep.failed": 1},
    "scenario": {"floquet.determinant.calls": 4645,
                 "floquet.build_system.calls": 812,
                 "loops.follow_resonance.calls": 4},
    "resonance4": {"floquet.determinant.calls": 255},
}


def _traced_pass(name, seed=0, argvs=None):
    runner = run.Runner(name, seed, deadline=float("inf"))
    try:
        if argvs is None:
            res, chk, err, _ = runner.run_pass(trace=True)
            assert err is None, err
        else:
            res = runner.worker(argvs, trace=True)
            assert res["codes"] == [0] * len(argvs)
        return res
    finally:
        runner.close()


def _bindings():
    sys.path.insert(0, run.SRC)
    mods = {layer: importlib.import_module(f"floqep.{layer}")
            for layer in set(tracer.FUNCTIONS) | set(tracer.METHODS)}
    snap = {}
    for mod in (m for n, m in sys.modules.items()
                if n == "floqep" or n.startswith("floqep.")):
        for attr, val in vars(mod).items():
            if callable(val):
                snap[(mod.__name__, attr)] = val
    for layer, pairs in tracer.METHODS.items():
        for cls, meth in pairs:
            snap[(cls, meth)] = getattr(mods[layer], cls).__dict__[meth]
    return mods, snap


def test_tracer_wraps_every_binding_and_restores():
    mods, before = _bindings()
    ep, cli, floquet = mods["ep"], mods["cli"], mods["floquet"]
    originals = (floquet.find_resonance, floquet.CoupledSystem.determinant)
    with pytest.raises(KeyError):
        with tracer.Tracer():
            assert ep.find_resonance is not originals[0]
            assert cli.find_resonance is ep.find_resonance
            assert cli.refine_ep is not before[("floqep.ep", "refine_ep")]
            assert floquet.CoupledSystem.determinant is not originals[1]
            raise KeyError("leave the block by an exception")
    _, after = _bindings()
    assert after.keys() == before.keys()
    changed = [k for k in before if after[k] is not before[k]]
    assert changed == []


def test_seed_gives_same_inputs(tmp_path):
    for name in workloads.NAMES:
        for seed in (0, 7):
            a = workloads.make_pass(name, seed, str(tmp_path))
            cfg_a = (tmp_path / "scenario.cfg").read_text() if name == "scenario" else ""
            b = workloads.make_pass(name, seed, str(tmp_path))
            cfg_b = (tmp_path / "scenario.cfg").read_text() if name == "scenario" else ""
            assert (a, cfg_a) == (b, cfg_b)
    argv = workloads.make_pass("ep-map", 0, str(tmp_path))["argvs"][0]
    assert argv[argv.index("--window") + 1:][:2] == ["596.0", "655.0"]
    r4 = workloads.make_pass("resonance4", 0, str(tmp_path))
    assert r4["expect"]["vs"] == [10, 12, 14]


@pytest.mark.parametrize("name", workloads.NAMES)
def test_seed0_counts_exact_and_repeatable(name):
    first = _traced_pass(name)["layers"]
    second = _traced_pass(name)
    for key, want in SEED0_COUNTS[name].items():
        assert first[key] == want, key
    counts = [k for k, v in first.items() if isinstance(v, int)]
    assert {k: first[k] for k in counts} == {k: second["layers"][k] for k in counts}
    layers = second["layers"]
    assert layers["floquet.determinant.calls"] >= 2 * layers["floquet.find_resonance.calls"]
    assert second["self_s_total"] <= second["wall_s"]
    # A wrong parent link subtracts child time twice and drives self times
    # below zero, which the bound above cannot see.
    with open(os.path.join(run.WORK, f"spans-{name}-seed0.json")) as fh:
        spans = json.load(fh)["spans"]
    assert min(tracer.self_times(spans)) >= 0.0
    assert (layers["floquet.determinant.self_s"]
            + layers["bound_states.vibrational_levels.self_s"]
            <= second["self_s_total"])


def test_full_window_ep_map_counts():
    """The 540-660 nm window of the original workload definition."""
    argvs = [["ep-map", "--v-max", "16", "--vplus-max", "5",
              "--window", "540", "660", "--cache", "cache.json",
              "--out", "out"]]
    layers = _traced_pass("ep-map", argvs=argvs)["layers"]
    assert layers["floquet.determinant.calls"] == 13259
    assert layers["bound_states.adiabatic_levels.calls"] == 73
    assert layers["ep.refine_ep.calls"] == 6
    assert layers["ep.refine_ep.failed"] == 2
