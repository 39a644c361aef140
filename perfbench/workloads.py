"""Seeded inputs and output checks for the three benchmark workloads.

Each workload is one *pass*: a list of argv lists for ``floqep.cli.main``
plus any config files they read.  Seed 0 gives the canonical inputs below;
other seeds perturb them inside ranges that keep the physics outcome (the
same EP pairs in the window, the same label chain around the loops), so
every seed can be checked.

- ``ep-map``: the only workload that runs the ``ep`` layer (candidate scan,
  pair continuation, Newton on the squared gap) and the ``cache`` layer.
  The window holds two EPs that refine and the (9,10) candidate, whose
  refinement fails, so the failure path is timed too.
- ``scenario``: loop transport along the 12->13->14->15->16 chain on the
  2-block determinant; no scan and no refinement runs.
- ``resonance4``: three 4-block resonance solves, the only workload on the
  generic (4-block) determinant path.
"""

from __future__ import annotations

import json
import math
import os
import random

# Frozen EP positions (wavelength nm, intensity 10^13 W/cm^2) of the
# (v, v+1) pairs around 540-660 nm, refined at the seed commit.
FROZEN_EPS = {
    (12, 13): (634.550198125094, 0.20519764071082286),
    (13, 14): (604.6043703272999, 0.22495077173965775),
    (14, 15): (583.1169154274359, 0.23841865816552196),
    (15, 16): (567.4373723760594, 0.2467433313464059),
}
EP_LAMBDA_TOL = 1e-3
EP_INTENSITY_TOL = 1e-5
GAP_TOL = 1e-8

# ep-map at seed 0.  The 540-660 nm window (6 candidates) takes about 50 s
# a pass; this narrower one keeps a pass near 22 s so a run fits the time
# budget, and still covers a failing candidate.  Seeds move each edge by a
# whole number of nm: the scan bisects on a power-of-two grid anchored at the
# lower edge, so whole-nm moves leave every candidate's seed wavelength
# unchanged.  A fractional move shifts them by a few thousandths of a nm, and
# that alone can make a refinement fail: window 594.942996588999 to
# 652.905095043547 nm loses the (12,13) EP ("resonances lost identity").
EP_WINDOW = (596.0, 655.0)
EP_PAIRS = [(12, 13), (13, 14)]
EP_CANDIDATES = 3          # the two pairs above plus the failing (9,10)
EP_ARGS = ["--v-max", "16", "--vplus-max", "5"]

SCENARIO_CHAIN = [12, 13, 14, 15, 16]
SCENARIO_I_FACTOR = 1.15
SCENARIO_D_LAMBDA = -5.0
SCENARIO_T_F = 30.0
SCENARIO_N_STEPS = 200
LOOP1_SURVIVAL = (0.10, 0.25)

RESONANCE_WAVELENGTH = 788.2
RESONANCE_INTENSITY = 1.0e12
# v = 11 and 13 are left out: at the corners of the seeded wavelength and
# intensity ranges their 4-block secant does not converge (rc 3).
RESONANCE_VS = [10, 12, 14]
# Seed-0 4-block energies (hartree) for v = 10, 12, 14.
FROZEN_RESONANCES = {
    10: complex(-0.020338572862507, -0.002191275772895),
    12: complex(-0.012309094124283, -9.600296206e-6),
    14: complex(-0.005252084719454, -0.000710335587977),
}
RESONANCE_TOL = 1e-8

NAMES = ("ep-map", "scenario", "resonance4")


class CheckFailure(Exception):
    """An output that contradicts what the workload's inputs guarantee."""


def make_pass(name: str, seed: int, workdir: str) -> dict:
    """Inputs of one pass of workload ``name``, written under ``workdir``.

    Returns ``{"argvs": [...], "out": dir, "expect": {...}}``: the outputs
    land under ``dir``, and ``expect`` is what the checks need besides
    them.  The same seed always gives the same argvs.  Paths in the argvs
    point into ``workdir``, which the caller empties between passes.
    """
    rng = random.Random(seed)
    out = os.path.join(workdir, "out")
    if name == "ep-map":
        lo, hi = EP_WINDOW
        if seed:
            lo += rng.randint(-3, 3)
            hi += rng.randint(-3, 3)
        argv = (["ep-map"] + EP_ARGS
                + ["--window", repr(lo), repr(hi),
                   "--cache", os.path.join(workdir, "cache.json"),
                   "--out", out])
        return {"argvs": [argv], "out": out, "expect": {"pairs": EP_PAIRS}}
    if name == "scenario":
        i_factor, d_lambda, t_f = SCENARIO_I_FACTOR, SCENARIO_D_LAMBDA, SCENARIO_T_F
        if seed:
            i_factor = rng.uniform(1.12, 1.18)
            d_lambda = rng.uniform(-5.5, -4.5)
            t_f = rng.uniform(30.0, 34.0)
        lines = [f"t-f = {t_f!r}", f"n-steps = {SCENARIO_N_STEPS}"]
        for i, (va, vb) in enumerate(zip(SCENARIO_CHAIN, SCENARIO_CHAIN[1:]), 1):
            lam, inten = FROZEN_EPS[(va, vb)]
            lines += [f"loop{i}.lambda0 = {lam!r}",
                      f"loop{i}.d-lambda = {d_lambda!r}",
                      f"loop{i}.i-max = {i_factor * inten!r}",
                      f"loop{i}.v-from = {va}",
                      f"loop{i}.v-to = {vb}"]
        cfg = os.path.join(workdir, "scenario.cfg")
        with open(cfg, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        return {"argvs": [["scenario", "--config", cfg, "--out", out]],
                "out": out, "expect": {"chain": SCENARIO_CHAIN}}
    if name == "resonance4":
        lam, inten, vs = RESONANCE_WAVELENGTH, RESONANCE_INTENSITY, RESONANCE_VS
        if seed:
            lam = rng.uniform(780.0, 796.0)
            inten = rng.uniform(0.8e12, 1.2e12)
        argvs = [["resonance", "--n-blocks", "4", "--steps", "8",
                  "--wavelength", repr(lam), "--intensity", repr(inten),
                  "--v", str(v), "--out", os.path.join(out, f"v{v}")]
                 for v in vs]
        frozen = [FROZEN_RESONANCES[v] for v in vs] if seed == 0 else None
        return {"argvs": argvs, "out": out,
                "expect": {"vs": vs, "frozen": frozen}}
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def _load(path):
    with open(path) as fh:
        return json.load(fh)["results"]


def _require(cond, msg):
    if not cond:
        raise CheckFailure(msg)


def check_pass(name: str, inputs: dict) -> dict:
    """Check the outputs of one pass; raise CheckFailure on the first
    contradiction.

    Returns ``{"results": r, "attempted": a, "failed": f}``: r verified
    results, out of a attempted operations of which f failed inside the
    program (refinement failures it reported).
    """
    out = inputs["out"]
    expect = inputs["expect"]
    if name == "ep-map":
        doc = _load(os.path.join(out, "ep_map.json"))
        _require(doc["n_cached"] == 0, f"n_cached = {doc['n_cached']}, want 0")
        _require(doc["n_records"] == len(doc["records"]),
                 "n_records disagrees with the record list")
        for rec in doc["records"]:
            pair = tuple(rec["pair"])
            _require(rec["gap_residual"] < GAP_TOL,
                     f"pair {pair}: gap_residual {rec['gap_residual']:.3e}")
            if pair in FROZEN_EPS:
                lam, inten = FROZEN_EPS[pair]
                _require(abs(rec["lambda_nm"] - lam) <= EP_LAMBDA_TOL,
                         f"pair {pair}: lambda {rec['lambda_nm']!r}, "
                         f"want {lam!r}")
                _require(abs(rec["intensity_1e13Wcm2"] - inten)
                         <= EP_INTENSITY_TOL,
                         f"pair {pair}: intensity "
                         f"{rec['intensity_1e13Wcm2']!r}, want {inten!r}")
        n_cand = doc["n_records"] + doc["n_failed"]
        _require(n_cand == EP_CANDIDATES,
                 f"{n_cand} candidates, want {EP_CANDIDATES}")
        _require(doc["n_failed"] >= 1,
                 "no refinement failed, so the failure path was not timed")
        found = {tuple(r["pair"]) for r in doc["records"]}
        for pair in expect["pairs"]:
            _require(pair in found, f"pair {pair} missing from ep_map.json")
        for p in ("ep_map.csv", "ep_map.svg"):
            _require(os.path.getsize(os.path.join(out, p)) > 0, f"{p} is empty")
        return {"results": doc["n_records"],
                "attempted": doc["n_records"] + doc["n_failed"],
                "failed": doc["n_failed"]}
    if name == "scenario":
        doc = _load(os.path.join(out, "scenario.json"))
        chain = expect["chain"]
        want = [[a, b] for a, b in zip(chain, chain[1:])]
        _require(doc["transfers"] == want,
                 f"transfers {doc['transfers']}, want {want}")
        surv = doc["survivals"]
        _require(len(surv) == len(want), "one survival per loop")
        _require(math.isclose(doc["cumulative"], math.prod(surv),
                              rel_tol=1e-12, abs_tol=0.0),
                 f"cumulative {doc['cumulative']!r} != product of survivals")
        lo, hi = LOOP1_SURVIVAL
        _require(lo <= surv[0] <= hi, f"loop-1 survival {surv[0]!r} "
                 f"outside {lo}-{hi}")
        _require(all(0.0 < p <= 1.0 for p in surv), "survival outside (0, 1]")
        for i in range(1, len(want) + 1):
            _require(os.path.getsize(os.path.join(out, f"loop{i}.csv")) > 0,
                     f"loop{i}.csv is empty")
        return {"results": len(want), "attempted": len(want), "failed": 0}
    if name == "resonance4":
        frozen = expect["frozen"]
        for i, v in enumerate(expect["vs"]):
            doc = _load(os.path.join(out, f"v{v}", "resonance.json"))
            e = complex(doc["energy_re_hartree"], doc["energy_im_hartree"])
            _require(not doc["from_cache"], f"v={v} came from a cache")
            _require(math.isfinite(e.real) and math.isfinite(e.imag),
                     f"v={v}: energy {e!r} is not finite")
            _require(e.imag <= 0.0, f"v={v}: Im E = {e.imag!r} > 0")
            if frozen is not None:
                _require(abs(e - frozen[i]) <= RESONANCE_TOL,
                         f"v={v}: E = {e!r}, want {frozen[i]!r}")
        n = len(expect["vs"])
        return {"results": n, "attempted": n, "failed": 0}
    raise ValueError(f"unknown workload {name!r}")
