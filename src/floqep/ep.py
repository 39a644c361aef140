"""Locate and refine exceptional points in the (wavelength, intensity) plane.

The search runs in two stages.  A coarse stage scans the quasi-bound levels
of the upper adiabatic well against the field-free levels and records every
wavelength where the two families cross; each crossing seeds a candidate.
A refinement stage walks the candidate pair up an intensity scan at the
seed wavelength and starts a Newton iteration from the sample with the
smallest gap.  An EP is a double root of the matching determinant,
D(E) = 0 and dD/dE = 0 (Kato, Perturbation Theory for Linear Operators,
1966), so the iteration solves those four real equations for
(Re E, Im E, lambda, I) without assigning roots to branches.  Its
certificate: every iterate stays within half the seed pair's gap of the
pair's midpoint, so the double root lies between the walked pair, and the
root gap of the local quadratic D + D' x + D'' x^2 / 2 falls below 1e-8
within a fixed iteration budget.
"""

from __future__ import annotations

import cmath
import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.interpolate import CubicSpline

from .bound_states import adiabatic_levels, vibrational_levels
from .errors import ConvergenceError, ModelError
from .floquet import build_system, continuation, find_resonance, step_character
from .molecule import FieldPoint, MoleculeModel, RadialGrid
from .units import INTENSITY_UNIT

# reference intensity for the crossing diagnostic: small enough that the
# upper-well levels are field-independent, large enough to define the well
DIAGNOSTIC_INTENSITY = 1.0e3

_GAP_TOL = 1e-8
_NEWTON_ITERS = 25
_E_STEP = 1e-5         # hartree, stencil of D' and D''
_MAX_JUMP = 5e-4       # hartree, largest move of either root in one walk step
_TRUST_JUMPS = 4.0     # pair-solve trust radius around the guess, in _MAX_JUMP
_FIT_POINTS = 6        # recent walk points in each root's linear prediction
_D_LAMBDA = 1e-3       # nm, forward-difference step of the Newton Jacobian
_D_INTENSITY = 1e-5    # 10^13 W/cm^2, likewise
_SCAN_STEP = 4.0       # nm, wavelength spacing of the candidate level table


@dataclass(frozen=True)
class EPCandidate:
    """A crossing-derived seed for the refinement stage."""

    v: int
    v_partner: int
    v_plus: int
    lambda_guess: float


@dataclass(frozen=True)
class EPRecord:
    """A refined coalescence of two resonances.

    intensity_ep is stored in units of 10^13 W/cm^2; e_ep is the common
    complex energy of the merged pair in hartree.  to_dict / from_dict give
    the one serialized form: the records of ep_map.json, of the solve cache
    and, flattened, of the CSV columns.
    """

    pair: tuple[int, int]
    lambda_ep: float
    intensity_ep: float
    gap_residual: float
    e_ep: complex
    v_plus: int | None = None

    def __post_init__(self):
        if self.intensity_ep <= 0.0:
            raise ModelError("intensity_ep must be positive")

    def to_dict(self) -> dict:
        return {"pair": list(self.pair), "lambda_nm": self.lambda_ep,
                "intensity_1e13Wcm2": self.intensity_ep,
                "gap_residual": self.gap_residual,
                "e_ep": [self.e_ep.real, self.e_ep.imag],
                "v_plus": self.v_plus}

    @classmethod
    def from_dict(cls, d: dict) -> EPRecord:
        return cls(pair=tuple(d["pair"]), lambda_ep=d["lambda_nm"],
                   intensity_ep=d["intensity_1e13Wcm2"],
                   gap_residual=d["gap_residual"],
                   e_ep=complex(d["e_ep"][0], d["e_ep"][1]),
                   v_plus=d.get("v_plus"))


@dataclass
class SideScan:
    """Intensity-scan summary on one side of an EP."""

    wavelength: float
    re_crossings: int
    width_crossings: int
    min_width_split: float
    characters: tuple[str, str]


@dataclass
class SignatureReport:
    """Crossing/tweezer verification of a refined EP."""

    ep: EPRecord
    side_low: SideScan
    side_high: SideScan
    interchanged: bool
    contaminated: bool
    valid: bool


def cplus_minimum_wavelength(model: MoleculeModel) -> float:
    """Shortest wavelength whose one-photon crossing lies beyond the
    equilibrium distance of the attractive curve."""
    from .units import PHOTON_HARTREE_NM

    r = np.linspace(model.vg_curve.r_lo if np.isfinite(model.vg_curve.r_lo) else 0.3,
                    12.0, 2001)
    r = r[r > 0.2]
    vg = model.vg_curve.eval_at(r)
    re = r[int(np.argmin(vg))]
    gap = model.vu_curve.eval_at(re) - model.vg_curve.eval_at(re)
    return PHOTON_HARTREE_NM / gap


def crossing_radius(model: MoleculeModel, wavelength: float) -> float | None:
    """Radius where the one-photon dressed curves cross, or None."""
    from .units import photon_energy

    omega = photon_energy(wavelength)
    r = np.linspace(0.3, 20.0, 4001)
    f = model.vu_curve.eval_at(r) - model.vg_curve.eval_at(r) - omega
    sign = np.signbit(f)
    flips = np.nonzero(sign[1:] != sign[:-1])[0]
    if len(flips) == 0:
        return None
    k = flips[0]
    lo, hi = r[k], r[k + 1]
    for _ in range(40):
        mid = 0.5 * (lo + hi)
        fm = (model.vu_curve.eval_at(mid) - model.vg_curve.eval_at(mid) - omega)
        if (fm > 0) == (f[k] > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def approximate_eps(model: MoleculeModel, v_range, vplus_range,
                    lambda_window: tuple[float, float]) -> list[EPCandidate]:
    """Coarse EP wavelengths from crossings of the two level families.

    The upper-well levels are computed once per wavelength of a table at
    DIAGNOSTIC_INTENSITY, _SCAN_STEP nm apart; every sign change of
    E_v - E_{v+}(lambda) in the table is located on a cubic spline through
    the table points around it, with no further level solves.  Wavelengths
    whose crossing falls inside the equilibrium distance are excluded.  Pairs
    without a crossing are skipped silently.
    """
    v_range = list(v_range)
    vplus_range = list(vplus_range)
    if not v_range or not vplus_range:
        return []
    lo, hi = lambda_window
    lam_min = cplus_minimum_wavelength(model)
    lo = max(lo, lam_min * 1.001)
    if hi <= lo:
        return []

    levels = vibrational_levels(model.vg_curve, model.reduced_mass,
                                r_min=0.5, r_max=25.0, n_points=6001)
    n_bound = len(levels)
    vmax_plus = max(vplus_range)

    def well_levels(lam):
        try:
            ls = adiabatic_levels(model, FieldPoint(lam, DIAGNOSTIC_INTENSITY),
                                  vmax_plus)
        except ModelError:
            return {}
        return {l.v: l.energy for l in ls}

    grid_lam = np.arange(lo, hi + _SCAN_STEP, _SCAN_STEP)
    grid_lam[-1] = min(grid_lam[-1], hi)
    table = [well_levels(lam) for lam in grid_lam]

    out = []
    for v in v_range:
        if v < 0 or v + 1 >= n_bound:
            continue
        ev = levels[v].energy
        for vp in vplus_range:
            for k in range(len(grid_lam) - 1):
                ea = table[k].get(vp)
                eb = table[k + 1].get(vp)
                if ea is None or eb is None:
                    continue
                fa, fb = ev - ea, ev - eb
                if fa == 0.0 or fa * fb > 0.0:
                    continue
                # cubic spline over the table points around the sign change;
                # it interpolates fa and fb, so it has a root in [la, lb]
                # (at lb itself when fb is 0)
                la, lb = grid_lam[k], grid_lam[k + 1]
                near = [j for j in range(k - 1, k + 3)
                        if 0 <= j < len(grid_lam) and vp in table[j]]
                spline = CubicSpline(grid_lam[near], [ev - table[j][vp] for j in near])
                lam_c = float(next((r for r in spline.solve(0.0, extrapolate=False)
                                    if la <= r <= lb), lb))
                rx = crossing_radius(model, lam_c)
                if rx is None:
                    continue
                out.append(EPCandidate(v=v, v_partner=v + 1, v_plus=vp,
                                       lambda_guess=lam_c))
                break
    out.sort(key=lambda c: (c.v, c.v_plus))
    return out


def _walk_pair(model, pair, lam, intensities, grid, n_blocks):
    """Continue two labelled resonances up an intensity scan at fixed lam.

    Starts from the pair's field-free energies at I = 0 and yields the pair
    at each of ``intensities`` in turn, on the step-halving driver
    ``continuation``.  A step fails when a solve fails, the two roots
    cannot be assigned unambiguously, or a root moves farther than
    _MAX_JUMP.  A solve fails as soon as its secant strays _TRUST_JUMPS
    jumps from the prediction: predictions sit close to the last point, so
    a root that far off would fail the jump test anyway.  Predictions are a
    linear fit in I per root over the last _FIT_POINTS accepted points.
    """
    v, w = pair
    grid = grid if grid is not None else RadialGrid()
    levels = vibrational_levels(model.vg_curve, model.reduced_mass,
                                r_min=grid.r_min, r_max=grid.r_max,
                                n_points=grid.n_points)
    if w >= len(levels):
        raise ModelError(f"pair ({v}, {w}) exceeds the "
                         f"{len(levels)} bound levels")
    radius = _TRUST_JUMPS * _MAX_JUMP

    def step(points, inten):
        guess = points[-1][1]
        if len(points) >= 3:
            recent = points[-_FIT_POINTS:]
            di = np.subtract([i for i, _ in recent], inten)
            a = np.column_stack([np.ones_like(di), di])
            coef = np.linalg.lstsq(a, np.array([e for _, e in recent]),
                                   rcond=None)[0]
            guess = tuple(coef[0])
        system = build_system(model, FieldPoint(lam, inten * INTENSITY_UNIT),
                              grid, n_blocks=n_blocks)
        r1 = find_resonance(system, guess[0], radius=radius)
        r2 = find_resonance(system, guess[1], deflate=(r1.energy,), radius=radius)
        found = (r1.energy, r2.energy)
        # assign found roots to predicted branches by summed distance
        if (abs(found[0] - guess[1]) + abs(found[1] - guess[0])
                < abs(found[0] - guess[0]) + abs(found[1] - guess[1])):
            found = (found[1], found[0])
        if abs(found[0] - found[1]) < 1e-13:
            raise ConvergenceError("resonances lost identity during "
                                   "continuation", last_value=found[0])
        last = points[-1][1]
        if max(abs(found[0] - last[0]), abs(found[1] - last[1])) > _MAX_JUMP:
            raise ConvergenceError("branch moved too far in one step",
                                   last_value=found[0])
        return found

    start = (complex(levels[v].energy), complex(levels[w].energy))
    yield from continuation([(0.0, start)], intensities, step)


def _taylor(det, e, h):
    """D, D' and D'' at e from three determinants h apart."""
    dm, d0, dp = det(e - h), det(e), det(e + h)
    return d0, (dp - dm) / (2.0 * h), (dp - 2.0 * d0 + dm) / (h * h)


def _quadratic_gap(d0, d1, d2):
    """Distance between the two roots of D + D' x + D'' x^2 / 2."""
    if d2 == 0:
        return math.inf
    return abs(2.0 * cmath.sqrt(d1 * d1 - 2.0 * d0 * d2) / d2)


def find_double_root(det_at, e0, lam0, i0, radius):
    """Newton on D = dD/dE = 0 for (Re E, Im E, lambda, I).

    det_at(lambda_nm, intensity_1e13) returns the matching determinant
    E -> D(E) of that field point.  D is analytic in E, so the E columns of
    the Jacobian are D', i D' (and D'', i D''); the lambda and I columns are
    forward differences on stepped systems.  Steps in lambda and I are
    capped.  Every iterate must stay within ``radius`` of e0 (the seed
    pair's midpoint and half-gap), so an accepted double root lies between
    the seed pair; it is accepted once the root gap of the local quadratic
    falls below 1e-8 within 25 steps.  Returns (lambda, intensity, E, gap).
    """
    e, lam, inten = complex(e0), float(lam0), float(i0)
    for _ in range(_NEWTON_ITERS):
        d0, d1, d2 = _taylor(det_at(lam, inten), e, _E_STEP)
        gap = _quadratic_gap(d0, d1, d2)
        if gap < _GAP_TOL:
            return lam, inten, e, gap
        cols = []
        for dl, di in ((_D_LAMBDA, 0.0), (0.0, _D_INTENSITY)):
            s0, s1, _ = _taylor(det_at(lam + dl, inten + di), e, _E_STEP)
            cols.append(((s0 - d0) / (dl + di), (s1 - d1) / (dl + di)))
        jac = np.array([[d1, 1j * d1, cols[0][0], cols[1][0]],
                        [d2, 1j * d2, cols[0][1], cols[1][1]]])
        try:
            dx = np.linalg.solve(np.vstack([jac.real, jac.imag]),
                                 -np.array([d0.real, d1.real, d0.imag, d1.imag]))
        except np.linalg.LinAlgError:
            raise ConvergenceError("singular double-root Jacobian",
                                   last_value=e) from None
        e += complex(dx[0], dx[1])
        lam += float(np.clip(dx[2], -4.0, 4.0))
        inten = max(inten + float(np.clip(dx[3], -0.04, 0.04)), 1e-4)
        if abs(e - e0) > radius:
            raise ConvergenceError(
                f"Newton iterate left the seed pair: |E - E0| = "
                f"{abs(e - e0):.3e} > half-gap {radius:.3e}", last_value=e)
    raise ConvergenceError(f"double-root Newton stalled with gap {gap:.3e} "
                           f"after {_NEWTON_ITERS} iterations",
                           iterations=_NEWTON_ITERS, last_value=e)


def refine_ep(model: MoleculeModel, candidate: EPCandidate,
              grid: RadialGrid | None = None, *, n_blocks=2,
              i_cap=0.6) -> EPRecord:
    """Refine a candidate to a coalescence in the (wavelength, intensity)
    plane.

    The candidate's pair is continued from zero field up the intensity scan
    at the seed wavelength; the sample with the smallest gap seeds the
    double-root Newton of find_double_root on the matching determinant.
    """
    lam0 = candidate.lambda_guess
    intensities = i_cap / 30 * np.arange(1, 31)
    walk = _walk_pair(model, (candidate.v, candidate.v_partner), lam0,
                      intensities, grid, n_blocks)
    i0, pair, best_g = None, None, math.inf
    for k, (i, walked) in enumerate(zip(intensities, walk), start=1):
        g = abs(walked[0] - walked[1])
        if g < best_g:
            i0, pair, best_g = i, walked, g
        elif g > 3.0 * best_g and k >= 3:
            break
    if pair is None:
        raise ConvergenceError("no gap minimum along the intensity scan")
    e1, e2 = pair

    def det_at(lam, inten):
        return build_system(model, FieldPoint(lam, inten * INTENSITY_UNIT),
                            grid, n_blocks=n_blocks).determinant

    lam, inten, e_ep, gap = find_double_root(
        det_at, 0.5 * (e1 + e2), lam0, i0, 0.5 * abs(e1 - e2))
    return EPRecord(pair=(candidate.v, candidate.v_partner),
                    lambda_ep=lam, intensity_ep=inten, gap_residual=gap,
                    e_ep=e_ep, v_plus=candidate.v_plus)


def verify_signature(model: MoleculeModel, ep: EPRecord, *, grid=None,
                     n_blocks=2, neighbors=()) -> SignatureReport:
    """Check the crossing/tweezer signature on either side of an EP.

    Scans intensity through the EP at lambda_ep -/+ 0.05 nm.  A valid EP
    shows the real parts crossing on exactly one side with the widths
    avoiding (tweezer), and the mirrored pattern on the other side.  The
    characters come from stepping the tracked pair a little past the scan
    top, which keeps branch identity where independent probes would hop.
    The report is flagged contaminated when the scan cannot isolate this
    EP: a record in neighbors shares a branch and sits within 0.05 nm, a
    side shows more than one crossing, or the pair tracking itself
    collides.
    """
    i_lo = max(0.25 * ep.intensity_ep, 1e-3)
    i_hi = 1.7 * ep.intensity_ep
    crowded = any(n is not ep
                  and set(n.pair) & set(ep.pair)
                  and abs(n.lambda_ep - ep.lambda_ep) <= 0.05
                  and n.intensity_ep <= i_hi
                  for n in neighbors)

    def scan(lam):
        intensities = [*np.linspace(i_lo, i_hi, 25), 1.02 * i_hi]
        pairs = list(_walk_pair(model, ep.pair, lam, intensities, grid, n_blocks))
        gap = np.array([e1 - e2 for e1, e2 in pairs[:-1]])
        chars = tuple(step_character(e, p) for e, p in zip(pairs[-2], pairs[-1]))
        re_x = int(np.sum(np.diff(np.sign(gap.real)) != 0))
        w_x = int(np.sum(np.diff(np.sign(gap.imag)) != 0))
        return SideScan(wavelength=lam, re_crossings=re_x, width_crossings=w_x,
                        min_width_split=float(np.min(np.abs(gap.imag))),
                        characters=chars)

    collided = False
    sides = []
    for lam in (ep.lambda_ep - 0.05, ep.lambda_ep + 0.05):
        try:
            sides.append(scan(lam))
        except ConvergenceError:
            collided = True
            sides.append(SideScan(wavelength=lam, re_crossings=0,
                                  width_crossings=0, min_width_split=math.inf,
                                  characters=("Unclassified", "Unclassified")))
    low, high = sides
    contaminated = (crowded or collided
                    or low.re_crossings + low.width_crossings > 2
                    or high.re_crossings + high.width_crossings > 2)
    crossing_side = None
    for a, b in ((low, high), (high, low)):
        if a.re_crossings == 1 and a.width_crossings == 0 \
                and b.re_crossings == 0 and b.width_crossings == 1:
            crossing_side = a
    interchanged = (low.characters == high.characters[::-1]
                    and low.characters[0] != low.characters[1])
    valid = crossing_side is not None and not contaminated
    return SignatureReport(ep=ep, side_low=low, side_high=high,
                           interchanged=interchanged,
                           contaminated=contaminated, valid=valid)


def cluster_bands(records) -> list[list[EPRecord]]:
    """Split an ordered record list into its wavelength clusters."""
    bands = []
    for rec in sorted(records, key=lambda r: -r.lambda_ep):
        if bands and bands[-1][-1].lambda_ep - rec.lambda_ep <= 50.0:
            bands[-1].append(rec)
        else:
            bands.append([rec])
    return bands


_CSV_FLOATS = ("lambda_nm", "intensity_1e13Wcm2", "gap_residual")


def records_to_csv(records, path):
    """One row per record: the to_dict fields, with pair as "v-w", e_ep
    split into e_ep_re / e_ep_im and an empty v_plus for None."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair", *_CSV_FLOATS, "e_ep_re", "e_ep_im", "v_plus"])
        for r in records:
            d = r.to_dict()
            floats = [d[k] for k in _CSV_FLOATS] + d["e_ep"]
            w.writerow(["{}-{}".format(*d["pair"])]
                       + [f"{x:.12g}" for x in floats]
                       + ["" if d["v_plus"] is None else d["v_plus"]])


def records_from_csv(path):
    """Records from records_to_csv; a file in the older layout without the
    e_ep and v_plus columns loads with e_ep = 0 and v_plus = None."""
    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            d = {k: float(row[k]) for k in _CSV_FLOATS}
            d["pair"] = [int(v) for v in row["pair"].split("-")]
            d["e_ep"] = [float(row.get(k) or 0.0) for k in ("e_ep_re", "e_ep_im")]
            d["v_plus"] = int(row["v_plus"]) if row.get("v_plus") else None
            out.append(EPRecord.from_dict(d))
    return out
