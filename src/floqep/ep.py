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

from .bound_states import adiabatic_levels, field_free_levels
from .errors import ConvergenceError, ModelError
from .floquet import build_system, intensity_walk
from .molecule import FieldPoint, MoleculeModel, RadialGrid, key_value
from .units import INTENSITY_UNIT

# reference intensity for the crossing diagnostic: small enough that the
# upper-well levels are field-independent, large enough to define the well
DIAGNOSTIC_INTENSITY = 1.0e3

_GAP_TOL = 1e-8
_NEWTON_ITERS = 25
_E_STEP = 1e-5         # hartree, stencil of D' and D''
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
    complex energy of the merged pair in hartree; n_blocks is the photon-block
    count of the model that refined it (None in files written without it).
    to_dict / from_dict give the one serialized form: the records of
    ep_map.json, of the solve cache and, flattened, of the CSV columns.
    """

    pair: tuple[int, int]
    lambda_ep: float
    intensity_ep: float
    gap_residual: float
    e_ep: complex
    v_plus: int | None = None
    n_blocks: int | None = None

    def __post_init__(self):
        if self.intensity_ep <= 0.0:
            raise ModelError("intensity_ep must be positive")

    def to_dict(self) -> dict:
        return {"pair": list(self.pair), "lambda_nm": self.lambda_ep,
                "intensity_1e13Wcm2": self.intensity_ep,
                "gap_residual": self.gap_residual,
                "e_ep": [self.e_ep.real, self.e_ep.imag],
                "v_plus": self.v_plus, "n_blocks": self.n_blocks}

    @classmethod
    def from_dict(cls, d: dict) -> EPRecord:
        return cls(pair=tuple(d["pair"]), lambda_ep=d["lambda_nm"],
                   intensity_ep=d["intensity_1e13Wcm2"],
                   gap_residual=d["gap_residual"],
                   e_ep=complex(d["e_ep"][0], d["e_ep"][1]),
                   v_plus=d.get("v_plus"), n_blocks=d.get("n_blocks"))


def cplus_minimum_wavelength(model: MoleculeModel) -> float:
    """Shortest wavelength whose one-photon crossing lies beyond the
    equilibrium distance of the attractive curve."""
    from .units import PHOTON_HARTREE_NM

    r = np.linspace(model.vg_curve.r_lo, 12.0, 2001)
    r = r[r > 0.2]
    vg = model.vg_curve(r)
    re = r[int(np.argmin(vg))]
    gap = model.vu_curve(re) - model.vg_curve(re)
    return PHOTON_HARTREE_NM / gap


def approximate_eps(model: MoleculeModel, v_range, vplus_range,
                    lambda_window: tuple[float, float],
                    grid: RadialGrid | None = None) -> list[EPCandidate]:
    """Coarse EP wavelengths from crossings of the two level families.

    Both level families are solved on ``grid`` (default RadialGrid()).  The
    field-free levels are ``field_free_levels``, the set every pair walk
    starts from.  The upper-well levels are computed once per wavelength of
    a table at DIAGNOSTIC_INTENSITY, _SCAN_STEP nm apart; every sign change
    of E_v - E_{v+}(lambda) in the table is located on a cubic spline
    through the table points around it, with no further level solves.
    Wavelengths whose crossing falls inside the equilibrium distance are
    excluded.  Pairs without a crossing are skipped silently.
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

    grid = grid if grid is not None else RadialGrid()
    levels = field_free_levels(model, grid)
    n_bound = len(levels)
    vmax_plus = max(vplus_range)

    def well_levels(lam):
        ls = adiabatic_levels(model, FieldPoint(lam, DIAGNOSTIC_INTENSITY),
                              vmax_plus, grid)
        return {l.v: l.energy for l in ls}

    # clipped to hi, the last two points can coincide (np.vander of the
    # crossing's table points is then singular), so keep each one once
    grid_lam = np.unique(np.minimum(np.arange(lo, hi + _SCAN_STEP, _SCAN_STEP), hi))
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
                # the interpolating polynomial through the 2-4 table points
                # around the sign change, which is the not-a-knot cubic
                # spline through them; it interpolates fa and fb, so it has
                # a real root in [la, lb] (at lb itself when fb is 0)
                la, lb = grid_lam[k], grid_lam[k + 1]
                near = [j for j in range(k - 1, k + 3)
                        if 0 <= j < len(grid_lam) and vp in table[j]]
                coef = np.linalg.solve(np.vander(grid_lam[near] - la, increasing=True),
                                       [ev - table[j][vp] for j in near])
                roots = [la + r.real for r in np.polynomial.polynomial.polyroots(coef)
                         if r.imag == 0]
                lam_c = float(min((r for r in roots if la <= r <= lb), default=lb))
                out.append(EPCandidate(v=v, v_partner=v + 1, v_plus=vp,
                                       lambda_guess=lam_c))
                break
    out.sort(key=lambda c: (c.v, c.v_plus))
    return out


def _walk_pair(model, pair, lam, intensities, grid, n_blocks):
    """``intensity_walk`` of two labelled resonances from their field-free
    energies, up ``intensities`` in 10^13 W/cm^2 at fixed lam."""
    v, w = pair
    grid = grid if grid is not None else RadialGrid()
    levels = field_free_levels(model, grid)
    if not (0 <= v < len(levels) and 0 <= w < len(levels) and v != w):
        raise ModelError(f"pair ({v}, {w}) is not two distinct levels of the "
                         f"{len(levels)} bound levels 0..{len(levels) - 1}")
    return intensity_walk(model, lam, [levels[v].energy, levels[w].energy],
                          np.asarray(intensities) * INTENSITY_UNIT, grid, n_blocks)


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
    for it in range(1, _NEWTON_ITERS + 1):
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
            raise ConvergenceError("singular double-root Jacobian") from None
        e += complex(dx[0], dx[1])
        lam += float(np.clip(dx[2], -4.0, 4.0))
        inten = max(inten + float(np.clip(dx[3], -0.04, 0.04)), 1e-4)
        if abs(e - e0) > radius:
            raise ConvergenceError(
                f"Newton iterate left the seed pair at step {it} "
                f"(half-gap {radius:.3e})")
    raise ConvergenceError(f"double-root Newton stalled with gap {gap:.3e} "
                           f"after {_NEWTON_ITERS} iterations")


def refine_ep(model: MoleculeModel, candidate: EPCandidate,
              grid: RadialGrid | None = None, *, n_blocks=2,
              i_cap=0.6) -> EPRecord:
    """Refine a candidate to a coalescence in the (wavelength, intensity)
    plane.

    The candidate's pair is continued from zero field up the intensity scan
    at the seed wavelength; the sample with the smallest gap seeds the
    double-root Newton of find_double_root on the matching determinant.  A
    failed Newton's message gets where that gap bottomed out: at the first
    sample ("no approach up to i-cap"), at the last ("gap still closing at
    i-cap") or in between ("interior minimum at sample k"), with the gap.
    """
    lam0 = candidate.lambda_guess
    intensities = i_cap / 30 * np.arange(1, 31)
    walk = _walk_pair(model, (candidate.v, candidate.v_partner), lam0,
                      intensities, grid, n_blocks)
    i0, pair, best_g, best_k = None, None, math.inf, 0
    for k, (i, walked) in enumerate(zip(intensities, walk), start=1):
        g = abs(walked[0] - walked[1])
        if g < best_g:
            i0, pair, best_g, best_k = i, walked, g, k
        elif g > 3.0 * best_g and k >= 3:
            break
    e1, e2 = pair

    def det_at(lam, inten):
        return build_system(model, FieldPoint(lam, inten * INTENSITY_UNIT),
                            grid, n_blocks=n_blocks).determinant

    try:
        lam, inten, e_ep, gap = find_double_root(
            det_at, 0.5 * (e1 + e2), lam0, i0, 0.5 * abs(e1 - e2))
    except ConvergenceError as ex:
        where = ("no approach up to i-cap" if best_k == 1
                 else "gap still closing at i-cap" if best_k == len(intensities)
                 else f"interior minimum at sample {best_k}")
        raise ConvergenceError(f"{ex}; {where} (gap {best_g:.3e})") from ex
    return EPRecord(pair=(candidate.v, candidate.v_partner),
                    lambda_ep=lam, intensity_ep=inten, gap_residual=gap,
                    e_ep=e_ep, v_plus=candidate.v_plus, n_blocks=n_blocks)


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
_CSV_INTS = ("v_plus", "n_blocks")   # written empty for None


def records_to_csv(records, path):
    """One row per record: the to_dict fields, with pair as "v-w", e_ep
    split into e_ep_re / e_ep_im and an empty v_plus or n_blocks for None."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["pair", *_CSV_FLOATS, "e_ep_re", "e_ep_im", *_CSV_INTS])
        for r in records:
            d = r.to_dict()
            floats = [d[k] for k in _CSV_FLOATS] + d["e_ep"]
            w.writerow(["{}-{}".format(*d["pair"])]
                       + [f"{x:.12g}" for x in floats]
                       + ["" if d[k] is None else d[k] for k in _CSV_INTS])


def records_from_csv(path):
    """Records from records_to_csv.  A missing column or a value that does
    not parse raises a ModelError that names the file and the column.  A
    file written before records stated n_blocks has no such column, and its
    records get None."""
    def pair(text):
        v, w = text.split("-")
        return [int(v), int(w)]

    out = []
    with open(path, newline="") as fh:
        for row in csv.DictReader(fh):
            d = {k: key_value(row, k, float, path) for k in _CSV_FLOATS}
            d["pair"] = key_value(row, "pair", pair, path)
            d["e_ep"] = [key_value(row, k, float, path)
                         for k in ("e_ep_re", "e_ep_im")]
            row.setdefault("n_blocks", "")
            for k in _CSV_INTS:
                d[k] = key_value(row, k, lambda t: int(t) if t else None, path)
            out.append(EPRecord.from_dict(d))
    return out
