"""Bound vibrational levels of single-channel radial potentials.

Shooting solver on a uniform grid: the outward and inward Numerov branches
come from tridiagonal boundary-value solves, eigenvalues are bracketed by node
counting (Sturm-safe, no missed or duplicated levels) and polished by the
matching-derivative (Cooley) Newton correction.  Used for
field-free diabatic levels and for quasi-bound levels of the upper adiabatic
potential treated as a plain well with a box boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dgtsv as _dgtsv

from .errors import ConvergenceError, ModelError
from .molecule import FieldPoint, MoleculeModel, adiabatic_potentials

__all__ = ["BoundLevel", "LevelSet", "adiabatic_levels", "vibrational_levels"]

_ETOL = 1e-12          # |dE| convergence for the Newton polish
_MAX_NEWTON = 200


@dataclass(frozen=True)
class BoundLevel:
    """One vibrational level: node count v and energy relative to the
    dissociation asymptote (negative for bound states of an open well)."""

    v: int
    energy: float


class LevelSet(list):
    """List of BoundLevel with a truncation flag.

    ``truncated`` is set when fewer levels exist than were requested.
    """

    def __init__(self, items=(), truncated: bool = False):
        super().__init__(items)
        self.truncated = truncated


class _Shooter:
    """Numerov shooting machinery for one potential on one grid.

    Works on the shifted potential (reference already subtracted), so the
    dissociation cap sits at 0 when the reference is the asymptote.
    """

    def __init__(self, v: np.ndarray, h: float, mass: float):
        self.v = v
        self.h = h
        self.mass = mass
        self.n = len(v)
        self.c2 = h * h * mass / 6.0   # t_k = c2 (V_k - E)

    def _f(self, e: float) -> np.ndarray:
        return 1.0 - self.c2 * (self.v - e)

    def _boundary_value(self, f: np.ndarray, lo: int, hi: int,
                        left: float, right: float) -> np.ndarray:
        """psi_{lo-1}..psi_{hi+1} solving the Numerov rows lo..hi, with psi_{lo-1}
        = left and psi_{hi+1} = right pinned (one tridiagonal solve)."""
        b = np.zeros((hi - lo + 1, 1))
        b[0, 0] += f[lo - 1] * left
        b[-1, 0] += f[hi + 1] * right
        *_, x, info = _dgtsv(-f[lo:hi], 12.0 - 10.0 * f[lo:hi + 1], -f[lo + 1:hi + 1], b,
                             overwrite_dl=1, overwrite_d=1, overwrite_du=1, overwrite_b=1)
        if info:
            raise ConvergenceError("singular Numerov boundary-value problem")
        return np.concatenate(([left], x[:, 0], [right]))

    def count_nodes(self, e: float) -> int:
        """Sign changes of the left-regular solution across the box; equals
        the number of box eigenvalues below e.

        The boundary-value solution with psi_0 = 0, psi_{n-1} = 1 is that
        solution rescaled, so it changes sign at the same places.
        """
        psi = np.sign(self._boundary_value(self._f(e), 1, self.n - 2, 0.0, 1.0)[1:])
        return int(np.count_nonzero(psi[:-1] * psi[1:] < 0.0))

    def _match_index(self, e: float) -> int:
        allowed = np.nonzero(self.v < e)[0]
        m = int(allowed[-1]) if len(allowed) else int(np.argmin(self.v))
        return min(max(m, 3), self.n - 4)

    def newton_step(self, e: float) -> float:
        """Matching-derivative (Cooley) energy correction at e."""
        f = self._f(e)
        fl = f.tolist()
        m0 = self._match_index(e)

        # the outward branch on grid indices 0..m0+2 and the inward one on
        # m0-1..n-1, in the shooting normalisation out[1] = inw[n-2] = 1
        out = self._boundary_value(f, 1, m0 + 1, 0.0, 1.0)
        inw = self._boundary_value(f, m0, self.n - 2, 1.0, 0.0)
        if out[1] == 0.0 or inw[-2] == 0.0:
            raise ConvergenceError("a shooting branch underflowed at its wall", last_value=e)
        out = out / out[1]
        inw = inw / inw[-2]     # inw[j] lives on grid index m0 - 1 + j

        # keep the match away from a node of either branch
        m, best_w = m0, -1.0
        for mm in (m0, m0 - 1, m0 + 1, m0 + 2):
            w = min(abs(out[mm]), abs(inw[mm - m0 + 1]))
            if w > best_w:
                m, best_w = mm, w
        po, pi = out[m], inw[m - m0 + 1]
        if po == 0.0 or pi == 0.0:
            raise ConvergenceError("matching point fell on a node", last_value=e)

        phi_out = out[: m + 1] / po
        phi_in = inw[m - m0 + 1:] / pi
        norm = float(phi_out @ phi_out) + float(phi_in @ phi_in) - 1.0

        ym1 = fl[m - 1] * phi_out[m - 1]
        y0 = fl[m]
        yp1 = fl[m + 1] * phi_in[1]
        d = (-ym1 + 2.0 * y0 - yp1 + 12.0 * (1.0 - fl[m])) / (self.h * self.h)
        return d / (2.0 * self.mass * norm)

    def solve_level(self, v_target: int, e_lo: float, e_hi: float) -> float:
        """Eigenvalue with exactly v_target interior nodes inside (e_lo, e_hi).

        Caller guarantees count_nodes(e_lo) <= v_target < count_nodes(e_hi).
        """
        lo, hi = e_lo, e_hi
        klo, khi = self.count_nodes(lo), self.count_nodes(hi)
        if not klo <= v_target < khi:
            raise ConvergenceError(f"level {v_target} not inside the bracket",
                                   last_value=lo)
        # shrink until the bracket holds a single eigenvalue
        while not (klo == v_target and khi == v_target + 1):
            mid = 0.5 * (lo + hi)
            k = self.count_nodes(mid)
            if k <= v_target:
                lo, klo = mid, k
            else:
                hi, khi = mid, k
            if hi - lo < 1e-15 * max(1.0, abs(lo)):
                raise ConvergenceError(f"bracket collapsed for level {v_target}",
                                       last_value=mid)

        e = 0.5 * (lo + hi)
        prev = math.inf
        for it in range(_MAX_NEWTON):
            try:
                de = self.newton_step(e)
            except ConvergenceError:
                de = math.nan
            if not math.isfinite(de) or not (lo < e + de < hi):
                # fall back to bisection on node count
                k = self.count_nodes(e)
                if k <= v_target:
                    lo = e
                else:
                    hi = e
                e = 0.5 * (lo + hi)
                if hi - lo < _ETOL:
                    return e
                prev = math.inf
                continue
            e += de
            if abs(de) < _ETOL:
                return e
            # quadratic convergence exhausted: accept the noise floor
            if abs(de) >= 0.5 * prev and abs(de) < 1e3 * _ETOL * max(1.0, abs(e)):
                return e
            prev = abs(de)
        raise ConvergenceError(f"level {v_target} did not converge", iterations=_MAX_NEWTON,
                               last_value=e)


def _domain(potential, r_min, r_max):
    lo = getattr(potential, "r_lo", None)
    hi = getattr(potential, "r_hi", None)
    if r_min is None:
        r_min = lo if lo is not None else 0.1
    if r_max is None:
        r_max = hi if (hi is not None and math.isfinite(hi)) else 30.0
    if not r_max > r_min:
        raise ModelError(f"empty radial domain [{r_min}, {r_max}]")
    return float(r_min), float(r_max)


def vibrational_levels(potential, mass: float, v_max: int | None = None, *,
                       r_min: float | None = None, r_max: float | None = None,
                       n_points: int = 12001, asymptote: float | None = None) -> LevelSet:
    """Bound levels v = 0..v_max of a single-channel radial potential.

    ``potential`` is any callable of R (bohr) returning hartree; curve objects
    expose their domain and dissociation limit, otherwise pass ``asymptote``
    (energies are referenced to it, and only levels below it count as bound).
    With no finite asymptote the box spectrum is returned and ``v_max`` is
    required.  Returns fewer levels with ``truncated`` set when the well runs
    out of bound states.
    """
    if mass <= 0:
        raise ModelError(f"mass must be positive, got {mass}")
    if v_max is not None and v_max < 0:
        raise ModelError(f"v_max must be non-negative, got {v_max}")
    r_lo, r_hi = _domain(potential, r_min, r_max)
    r = np.linspace(r_lo, r_hi, n_points)
    vv = np.asarray(potential(r), dtype=float)

    if asymptote is None:
        asymptote = getattr(potential, "asymptote", None)
    if asymptote is None and v_max is None:
        raise ModelError("v_max is required for a potential without a dissociation limit")

    ref = float(asymptote) if asymptote is not None else 0.0
    vv = vv - ref

    imin = int(np.argmin(vv))
    if imin in (0, len(vv) - 1):
        raise ModelError("potential has no minimum inside the domain")
    floor = float(vv[imin])

    shooter = _Shooter(vv, (r_hi - r_lo) / (n_points - 1), mass)

    if asymptote is not None:
        cap = -1e-13
        if floor >= cap:
            return LevelSet([], truncated=v_max is not None)
        n_bound = shooter.count_nodes(cap)
    else:
        cap = max(float(vv[0]), float(vv[-1]), floor + 1.0)
        for _ in range(60):
            n_bound = shooter.count_nodes(cap)
            if n_bound > v_max:
                break
            cap = floor + 2.0 * (cap - floor)
        else:
            raise ConvergenceError(f"could not bracket {v_max + 1} box levels",
                                   last_value=cap)

    want = n_bound if v_max is None else min(v_max + 1, n_bound)
    levels = []
    lo = floor + 1e-14 * max(1.0, abs(floor))
    for v in range(want):
        e = shooter.solve_level(v, lo, cap)
        levels.append(BoundLevel(v=v, energy=e))
        lo = e + max(1e-13, 1e-13 * abs(e))
    truncated = v_max is not None and want < v_max + 1
    return LevelSet(levels, truncated=truncated)


def adiabatic_levels(model: MoleculeModel, field: FieldPoint, vplus_max: int) -> LevelSet:
    """Quasi-bound levels of the upper adiabatic potential V_plus.

    V_plus is treated as a plain single-channel well with a box boundary at
    25 bohr (6001 points); continuum coupling is ignored at this stage.
    Energies come out relative to the shared dissociation limit.  Returns an
    empty set when the well holds no level at this field point.
    """
    if field.intensity == 0.0:
        raise ModelError("zero-field adiabat undefined at crossing")
    ref = model.vg_curve.asymptote

    def vplus(r):
        return adiabatic_potentials(model, field, r)[0] - ref

    r_lo = max(model.vg_curve.r_lo, model.vu_curve.r_lo, 0.3)
    try:
        return vibrational_levels(vplus, model.reduced_mass, vplus_max,
                                  r_min=r_lo, r_max=25.0, n_points=6001,
                                  asymptote=0.0)
    except ModelError as err:
        if "no minimum" in str(err):
            return LevelSet([], truncated=True)
        raise
