"""Coupled-channel quasienergies with outgoing-wave boundary conditions.

The time-periodic coupling of the two electronic states is expanded in photon
blocks; adjacent blocks alternate g/u character and differ by one photon, and
the radiative term couples neighbours through -E0 mu(R)/2.  The resulting
block-tridiagonal radial problem is discretized on a uniform grid whose outer
part is rotated into the complex plane (exterior scaling), which turns the
outgoing Siegert solutions into decaying ones; a zero boundary at both contour
ends then selects complex quasienergies E = E_R - i Gamma/2.

Eigenvalues are roots of the matching determinant det(R_m - G_{m+1}^-1) of
the renormalized Numerov ratio matrices at an interior point m; a dedicated
one-point stencil bridges the real/rotated step mismatch at the scaling corner.
For every block count the ratios come from two banded boundary-value solves
of the Numerov equations, outward from the origin and inward from the contour
end (the ratios are the block pivots of that banded LU; B. R. Johnson,
J. Chem. Phys. 69, 4678 (1978)).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import zgbsv as _zgbsv

from .errors import ConvergenceError, GridError, ModelError
from .molecule import FieldPoint, MoleculeModel, RadialGrid
from .units import HARTREE_TO_INVCM

__all__ = [
    "CoupledSystem",
    "Resonance",
    "build_system",
    "classify_resonance",
    "continuation",
    "find_resonance",
    "ramp_resonance",
    "step_character",
]

_DE_TOL = 1e-12        # secant convergence on |dE|
_FLOOR_STEP = 1e-8     # |dE| below this is the local, superlinear regime
_MAX_SECANT = 50
_IM_TOL = 1e-12        # tolerated positive imaginary part before rejection
_MAX_STEP = 2e-3       # cap on a single secant step, hartree
_MAX_SPLITS = 14       # step halvings allowed on the way to one continuation target


@dataclass(frozen=True)
class Resonance:
    """One complex quasienergy E = E_R - i Gamma/2; ``residual`` is
    |matching determinant| at convergence."""

    energy: complex
    width: float
    residual: float = 0.0

    def __post_init__(self):
        if self.width < 0:
            raise ValueError(f"width must be non-negative, got {self.width}")
        if self.energy.imag > _IM_TOL:
            raise ValueError(f"resonance on the wrong sheet: Im E = {self.energy.imag:.3e}")

    @property
    def width_invcm(self) -> float:
        return self.width * HARTREE_TO_INVCM


def _block_list(n_blocks: int) -> list[tuple[str, int]]:
    if n_blocks < 2 or n_blocks % 2:
        raise ModelError(f"n_blocks must be an even count >= 2, got {n_blocks}")
    top = n_blocks // 2 - 1
    return [("g" if n % 2 == 0 else "u", n) for n in range(top, top - n_blocks, -1)]


class CoupledSystem:
    """Discretized coupled problem, ready for determinant evaluation.

    Immutable after construction; precomputes all energy-independent grid
    quantities so one determinant evaluation costs two banded solves.
    """

    def __init__(self, model: MoleculeModel, field: FieldPoint, grid: RadialGrid,
                 n_blocks: int = 2, matching_index: int | None = None):
        self.model = model
        self.field = field
        self.grid = grid
        self.blocks = _block_list(n_blocks)

        vg, vu = model.vg_curve, model.vu_curve
        corner_r = grid.points()[grid.corner_index]
        for crv in (vg, vu, model.dipole):
            if corner_r < crv.continuation_start - 1e-9:
                raise GridError(
                    f"ecs_radius must lie at or beyond the analytic tail region "
                    f"(r >= {crv.continuation_start})")

        z = grid.contour()
        c = grid.corner_index
        x = np.real(z[:c])
        mass = model.reduced_mass
        omega = field.omega
        self.reference = vg.asymptote

        def on_contour(crv):
            # the table before the corner; from the corner on, the analytic
            # tail that the corner stencil differentiates
            return np.concatenate([crv(x), crv.eval_at(z[c:])])

        curves = {"g": vg, "u": vu}
        vals = {state: on_contour(crv) for state, crv in curves.items()}
        diag = [vals[state] + n * omega - self.reference for state, n in self.blocks]
        self._vdiag = diag
        # off-diagonal of W = 2M(V - E)
        self._woff = -mass * field.e0 * on_contour(model.dipole)

        h = grid.step
        b = h * cmath.exp(1j * grid.ecs_angle)
        p = np.full(len(z), h * h / 12.0, dtype=complex)
        p[c + 1:] = b * b / 12.0
        self._p = p
        self._2m = 2.0 * mass
        self._h, self._b, self._corner = h, b, c

        if matching_index is None:
            gidx = [i for i, (s, n) in enumerate(self.blocks) if (s, n) == ("g", 0)][0]
            matching_index = int(np.argmin(np.real(diag[gidx][: c])))
        if not 2 <= matching_index <= c - 3:
            raise GridError(f"matching index {matching_index} must sit between the "
                            f"inner boundary and the scaling corner")
        self.matching_index = matching_index

        self._check_resolution()
        self._corner_data(curves, z[c])

    def _check_resolution(self):
        c = self._corner
        re_v = [np.real(v[: c + 1]) for v in self._vdiag]
        spread = max(float(v[0]) for v in re_v) - min(float(v.min()) for v in re_v)
        if self._h * math.sqrt(self._2m * max(spread, 1e-6)) > 1.0:
            raise GridError("grid too coarse for the de Broglie resolution "
                            "at this energy scale")

    def _corner_data(self, curves, zc):
        """Derivatives of W at the scaling corner zc, for the corner stencil."""
        nb = len(self.blocks)
        v1 = np.zeros((nb, nb), dtype=complex)
        v2 = np.zeros_like(v1)
        for i, (state, _) in enumerate(self.blocks):
            v1[i, i] = curves[state].d1(zc)
            v2[i, i] = curves[state].d2(zc)
        coef = -0.5 * self.field.e0
        mu1 = coef * self.model.dipole.d1(zc)
        mu2 = coef * self.model.dipole.d2(zc)
        for i in range(nb - 1):
            v1[i, i + 1] = v1[i + 1, i] = mu1
            v2[i, i + 1] = v2[i + 1, i] = mu2
        self._w1c = self._2m * v1
        self._w2c = self._2m * v2

    # -- corner stencil ----------------------------------------------------
    def _corner_matrices(self, e: complex):
        a, b = self._h, self._b
        eye = np.eye(len(self.blocks), dtype=complex)
        w0 = self._wmat(self._corner, e)
        pp = a * b * (b * b - a * a) / 6.0
        qq = a * b * (a ** 3 + b ** 3) / 24.0
        cp = a / (b * (a + b))
        cm = -b / (a * (a + b))
        c0 = (b - a) / (a * b)
        pw = pp * w0 + 2.0 * qq * self._w1c
        a_plus = a * eye - pw * cp
        a_minus = b * eye - pw * cm
        a_zero = ((a + b) * eye + 0.5 * a * b * (a + b) * w0 + pp * self._w1c
                  + qq * (self._w2c + w0 @ w0) + pw * c0)
        return a_plus, a_minus, a_zero

    def _wmat(self, k: int, e: complex) -> np.ndarray:
        nb = len(self.blocks)
        w = np.zeros((nb, nb), dtype=complex)
        for i in range(nb):
            w[i, i] = self._2m * (self._vdiag[i][k] - e)
        for i in range(nb - 1):
            w[i, i + 1] = w[i + 1, i] = self._woff[k]
        return w

    # -- determinant -------------------------------------------------------
    def determinant(self, e: complex) -> complex:
        """det(R_m - G_{m+1}^-1) at the matching point; zero at quasienergies.

        The Numerov rows 1..m (outward) and m+1..n-2 (inward) are solved for
        psi with psi_{m+1} = I, resp. psi_m = I, pinned; the ratios follow from
        the solutions next to the matching point.
        """
        m = self.matching_index
        eye = np.eye(len(self.blocks), dtype=complex)
        fm = eye - self._p[m] * self._wmat(m, e)
        fm1 = eye - self._p[m + 1] * self._wmat(m + 1, e)
        psi_out = self._solve_rows(e, 1, m, -fm1, inward=False)[-1]
        psi_in = self._solve_rows(e, m + 1, len(self._p) - 2, -fm, inward=True)[0]
        r = fm1 @ np.linalg.inv(fm @ psi_out)
        g_inv = fm1 @ psi_in @ np.linalg.inv(fm)
        return complex(np.linalg.det(r - g_inv))

    def _solve_rows(self, e: complex, lo: int, hi: int, rhs: np.ndarray,
                    inward: bool) -> np.ndarray:
        """psi_lo..psi_hi, shape (hi - lo + 1, nb, nb), from the Numerov rows lo..hi.

        psi = I is pinned next to the range (at lo - 1 when ``inward``, else at
        hi + 1), so ``rhs`` is minus that row's coupling to it; psi = 0 at the
        other end.  Band layout of ``zgbsv`` with kl = ku = nb + 1, one column
        per (grid point, block).  Row c is the corner stencil; every other row
        is the Numerov recursion, which reads W at c like at any point.
        """
        nb = len(self.blocks)
        kb = hi - lo + 1
        kl = nb + 1
        mid = 2 * kl                          # band row of the main diagonal
        p = self._p[lo: hi + 1]
        wd = self._2m * (np.stack([v[lo - 1: hi + 2] for v in self._vdiag]) - e)
        wo = self._woff[lo - 1: hi + 2]
        c = self._corner

        band = np.zeros((3 * kl + 1, nb, kb), dtype=complex, order="F")

        def put(dk, i, j, coef):
            """Coefficients of psi_{k+dk, j} in the rows (k, i), k = lo..hi."""
            row = mid - dk * nb - j + i
            if dk > 0:
                band[row, j, 1:] = coef[:-1]
            elif dk < 0:
                band[row, j, :-1] = coef[1:]
            else:
                band[row, j] = coef

        # (I - p W_{k-1}) psi_{k-1} - (2 I + 10 p W_k) psi_k + (I - p W_{k+1}) psi_{k+1}
        for i in range(nb):
            put(-1, i, i, 1.0 - p * wd[i, :-2])
            put(0, i, i, -2.0 - 10.0 * p * wd[i, 1:-1])
            put(1, i, i, 1.0 - p * wd[i, 2:])
            for j in (i - 1, i + 1):
                if 0 <= j < nb:
                    put(-1, i, j, -p * wo[:-2])
                    put(0, i, j, -10.0 * p * wo[1:-1])
                    put(1, i, j, -p * wo[2:])
        if lo <= c <= hi:
            a_plus, a_minus, a_zero = self._corner_matrices(e)
            kc = c - lo
            for dk, blk in ((-1, a_minus), (0, -a_zero), (1, a_plus)):
                if not 0 <= kc + dk < kb:
                    continue
                for i in range(nb):
                    for j in range(nb):
                        d = dk * nb + j - i
                        if abs(d) <= kl:
                            band[mid - d, j, kc + dk] = blk[i, j]

        b = np.zeros((kb * nb, nb), dtype=complex, order="F")
        if inward:
            b[:nb] = rhs
        else:
            b[-nb:] = rhs
        _, _, x, info = _zgbsv(kl, kl, band.reshape(3 * kl + 1, nb * kb, order="F"), b,
                               overwrite_ab=1, overwrite_b=1)
        if info != 0:
            raise ConvergenceError(f"singular banded Numerov solve (info {info})",
                                   last_value=e)
        return x.reshape(kb, nb, nb)


def build_system(model: MoleculeModel, field: FieldPoint, grid: RadialGrid | None = None,
                 n_blocks: int = 2, matching_index: int | None = None) -> CoupledSystem:
    """Assemble the coupled photon-block problem on the scaling contour."""
    if grid is None:
        grid = RadialGrid()
    return CoupledSystem(model, field, grid, n_blocks, matching_index)


def find_resonance(system: CoupledSystem, e_guess: complex, *, deflate: tuple = (),
                   radius: float = math.inf) -> Resonance:
    """Secant iteration in the complex plane from e_guess to one quasienergy.

    ``deflate`` divides out already-known roots so a nearby second root can be
    resolved (needed close to a coalescence).  The iteration stops once a
    step falls below 1e-12, or once a step below 1e-8 fails to halve the one
    before it: the secant converges superlinearly there, so each step is far
    below half the previous one, and a step that does not halve is the
    rounding noise of the determinant, not progress.  An iterate farther
    than ``radius`` from e_guess fails at once.
    """

    def f(e: complex) -> complex:
        d = system.determinant(e)
        for r in deflate:
            d /= (e - r)
        return d

    def undeflated(e, fe):
        # |determinant| at e from the deflated value fe
        return abs(fe) * math.prod(abs(e - r) for r in deflate)

    e0 = complex(e_guess)
    e1 = e0 + 1e-9
    f0, f1 = f(e0), f(e1)
    last = math.inf
    for _ in range(_MAX_SECANT):
        denom = f1 - f0
        if denom == 0 or not (cmath.isfinite(f1) and cmath.isfinite(f0)):
            e1 += 1e-9 * (1 + abs(e1)) * (1 + 1j)
            f1 = f(e1)
            continue
        step = -f1 * (e1 - e0) / denom
        size = abs(step)
        if size > _MAX_STEP:
            step *= _MAX_STEP / size
        e0, f0 = e1, f1
        e1 = e1 + step
        if abs(e1 - e_guess) > radius:
            raise ConvergenceError(
                f"secant left its trust radius: |E - guess| = "
                f"{abs(e1 - e_guess):.3e} > {radius:.3e}", last_value=e1)
        f1 = f(e1)
        floor = 0.5 * last <= size < _FLOOR_STEP
        last = size
        if size < _DE_TOL or floor:
            if e1.imag > _IM_TOL:
                raise ConvergenceError(
                    f"converged to the unphysical sheet (Im E = {e1.imag:.3e})",
                    last_value=e1)
            energy = complex(e1.real, min(e1.imag, 0.0))
            return Resonance(energy=energy, width=-2.0 * energy.imag,
                             residual=undeflated(e1, f1))
    raise ConvergenceError(
        f"no quasienergy within {_MAX_SECANT} secant iterations "
        f"(last |dE| = {last:.3e}, |D| = {undeflated(e1, f1):.3e})",
        iterations=_MAX_SECANT, last_value=e1)


def ramp_resonance(model: MoleculeModel, field: FieldPoint, e_start: complex,
                   steps: int, grid: RadialGrid | None = None,
                   n_blocks: int = 2) -> Resonance:
    """Continue a resonance from e_start up to the intensity of ``field``.

    The intensity rises in ``steps`` equal steps, I/steps .. I, at the
    wavelength of ``field``; each solve is seeded by the previous root.
    Returns the resonance found at ``field``.
    """
    e = complex(e_start)
    for inten in np.linspace(field.intensity / steps, field.intensity, steps):
        system = build_system(model, FieldPoint(field.wavelength, inten), grid,
                              n_blocks=n_blocks)
        res = find_resonance(system, e)
        e = res.energy
    return res


def continuation(points: list, targets, step):
    """Continue roots along one parameter t, halving steps that fail.

    ``points`` holds the accepted (t, roots), the start first, and grows by
    each accepted step.  For every target in turn, ``step(points, t)``
    returns the roots at t or raises ConvergenceError; a failed t is
    replaced by the midpoint back to the last accepted t.  A target within
    1e-12 of the last accepted t counts as reached.  Yields the roots at
    each reached target; more than _MAX_SPLITS failures on the way to one
    target raise ConvergenceError.
    """
    for target in targets:
        pending = [target] if abs(target - points[-1][0]) >= 1e-12 else []
        splits = 0
        while pending:
            t = pending[-1]
            try:
                roots = step(points, t)
            except ConvergenceError as ex:
                splits += 1
                if splits > _MAX_SPLITS:
                    raise ConvergenceError(
                        f"continuation stalled at t = {t:.6g} ({ex}); "
                        "restart with smaller steps", iterations=splits) from ex
                pending.append(0.5 * (points[-1][0] + t))
                continue
            points.append((t, roots))
            pending.pop()
        yield points[-1][1]


def step_character(e: complex, stepped: complex) -> str:
    """Feshbach/Shape character from how a resonance energy moves when the
    intensity is stepped up (e before, stepped after the step).

    Feshbach: position rises and width (-2 Im E) shrinks; Shape: the
    opposite; anything mixed (the near-coalescence regime) is Unclassified.
    """
    de = stepped.real - e.real
    dw = -2.0 * (stepped.imag - e.imag)
    if de > 0 and dw < 0:
        return "Feshbach"
    if de < 0 and dw > 0:
        return "Shape"
    return "Unclassified"


def classify_resonance(model: MoleculeModel, field: FieldPoint, energy: complex,
                       grid: RadialGrid | None = None, n_blocks: int = 2) -> str:
    """Feshbach/Shape character (see step_character) of the resonance at
    ``energy`` under an intensity step of max(2 %, 1e9 W/cm^2); Unclassified
    when the probe step cannot be tracked.
    """
    stepped = CoupledSystem(
        model, FieldPoint(field.wavelength,
                          field.intensity + max(0.02 * field.intensity, 1e9)),
        grid if grid is not None else RadialGrid(), n_blocks)
    try:
        res2 = find_resonance(stepped, energy)
    except ConvergenceError:
        return "Unclassified"
    return step_character(energy, res2.energy)
