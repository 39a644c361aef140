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
For every block count the ratios come from two banded boundary-value problems
of the Numerov equations, outward from r_min and inward from the contour
end (the ratios are the block pivots of that banded LU; B. R. Johnson,
J. Chem. Phys. 69, 4678 (1978)).  The field enters the discretized problem
through two numbers only: omega, in the n omega shifts of the diagonal, and
E0, in the coupling -M E0 mu, which is linear in E0.  So both half bands are
assembled once per (model, grid, block count), at E0 = 1; a system keeps
omega, E0 and the E-row potentials V + n omega; a determinant scales each
band by E0 in the one copy it makes, adds the E terms and the corner row,
factors each half once and reads the two psi it needs off the tails of the
factors.
"""

from __future__ import annotations

import cmath
import dataclasses
import functools
import math
from collections import namedtuple

import numpy as np

from ._lapack import zgbtrf as _zgbtrf
from ._lapack import zgbtrs as _zgbtrs
from .errors import ConvergenceError, GridError, ModelError
from .molecule import FieldPoint, MoleculeModel, RadialGrid
from .units import HARTREE_TO_INVCM

__all__ = [
    "CoupledSystem",
    "Resonance",
    "build_system",
    "classify_resonance",
    "continuation",
    "extrapolate",
    "find_resonance",
    "intensity_walk",
    "ramp_resonance",
]

_DE_TOL = 1e-12        # secant convergence on |dE|
_FLOOR_STEP = 1e-8     # |dE| below this is the local, superlinear regime
_MAX_SECANT = 50
_IM_TOL = 1e-12        # tolerated positive imaginary part before rejection
_MAX_STEP = 2e-3       # cap on a single secant step, hartree
_MAX_SPLITS = 14       # step halvings allowed on the way to one continuation target
_ACCEPT_FACTOR = 5.0   # a continuation step fails on a miss from its prediction
_ACCEPT_FLOOR = 1e-4   # above max(5 x the last accepted miss, 1e-4 hartree)
# field-free system templates kept: each command and each loop, walk or ramp
# builds on one (model, grid, blocks) at a time, and an older template would
# only hold memory (1.6 MB at 2 blocks, 4.3 MB at 4 on the default grid)
_TEMPLATES = 1


@dataclasses.dataclass(frozen=True)
class Resonance:
    """One complex quasienergy E = E_R - i Gamma/2."""

    energy: complex
    # the solve's last secant slope dD/dE, of the deflated function for a
    # deflated root; None where it is not known or not kept
    slope: complex | None = dataclasses.field(default=None,
                                              compare=False)

    def __post_init__(self):
        if self.energy.imag > _IM_TOL:
            raise ValueError(f"resonance on the wrong sheet: Im E = {self.energy.imag:.3e}")

    @property
    def width(self) -> float:
        """Decay width Gamma = -2 Im E in hartree."""
        return -2.0 * self.energy.imag

    @property
    def width_invcm(self) -> float:
        return self.width * HARTREE_TO_INVCM


def _block_list(n_blocks: int) -> list[tuple[str, int]]:
    if n_blocks < 2 or n_blocks % 2:
        raise ModelError(f"n_blocks must be an even count >= 2, got {n_blocks}")
    top = n_blocks // 2 - 1
    return [("g" if n % 2 == 0 else "u", n) for n in range(top, top - n_blocks, -1)]


# one half band of the determinant (see _Template._half_band)
_Half = namedtuple("_Half", "band s pw v n")


class _Template:
    """What a system takes from its (model, grid, block count, matching
    index) alone: both half bands of ``CoupledSystem.determinant`` at unit
    field amplitude E0 = 1, with each E row's field-free V - reference and
    photon number n, the Numerov step factors, and W = 2M (V - E) at E = 0
    split into its field-free, n omega and E0 parts.  The field enters the
    discretized problem only through omega (the n omega shifts) and E0 (the
    coupling -M E0 mu, linear in E0), so a system keeps just those.
    ``_template`` memoizes a template per key, keyed on the model itself,
    because in-memory models all share fingerprint "".
    """

    def __init__(self, model: MoleculeModel, grid: RadialGrid, n_blocks: int,
                 matching_index: int | None):
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
        self.reference = vg.asymptote

        def on_contour(crv):
            # real-axis values before the corner; from the corner on, the
            # closed form that the corner stencil differentiates
            return np.concatenate([crv(x), crv.at(z[c:])])

        curves = {"g": vg, "u": vu}
        # V - reference of each state and block, and the dipole coupling W
        # off the diagonal per unit E0
        vs = {state: on_contour(crv) - self.reference for state, crv in curves.items()}
        v = np.stack([vs[state] for state, _ in self.blocks])
        wmu = -model.reduced_mass * on_contour(model.dipole)
        self.n = np.array([n for _, n in self.blocks], dtype=float)
        self.two_m = 2.0 * model.reduced_mass

        h = grid.step
        b = h * cmath.exp(1j * grid.ecs_angle)
        p = np.full(len(z), h * h / 12.0, dtype=complex)
        p[c + 1:] = b * b / 12.0
        self.p, self.h, self.b = p, h, b

        if matching_index is None:
            # the g block of photon number 0 has V_g - reference as its diagonal
            matching_index = int(np.argmin(np.real(vs["g"][:c])))
        if not 2 <= matching_index <= c - 3:
            raise GridError(f"matching index {matching_index} must sit between the "
                            f"inner boundary and the scaling corner")
        m = self.matching_index = matching_index

        # V at the first point and V minimum up to the corner, for the de
        # Broglie check of each system
        self.v_first = np.real(v[:, 0])
        self.v_low = np.real(v[:, : c + 1]).min(axis=1)

        # W at E = 0 at the points m, m + 1 and c, then its first and second
        # derivatives at the corner zc for the corner stencil, each as
        # w_free + omega w_n + E0 w_mu
        nb = len(self.blocks)
        zc = z[c]
        pts = (m, m + 1, c)
        self.w_free = self.two_m * np.stack(
            [np.diag(v[:, k]) for k in pts]
            + [np.diag([curves[state].at(zc, nu) for state, _ in self.blocks])
               for nu in (1, 2)])
        self.w_n = self.two_m * np.multiply.outer([1, 1, 1, 0, 0], np.diag(self.n))
        mu_c = [wmu[k] for k in pts] + [-model.reduced_mass * model.dipole.at(zc, nu)
                                        for nu in (1, 2)]
        self.w_mu = np.multiply.outer(mu_c, np.eye(nb, k=1) + np.eye(nb, k=-1))

        # both halves; the inward one is stored reversed, so that in both
        # the pinned psi = I sits past the last row and the psi that the
        # ratios need is the last point
        self.outward = self._half_band(1, m, False, p, v, wmu)
        self.inward = self._half_band(m + 1, len(p) - 2, True, p, v, wmu)
        kl = nb + 1
        mid = 2 * kl                          # band row of the main diagonal
        self.erows = slice(mid - nb, mid + nb + 1, nb)
        # the corner row c (m + 3 <= c, so in the inward half): blocks
        # (a_minus, -a_zero, a_plus) at the points c - 1, c, c + 1, at the
        # band positions of the reversed layout
        dk, i, j = np.indices((3, nb, nb))
        d = (dk - 1) * nb + j - i
        self.corner_mask = np.abs(d) <= kl
        col = (c - m - 2 + dk) * nb + j
        self.corner_rows = (mid + d)[self.corner_mask]
        self.corner_cols = (self.inward.band.shape[1] - 1 - col)[self.corner_mask]
        # every system built on this template reads these arrays
        for a in (p, self.n, self.v_first, self.v_low, self.w_free, self.w_n,
                  self.w_mu, *self.outward, *self.inward):
            a.flags.writeable = False

    def _half_band(self, lo: int, hi: int, reverse: bool, p, v, wmu):
        """The Numerov rows lo..hi at E0 = 1, less their E terms.

        Band layout of ``zgbtrf`` with kl = ku = nb + 1, one column per
        (grid point, block); psi = 0 one point past each end.  ``reverse``
        stores rows and unknowns in reverse order, which is the same
        recursion on the reversed grid data.  Every row is the Numerov
        recursion, which reads W at the corner like at any point;
        ``determinant`` overwrites row c with the corner stencil.

        E and omega enter only the diagonal of the diagonal blocks, on the
        band rows mid - nb, mid and mid + nb (psi_{k+1}, psi_k, psi_{k-1});
        those rows are left empty.  Returns the band, the constant terms
        (1, -2, 1) and factors p_k (1, 10, 1) of 2M (V - E) for those rows
        (``erows``), and the field-free V - reference and the photon number
        n at each column, from which a system forms V.
        """
        nb = len(self.blocks)
        kb = hi - lo + 1
        kl = nb + 1
        mid = 2 * kl                          # band row of the main diagonal
        p = p[lo: hi + 1]
        v = v[:, lo - 1: hi + 2]
        wo = wmu[lo - 1: hi + 2]
        n = self.n
        if reverse:
            p, v, wo, n = p[::-1], v[::-1, ::-1], wo[::-1], n[::-1]

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

        # (I - p W_{k-1}) psi_{k-1} - (2 I + 10 p W_k) psi_k + (I - p W_{k+1}) psi_{k+1}:
        # off the diagonal of the blocks, W is the dipole coupling; on it,
        # (1, -2, 1) - p_k (1, 10, 1) 2M (V - E), which _pinned_psi writes at
        # each E
        off = [(dk, -cw * p * wo[1 + dk: kb + 1 + dk])
               for dk, cw in ((-1, 1.0), (0, 10.0), (1, 1.0))]
        for i in range(nb):
            for j in (i - 1, i + 1):
                if 0 <= j < nb:
                    for dk, coef in off:
                        put(dk, i, j, coef)
        pp = np.concatenate([[0.0], p, [0.0]])
        pw = np.repeat([pp[:-2], 10.0 * pp[1:-1], pp[2:]], nb, axis=1)
        s = np.zeros(pw.shape)
        s[0, nb:], s[1], s[2, :-nb] = 1.0, -2.0, 1.0
        return _Half(band.reshape(3 * kl + 1, nb * kb, order="F"), s, pw,
                     v[:, 1:-1].ravel(order="F"), np.tile(n, kb))


_template = functools.lru_cache(maxsize=_TEMPLATES)(_Template)


class CoupledSystem:
    """Discretized coupled problem, ready for determinant evaluation.

    Immutable after construction.  The bands and everything else that does
    not depend on the field come from the shared template of (model, grid,
    n_blocks, matching_index); a build keeps omega and E0, forms the E-row
    potentials V + n omega - reference of both halves and W at the matching
    pair and the corner, and checks the de Broglie resolution.  One
    determinant evaluation costs a scaled copy of each half band, two
    banded factorizations and two short tail solves.
    """

    def __init__(self, model: MoleculeModel, field: FieldPoint, grid: RadialGrid,
                 n_blocks: int = 2, matching_index: int | None = None):
        tpl = _template(model, grid, n_blocks, matching_index)
        self.model = model
        self.field = field
        self.grid = grid
        self._tpl = tpl
        self.blocks = tpl.blocks
        self.matching_index = tpl.matching_index

        omega, self._e0 = field.omega, field.e0
        shift = omega * tpl.n
        spread = float(np.max(tpl.v_first + shift) - np.min(tpl.v_low + shift))
        if tpl.h * math.sqrt(tpl.two_m * max(spread, 1e-6)) > 1.0:
            raise GridError("grid too coarse for the de Broglie resolution "
                            "at this energy scale")
        self._v_out = tpl.outward.v + omega * tpl.outward.n
        self._v_in = tpl.inward.v + omega * tpl.inward.n
        # W at E = 0 at the points m, m + 1 and c; dW and d2W at c
        self._w = tpl.w_free + omega * tpl.w_n + self._e0 * tpl.w_mu

    # -- corner stencil ----------------------------------------------------
    def _corner_matrices(self, w0: np.ndarray):
        """The corner stencil's blocks (a_plus, a_minus, a_zero) for W = w0
        at the corner."""
        a, b = self._tpl.h, self._tpl.b
        w1c, w2c = self._w[3], self._w[4]
        eye = np.eye(len(self.blocks), dtype=complex)
        pp = a * b * (b * b - a * a) / 6.0
        qq = a * b * (a ** 3 + b ** 3) / 24.0
        cp = a / (b * (a + b))
        cm = -b / (a * (a + b))
        c0 = (b - a) / (a * b)
        pw = pp * w0 + 2.0 * qq * w1c
        a_plus = a * eye - pw * cp
        a_minus = b * eye - pw * cm
        a_zero = ((a + b) * eye + 0.5 * a * b * (a + b) * w0 + pp * w1c
                  + qq * (w2c + w0 @ w0) + pw * c0)
        return a_plus, a_minus, a_zero

    # -- determinant -------------------------------------------------------
    def determinant(self, e: complex) -> complex:
        """det(R_m - G_{m+1}^-1) at the matching point; zero at quasienergies.

        The Numerov rows 1..m (outward) and m+1..n-2 (inward) are solved for
        psi with psi_{m+1} = I, resp. psi_m = I, pinned; the ratios follow
        from the solutions next to the matching point.  Each half is the
        template's band scaled by E0, plus the E terms and, inward, the
        corner row at e; it is factored once (``zgbtrf``), and psi next to
        the matching point is read from a solve on the trailing columns of
        the factors.
        """
        tpl = self._tpl
        m = self.matching_index
        eye = np.eye(len(self.blocks), dtype=complex)
        w = self._w[:3] - tpl.two_m * e * eye
        fm = eye - tpl.p[m] * w[0]
        fm1 = eye - tpl.p[m + 1] * w[1]
        a_plus, a_minus, a_zero = self._corner_matrices(w[2])
        corner = np.stack([a_minus, -a_zero, a_plus])[tpl.corner_mask]
        psi_out = self._pinned_psi(tpl.outward, self._v_out, e, -fm1)
        # the inward half is stored reversed: its right-hand side and
        # solution come in reverse block order
        psi_in = self._pinned_psi(tpl.inward, self._v_in, e, -fm[::-1],
                                  corner)[::-1]
        r = fm1 @ np.linalg.inv(fm @ psi_out)
        g_inv = fm1 @ psi_in @ np.linalg.inv(fm)
        return complex(np.linalg.det(r - g_inv))

    def _pinned_psi(self, half: _Half, v: np.ndarray, e: complex,
                    rhs: np.ndarray, corner: np.ndarray | None = None) -> np.ndarray:
        """psi at the last point of one half band, with E-row potentials v,
        at e, for ``rhs`` (minus the last rows' coupling to the pinned
        psi = I) on its last nb rows.

        After ``zgbtrf``, those nb unknowns depend only on the trailing
        nb + kl columns of the factors: a right-hand side that is zero above
        the last nb rows stays zero through every earlier elimination step,
        and the back substitution of the last unknowns reads only the
        trailing block of U.
        """
        tpl = self._tpl
        nb = len(self.blocks)
        kl = nb + 1
        band = np.multiply(half.band, self._e0, order="F")
        np.subtract(half.s, half.pw * (tpl.two_m * (v - e)), out=band[tpl.erows])
        if corner is not None:
            band[tpl.corner_rows, tpl.corner_cols] = corner
        lu, ipiv, info = _zgbtrf(band, kl, kl, overwrite_ab=1)
        if info != 0:
            raise ConvergenceError(f"singular banded Numerov solve (info {info})")
        n = lu.shape[1]
        w = min(nb + kl, n)
        b = np.zeros((w, nb), dtype=complex, order="F")
        b[-nb:] = rhs
        x, _ = _zgbtrs(lu[:, n - w:], kl, kl, b, ipiv[n - w:] - (n - w),
                       overwrite_b=1)
        return x[-nb:]


def build_system(model: MoleculeModel, field: FieldPoint, grid: RadialGrid | None = None,
                 n_blocks: int = 2, matching_index: int | None = None) -> CoupledSystem:
    """Assemble the coupled photon-block problem on the scaling contour."""
    if grid is None:
        grid = RadialGrid()
    return CoupledSystem(model, field, grid, n_blocks, matching_index)


def _capped(step: complex) -> complex:
    """``step`` shortened to at most _MAX_STEP."""
    size = abs(step)
    return step * (_MAX_STEP / size) if size > _MAX_STEP else step


def find_resonance(system: CoupledSystem, e_guess: complex, *,
                   deflate: tuple = (), slope: complex | None = None) -> Resonance:
    """Secant iteration in the complex plane from e_guess to one quasienergy.

    ``deflate`` divides out already-known roots so a nearby second root can be
    resolved (needed close to a coalescence).  The second point of the
    secant is e_guess + 1e-9, or, given a predicted ``slope`` dD/dE of the
    solved function, the Newton step -D(e_guess) / slope (capped like every
    step); a slope that gives no finite, nonzero step is ignored.  The
    iteration stops once a step falls below 1e-12, or once a step below
    1e-8 fails to halve the one before it: the secant converges
    superlinearly there, so each step is far below half the previous one,
    and a step that does not halve is the rounding noise of the
    determinant, not progress.  Right after a Newton step of length N, it
    also stops once the secant step s satisfies s**2 / N < 1e-13: with an
    exact slope the Newton step leaves an error C N**2 (C = |D''/2D'|),
    which s measures, and the secant's error recursion e2 ~ C e0 e1 then
    leaves about C N s = s**2 / N; a wrong slope only makes s, and so the
    bound, larger.  Every rule reads the step just computed, so the
    returned iterate is never evaluated.  The result carries the last
    secant slope, which a continuation can extrapolate to seed its next
    solve.
    """

    def f(e: complex) -> complex:
        d = system.determinant(e)
        for r in deflate:
            d /= (e - r)
        return d

    e0 = complex(e_guess)
    f0 = f(e0)
    step = -f0 / complex(slope) if slope else math.nan
    newton = _capped(step) if cmath.isfinite(step) and abs(step) >= _DE_TOL else 0.0
    e1 = e0 + (newton or 1e-9)
    f1 = f(e1)
    last = math.inf
    for i in range(_MAX_SECANT):
        denom = f1 - f0
        if denom == 0 or not (cmath.isfinite(f1) and cmath.isfinite(f0)):
            e1 += 1e-9 * (1 + abs(e1)) * (1 + 1j)
            f1 = f(e1)
            continue
        step = -f1 * (e1 - e0) / denom
        size = abs(step)
        floor = 0.5 * last <= size < _FLOOR_STEP
        # right after a Newton step N, the secant step s leaves an error s**2 / N
        sharp = i == 0 and size * size < 0.1 * _DE_TOL * abs(newton)
        last = size
        if size < _DE_TOL or floor or sharp:
            e = e1 + step
            if e.imag > _IM_TOL:
                raise ConvergenceError(
                    f"converged to the unphysical sheet (Im E = {e.imag:.3e})")
            return Resonance(complex(e.real, min(e.imag, 0.0)), denom / (e1 - e0))
        e0, f0 = e1, f1
        e1 = e1 + _capped(step)
        f1 = f(e1)
    raise ConvergenceError(
        f"no quasienergy within {_MAX_SECANT} secant iterations "
        f"(last |dE| = {last:.3e}, "
        f"|D| = {abs(f1) * math.prod(abs(e1 - r) for r in deflate):.3e})")


def extrapolate(points, t):
    """Quadratic extrapolation of a branch through its last three (t, E)
    points to t; linear from two points, constant from one."""
    if len(points) >= 3:
        (x0, y0), (x1, y1), (x2, y2) = points[-3:]
        l0 = (t - x1) * (t - x2) / ((x0 - x1) * (x0 - x2))
        l1 = (t - x0) * (t - x2) / ((x1 - x0) * (x1 - x2))
        l2 = (t - x0) * (t - x1) / ((x2 - x0) * (x2 - x1))
        return y0 * l0 + y1 * l1 + y2 * l2
    if len(points) == 2:
        (x0, y0), (x1, y1) = points[-2:]
        return y1 + (y1 - y0) * (t - x1) / (x1 - x0)
    return points[-1][1]


def continuation(points: list, targets, step):
    """Continue roots along one parameter t, predicting each step and
    halving steps that fail.

    ``points`` holds the accepted (t, roots), the start first, and grows by
    each accepted step.  For every target in turn, ``step(t, guess, slope)``
    returns (roots, slopes) at t, the roots in the order of ``guess``, or
    raises ConvergenceError; ``guess`` is ``extrapolate(points, t)``, and
    ``slope`` the same extrapolation of the slopes of accepted steps, None
    until one returned slopes.  A step also fails when its miss, the largest
    |root - guess|, exceeds max(_ACCEPT_FACTOR * the last accepted miss,
    _ACCEPT_FLOOR).  A failed t is replaced by the midpoint back to the last
    accepted t.  A target within 1e-12 of the last accepted t counts as
    reached.  Yields the roots at each reached target; more than
    _MAX_SPLITS failures on the way to one target raise ConvergenceError.
    """
    slopes = []               # (t, slopes) of the accepted steps that gave them
    prev_miss = _ACCEPT_FLOOR
    for target in targets:
        pending = [target] if abs(target - points[-1][0]) >= 1e-12 else []
        splits = 0
        while pending:
            t = pending[-1]
            guess = extrapolate(points, t)
            try:
                roots, slope = step(t, guess,
                                    extrapolate(slopes, t) if slopes else None)
                miss = np.abs(np.subtract(roots, guess)).max()
                limit = max(_ACCEPT_FACTOR * prev_miss, _ACCEPT_FLOOR)
                if miss > limit:
                    raise ConvergenceError(f"the roots at t = {t:.6g} missed their "
                                           f"prediction by {miss:.3e} (limit {limit:.3e})")
            except ConvergenceError as ex:
                splits += 1
                if splits > _MAX_SPLITS:
                    raise ConvergenceError(
                        f"continuation stalled at t = {t:.6g} ({ex}); "
                        "restart with smaller steps") from ex
                pending.append(0.5 * (points[-1][0] + t))
                continue
            prev_miss = max(miss, 1e-9)
            points.append((t, roots))
            if slope is not None:
                slopes.append((t, slope))
            pending.pop()
        yield points[-1][1]


def intensity_walk(model: MoleculeModel, wavelength: float, start, intensities,
                   grid: RadialGrid | None = None, n_blocks: int = 2):
    """Continue one or two resonances from their energies ``start`` at
    I = 0 up ``intensities`` (W/cm^2) at fixed wavelength, on
    ``continuation``; yields the roots, an array like ``start``, at each
    intensity.  A second root is solved with the first deflated, and the
    roots are assigned to the predicted ones by summed distance.  A step
    fails when a solve fails, two roots cannot be told apart, or a root
    misses its prediction by more than the driver's limit.
    """
    points = [(0.0, np.array(start, dtype=complex))]

    def step(inten, guess, slope):
        system = build_system(model, FieldPoint(wavelength, inten), grid,
                              n_blocks=n_blocks)
        found = []
        for g, s in zip(guess, [None] * len(guess) if slope is None else slope):
            found.append(find_resonance(system, g, slope=s,
                                        deflate=tuple(r.energy for r in found)))
        roots = np.array([r.energy for r in found])
        root_slopes = np.array([r.slope for r in found])
        # assign found roots to predicted branches by summed distance
        if np.abs(roots[::-1] - guess).sum() < np.abs(roots - guess).sum():
            roots, root_slopes = roots[::-1], root_slopes[::-1]
        if len(roots) == 2 and abs(roots[0] - roots[1]) < 1e-13:
            raise ConvergenceError("resonances lost identity during continuation")
        return roots, root_slopes

    yield from continuation(points, intensities, step)


def ramp_resonance(model: MoleculeModel, field: FieldPoint, e_start: complex,
                   steps: int, grid: RadialGrid | None = None,
                   n_blocks: int = 2) -> Resonance:
    """The resonance at ``field``, continued from e_start at I = 0: the
    one-root ``intensity_walk`` at its wavelength, in ``steps`` equal steps
    I/steps .. I.  At I = 0 the one solve starts from e_start.
    """
    if steps < 1:
        raise ModelError(f"steps must be at least 1, got {steps}")
    if not field.intensity:
        return find_resonance(build_system(model, field, grid, n_blocks=n_blocks),
                              e_start)
    *_, (energy,) = intensity_walk(
        model, field.wavelength, [e_start],
        np.linspace(field.intensity / steps, field.intensity, steps), grid, n_blocks)
    return Resonance(complex(energy))


def classify_resonance(model: MoleculeModel, field: FieldPoint, energy: complex,
                       grid: RadialGrid | None = None, n_blocks: int = 2,
                       slope: complex | None = None) -> str:
    """Feshbach/Shape character of the resonance at ``energy`` from how it
    moves under an intensity step of max(2 %, 1e9 W/cm^2).

    The stepped solve starts from ``energy``, seeded with ``slope``, the
    secant slope of the solve that found it, when one is given.  Feshbach:
    position rises and width (-2 Im E) shrinks; Shape: the opposite;
    anything mixed (the near-coalescence regime), or a probe step that
    cannot be tracked, is Unclassified.
    """
    stepped = build_system(
        model, FieldPoint(field.wavelength,
                          field.intensity + max(0.02 * field.intensity, 1e9)),
        grid, n_blocks)
    try:
        moved = find_resonance(stepped, energy, slope=slope).energy - energy
    except ConvergenceError:
        return "Unclassified"
    if moved.real > 0 and moved.imag > 0:
        return "Feshbach"
    if moved.real < 0 and moved.imag < 0:
        return "Shape"
    return "Unclassified"
