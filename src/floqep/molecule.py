"""Molecular model layer: potential curves, field points, radial grids.

A model bundles the two Born-Oppenheimer potentials (lower "g" curve with a
well, upper repulsive "u" curve), the radiative transition dipole between
them, and the reduced mass.  Every curve is one ``Curve``: a closed form
with its first two derivatives at real or complex R, plus, for a curve read
from a table, a cubic spline through the table for the real-axis values on
its span.  A table's closed form is a tail fitted to the nodes beyond
``tail-start``; it extrapolates past the last node and is the analytic
continuation used on the complex part of the scaling contour.  Curves hold
only arrays and module functions, so a model pickles whole.

Energies are hartree, distances bohr, dipoles atomic units.  Potentials are
referenced to whatever zero the data uses; the shared dissociation limit is
exposed as ``asymptote`` and downstream consumers shift by it.
"""

from __future__ import annotations

import functools
import hashlib
import math
import os
from dataclasses import dataclass

import numpy as np

from ._lapack import dgtsv as _dgtsv
from .errors import GridError, ModelError
from .units import H2P_REDUCED_MASS, field_amplitude, photon_energy

_BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

__all__ = [
    "Curve",
    "FieldPoint",
    "MoleculeModel",
    "RadialGrid",
    "TabulatedCurve",
    "adiabatic_potentials",
    "exp_repulsive",
    "key_value",
    "linear_dipole",
    "load_molecule",
    "morse_curve",
    "parse_key_values",
]


class Curve:
    """A radial curve: a closed form, and optionally a spline through a table.

    ``form(z, nu)`` is the value (nu = 0) or the first or second derivative
    at real or complex z.  On real R a curve is the spline on the table span
    [r_lo, r_hi] and the closed form elsewhere; ``at`` is the closed form,
    the continuation onto the scaling contour from ``continuation_start``
    on.  ``asymptote`` is the large-R limit, None for a dipole.
    """

    def __init__(self, form, asymptote: float | None, spline: _CubicSpline | None = None,
                 continuation_start: float = 0.0):
        self.form = form
        self.asymptote = asymptote
        self.continuation_start = float(continuation_start)
        self._spline = spline
        self.r_lo, self.r_hi = ((0.0, math.inf) if spline is None
                                else (float(spline.x[0]), float(spline.x[-1])))

    def __call__(self, r):
        if self._spline is None:
            return self.form(r)
        r = np.asarray(r, dtype=float)
        if np.any(r < self.r_lo - 1e-12):
            raise ModelError(f"evaluation below table start ({self.r_lo} bohr)")
        out = np.where(r <= self.r_hi, self._spline(np.clip(r, self.r_lo, self.r_hi)),
                       self.form(r))
        return float(out) if out.ndim == 0 else out

    def at(self, z, nu: int = 0):
        """The closed form (nu = 0) or its nu-th derivative at real or complex z."""
        if np.any(np.real(z) < self.continuation_start - 1e-9):
            raise ModelError(f"closed form requested before the continuation region "
                             f"(Re z < {self.continuation_start} bohr)")
        return self.form(z, nu)


def _morse(depth, width, r0, z, nu=0):
    e = np.exp(-width * (z - r0))
    if nu == 0:
        return depth * (e * e - 2.0 * e)
    if nu == 1:
        return 2.0 * depth * width * (e - e * e)
    return 2.0 * depth * width * width * (2.0 * e * e - e)


def _wall(amplitude, decay, z, nu=0):
    return (amplitude, -decay * amplitude, decay * decay * amplitude)[nu] * np.exp(-decay * z)


def _exchange_tail(c, z, nu=0):
    """c0 + c1 R e^-R + c2 e^-R + c3/R^4 + c4/R^6: the exchange-splitting and
    polarization decay of one-electron diatomics, which also fits generic
    short-range tails adequately."""
    if nu == 0:
        return c[0] + c[1] * z * np.exp(-z) + c[2] * np.exp(-z) + c[3] * z ** -4.0 + c[4] * z ** -6.0
    if nu == 1:
        return (c[1] * (1.0 - z) * np.exp(-z) - c[2] * np.exp(-z)
                - 4.0 * c[3] * z ** -5.0 - 6.0 * c[4] * z ** -7.0)
    return (c[1] * (z - 2.0) * np.exp(-z) + c[2] * np.exp(-z)
            + 20.0 * c[3] * z ** -6.0 + 42.0 * c[4] * z ** -8.0)


def _line(c, z, nu=0):
    """c0 + c1 R."""
    if nu == 0:
        return c[0] + c[1] * z
    if nu == 1:
        return c[1] * np.ones_like(z)
    return np.zeros_like(z)


def morse_curve(depth: float, width: float, r0: float) -> Curve:
    """Morse well D(1 - exp(-a(R-R0)))^2 - D, referenced to the asymptote at 0."""
    if depth <= 0 or width <= 0:
        raise ModelError("Morse depth and width must be positive")
    return Curve(functools.partial(_morse, depth, width, r0), asymptote=0.0)


def exp_repulsive(amplitude: float, decay: float) -> Curve:
    """Purely repulsive wall A exp(-c R) sharing the asymptote at 0."""
    if amplitude <= 0 or decay <= 0:
        raise ModelError("repulsive amplitude and decay must be positive")
    return Curve(functools.partial(_wall, amplitude, decay), asymptote=0.0)


def linear_dipole(slope: float) -> Curve:
    """Dipole slope*R (charge-resonance large-R form)."""
    if slope <= 0:
        raise ModelError("dipole slope must be positive")
    return Curve(functools.partial(_line, (0.0, slope)), asymptote=None)


class _CubicSpline:
    """Not-a-knot cubic spline through (x, y), n >= 4 nodes, extrapolated
    by the end pieces.

    The node slopes solve the tridiagonal system of C2 continuity at the
    interior nodes and third-derivative continuity at the second and the
    second-last node (C. de Boor, A Practical Guide to Splines, ch. IV).
    """

    def __init__(self, x: np.ndarray, y: np.ndarray):
        dx = np.diff(x)
        slope = np.diff(y) / dx
        n = len(x)
        lower, diag, upper = np.empty(n - 1), np.empty(n), np.empty(n - 1)
        b = np.empty(n)
        diag[1:-1] = 2.0 * (dx[:-1] + dx[1:])
        upper[1:] = dx[:-1]
        lower[:-1] = dx[1:]
        b[1:-1] = 3.0 * (dx[1:] * slope[:-1] + dx[:-1] * slope[1:])
        d = x[2] - x[0]
        diag[0], upper[0] = dx[1], d
        b[0] = ((dx[0] + 2.0 * d) * dx[1] * slope[0] + dx[0] ** 2 * slope[1]) / d
        d = x[-1] - x[-3]
        lower[-1], diag[-1] = d, dx[-2]
        b[-1] = (dx[-1] ** 2 * slope[-2] + (2.0 * d + dx[-1]) * dx[-2] * slope[-1]) / d
        *_, s, info = _dgtsv(lower, diag, upper, b)
        if info != 0:
            raise ModelError(f"singular spline system (info {info})")
        t = (s[:-1] + s[1:] - 2.0 * slope) / dx
        # piece k: c0 u^3 + c1 u^2 + c2 u + c3, u = r - x_k
        self._c = np.stack([t / dx, (slope - s[:-1]) / dx - t, s[:-1], y[:-1]])
        self.x = x

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        k = np.clip(np.searchsorted(self.x, r, side="right") - 1, 0, len(self.x) - 2)
        u = r - self.x[k]
        c0, c1, c2, c3 = self._c[:, k]
        return ((c0 * u + c1) * u + c2) * u + c3


def TabulatedCurve(r: np.ndarray, v: np.ndarray, kind: str = "potential", *,
                   tail_start: float) -> Curve:
    """The curve of a two-column (R, value) table.

    A cubic spline through the table, and a closed-form tail fitted by least
    squares to the nodes at or beyond ``tail_start``: asymptotic for a
    potential, linear for a dipole.  ``tail_start`` is where the tail's
    continuation starts, so it must not lie beyond the scaling radius of the
    contour.
    """
    r = np.asarray(r, dtype=float)
    v = np.asarray(v, dtype=float)
    if r.ndim != 1 or r.shape != v.shape:
        raise ModelError("curve table must be two matching columns")
    if len(r) < 4:
        raise ModelError(f"curve table needs at least 4 rows, got {len(r)}")
    if not np.all(np.diff(r) > 0):
        raise ModelError("non-monotone abscissa in curve table")
    if kind == "potential":
        form, n_coef, n_min = _exchange_tail, 5, 6
    elif kind == "dipole":
        form, n_coef, n_min = _line, 2, 2
    else:
        raise ModelError(f"unknown curve kind {kind!r}")
    mask = r >= tail_start
    if int(mask.sum()) < n_min:
        raise ModelError(f"tail fit needs >= {n_min} nodes beyond {tail_start} bohr, "
                         f"got {int(mask.sum())}")
    # the form at unit coefficient vectors is its basis
    basis = np.vstack([form(unit, r[mask]) for unit in np.eye(n_coef)]).T
    coef, *_ = np.linalg.lstsq(basis, v[mask], rcond=None)
    return Curve(functools.partial(form, coef),
                 asymptote=float(coef[0]) if kind == "potential" else None,
                 spline=_CubicSpline(r, v), continuation_start=tail_start)


@dataclass(frozen=True)
class FieldPoint:
    """One monochromatic laser working point.

    wavelength in nm, intensity in W/cm^2; ``omega`` and ``e0`` are the
    derived photon energy (hartree) and peak field (a.u.).
    """

    wavelength: float
    intensity: float

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0 < self.wavelength < math.inf:
            raise ModelError(f"wavelength must be positive and finite, got {self.wavelength}")
        if not 0 <= self.intensity < math.inf:
            raise ModelError(f"intensity must be non-negative and finite, got {self.intensity}")

    @property
    def omega(self) -> float:
        return photon_energy(self.wavelength)

    @property
    def e0(self) -> float:
        return field_amplitude(self.intensity)


@dataclass(frozen=True)
class RadialGrid:
    """Uniform radial grid with an exterior complex-scaling contour.

    Points beyond ``ecs_radius`` are rotated as
    z = ecs_radius + (R - ecs_radius) exp(i ecs_angle); the corner is snapped
    onto the nearest grid point.
    """

    r_min: float = 0.5
    r_max: float = 25.0
    n_points: int = 3001
    ecs_radius: float = 15.0
    ecs_angle: float = 0.3

    def __post_init__(self):
        if not (self.r_min < self.ecs_radius < self.r_max):
            raise GridError(f"need r_min < ecs_radius < r_max, got "
                            f"{self.r_min}, {self.ecs_radius}, {self.r_max}")
        if self.n_points < 500:
            raise GridError(f"n_points must be >= 500, got {self.n_points}")
        if not (0.0 < self.ecs_angle < math.pi / 4):
            raise GridError(f"ecs_angle must lie in (0, pi/4), got {self.ecs_angle}")

    @property
    def step(self) -> float:
        return (self.r_max - self.r_min) / (self.n_points - 1)

    @property
    def corner_index(self) -> int:
        k = int(round((self.ecs_radius - self.r_min) / self.step))
        return min(max(k, 3), self.n_points - 4)

    def points(self) -> np.ndarray:
        return np.linspace(self.r_min, self.r_max, self.n_points)

    def contour(self) -> np.ndarray:
        """Complex coordinates z_k along the scaling contour."""
        x = self.points()
        c = self.corner_index
        z = x.astype(complex)
        z[c + 1:] = x[c] + (x[c + 1:] - x[c]) * np.exp(1j * self.ecs_angle)
        return z

    def doubled(self) -> "RadialGrid":
        return RadialGrid(self.r_min, self.r_max, 2 * self.n_points - 1,
                          self.ecs_radius, self.ecs_angle)


@dataclass(frozen=True)
class MoleculeModel:
    """Immutable bundle of curves and mass; it pickles, so worker processes
    receive the model itself."""

    name: str
    vg_curve: object
    vu_curve: object
    dipole: object
    reduced_mass: float
    fingerprint: str = ""

    def validate(self) -> None:
        """Check the structural invariants; raises ModelError on violation."""
        if self.reduced_mass <= 0:
            raise ModelError(f"reduced mass must be positive, got {self.reduced_mass}")
        r_lo = max(self.vg_curve.r_lo, self.vu_curve.r_lo, 0.05)
        r_hi = min(r for r in (self.vg_curve.r_hi, self.vu_curve.r_hi, 40.0) if math.isfinite(r))
        r = np.linspace(r_lo, r_hi, 2000)
        vg = np.asarray(self.vg_curve(r))
        vu = np.asarray(self.vu_curve(r))
        mu = np.asarray(self.dipole(r))

        ag = self.vg_curve.asymptote
        au = self.vu_curve.asymptote
        if ag is None or au is None or not (math.isfinite(ag) and math.isfinite(au)):
            raise ModelError("both potentials must have finite dissociation limits")
        if abs(ag - au) > 1e-5:
            raise ModelError(f"potentials must share the dissociation limit "
                             f"(got {ag:.3e} vs {au:.3e})")

        # single well below the asymptote for the g curve
        interior = (vg[1:-1] <= vg[:-2]) & (vg[1:-1] <= vg[2:]) & (vg[1:-1] < ag - 1e-6)
        n_minima = int(np.sum(interior & ~np.roll(np.append(interior, False), 1)[:-1]))
        if np.argmin(vg) in (0, len(r) - 1) or n_minima == 0:
            raise ModelError("vg curve must have an interior minimum")
        if n_minima > 1:
            raise ModelError(f"vg curve must have a single minimum, found {n_minima}")

        # u curve repulsive: monotone decrease up to a tiny long-range ripple
        rise = np.maximum(np.diff(vu), 0.0).sum()
        if rise > 1.2e-4:
            raise ModelError(f"vu curve is not repulsive (cumulative rise {rise:.2e} hartree)")
        if vu[0] < vu[-1] + 1e-3:
            raise ModelError("vu curve must decrease toward the asymptote")

        if np.any(mu <= 0.0):
            raise ModelError("dipole must be positive over the working range")


def _descriptor_fingerprint(pieces: list[bytes]) -> str:
    h = hashlib.sha256()
    for p in pieces:
        h.update(p)
        h.update(b"\x00")
    return h.hexdigest()[:16]


def parse_key_values(text: str, source: str) -> dict[str, str]:
    """The ``key = value`` lines of a descriptor or config file.

    ``#`` starts a comment anywhere on a line, blank lines are skipped, and
    keys are read in lower case.  ``source`` names the file in errors.
    """
    out: dict[str, str] = {}
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ModelError(f"{source}:{ln}: expected 'key = value', got {raw!r}")
        key, val = line.split("=", 1)
        out[key.strip().lower()] = val.strip()
    return out


def key_value(pairs: dict[str, str], key: str, conv, where: str, default=None):
    """conv(pairs[key]), or ``default`` when the key is absent; a missing key
    without a default, or a value conv rejects, raises a ModelError that
    names the key and conv's reason."""
    if key not in pairs:
        if default is None:
            raise ModelError(f"{where}: missing required key {key!r}")
        return default
    try:
        return conv(pairs[key])
    except (TypeError, ValueError) as ex:
        raise ModelError(f"{where}: bad value {pairs[key]!r} for key {key!r}: "
                         f"{ex}") from None


def _load_table(path: str) -> tuple[np.ndarray, np.ndarray]:
    if not os.path.exists(path):
        raise ModelError(f"curve table not found: {path}")
    data = np.loadtxt(path)
    if data.ndim != 2 or data.shape[1] < 2:
        raise ModelError(f"curve table must have two columns: {path}")
    return data[:, 0], data[:, 1]


def load_molecule(descriptor: str) -> MoleculeModel:
    """Build a MoleculeModel from a bundled name or a descriptor file path.

    Bundled names: ``h2plus`` (tabulated exact two-center curves) and
    ``h2plus-morse`` (analytic fallback).  Descriptor files are key = value
    text; see the bundled ``*.model`` files for the two formats.
    """
    if os.sep not in descriptor and not os.path.exists(descriptor):
        bundled = os.path.join(_BUNDLED_DIR, descriptor + ".model")
        if os.path.exists(bundled):
            descriptor = bundled
        else:
            raise ModelError(f"unknown model {descriptor!r} (no such file or bundled name)")
    if not os.path.exists(descriptor):
        raise ModelError(f"model descriptor not found: {descriptor}")

    with open(descriptor) as fh:
        text = fh.read()
    spec = parse_key_values(text, descriptor)
    base = os.path.dirname(os.path.abspath(descriptor))

    def get(key, conv=float, default=None):
        return key_value(spec, key, conv, descriptor, default)

    name = spec.get("name", os.path.splitext(os.path.basename(descriptor))[0])
    mass = get("mass", default=H2P_REDUCED_MASS)
    kind = spec.get("kind", "tables")
    tables = []                    # files whose bytes enter the fingerprint

    if kind == "tables":
        vg_path = os.path.join(base, get("vg", str))
        vu_path = os.path.join(base, get("vu", str))
        rg, vg = _load_table(vg_path)
        ru, vu = _load_table(vu_path)
        tables += [vg_path, vu_path]
        # every table continues analytically from tail-start onto the contour
        vg_curve = TabulatedCurve(rg, vg, tail_start=get("tail-start"))
        vu_curve = TabulatedCurve(ru, vu, tail_start=get("tail-start"))
    elif kind == "analytic":
        vg_curve = morse_curve(get("morse-depth"), get("morse-width"), get("morse-r0"))
        vu_curve = exp_repulsive(get("rep-amplitude"), get("rep-decay"))
    else:
        raise ModelError(f"unknown model kind {kind!r}")
    if spec.get("dipole", "linear").split()[:1] == ["linear"]:
        # "linear [slope]", slope 0.5 when omitted
        slope = get("dipole", lambda s: float(s.split()[1]) if len(s.split()) > 1 else 0.5,
                    default=0.5)
        dipole = linear_dipole(slope)
    else:
        mu_path = os.path.join(base, spec["dipole"])
        dipole = TabulatedCurve(*_load_table(mu_path), kind="dipole",
                                tail_start=get("tail-start"))
        tables.append(mu_path)
    pieces = [text.encode()]
    for path in tables:
        with open(path, "rb") as fh:
            pieces.append(fh.read())

    model = MoleculeModel(name=name, vg_curve=vg_curve, vu_curve=vu_curve, dipole=dipole,
                          reduced_mass=mass, fingerprint=_descriptor_fingerprint(pieces))
    model.validate()
    return model


def adiabatic_potentials(model: MoleculeModel, field: FieldPoint, r):
    """Upper/lower adiabatic potentials (V_plus, V_minus) at R = r.

    Eigenvalues of [[V_g, -E0 mu/2], [-E0 mu/2, V_u - hw]]; the coupling is
    the single-photon radiative term, so V_plus - V_minus = E0 mu at the
    diabatic crossing.
    """
    vg = np.asarray(model.vg_curve(r), dtype=float)
    vu = np.asarray(model.vu_curve(r), dtype=float) - field.omega
    c = -0.5 * field.e0 * np.asarray(model.dipole(r), dtype=float)
    avg = 0.5 * (vg + vu)
    gap = np.sqrt(0.25 * (vg - vu) ** 2 + c * c)
    return avg + gap, avg - gap
