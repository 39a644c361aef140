"""Molecular model layer: potential curves, field points, radial grids.

A model bundles the two Born-Oppenheimer potentials (lower "g" curve with a
well, upper repulsive "u" curve), the radiative transition dipole between
them, and the reduced mass.  Curves are either interpolated tables or closed
forms; both expose values, first and second derivatives, and an analytic
continuation used on the complex part of the scaling contour.

Energies are hartree, distances bohr, dipoles atomic units.  Potentials are
referenced to whatever zero the data uses; the shared dissociation limit is
exposed as ``asymptote`` and downstream consumers shift by it.
"""

from __future__ import annotations

import hashlib
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.interpolate import CubicSpline

from .errors import GridError, ModelError
from .units import H2P_REDUCED_MASS, field_amplitude, photon_energy

_BUNDLED_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

__all__ = [
    "AnalyticCurve",
    "FieldPoint",
    "MoleculeModel",
    "RadialGrid",
    "TabulatedCurve",
    "adiabatic_potentials",
    "dressed_diabatic",
    "exp_repulsive",
    "key_value",
    "linear_dipole",
    "load_molecule",
    "morse_curve",
    "parse_key_values",
]


class AnalyticCurve:
    """Closed-form radial curve with analytic derivatives.

    Parameters
    ----------
    fn, d1, d2 : callables accepting real or complex arguments.
    asymptote : large-R limit (None for unbounded functions such as dipoles).
    """

    def __init__(self, fn: Callable, d1: Callable, d2: Callable, asymptote: float | None = 0.0):
        self._fn = fn
        self._d1 = d1
        self._d2 = d2
        self.asymptote = asymptote
        self.r_lo = 0.0
        self.r_hi = math.inf
        # analytic forms continue everywhere
        self.continuation_start = 0.0

    def __call__(self, r):
        return self._fn(r)

    def eval_at(self, z):
        """Value at a real or complex coordinate."""
        return self._fn(z)

    def d1(self, z):
        return self._d1(z)

    def d2(self, z):
        return self._d2(z)


def morse_curve(depth: float, width: float, r0: float) -> AnalyticCurve:
    """Morse well D(1 - exp(-a(R-R0)))^2 - D, referenced to the asymptote at 0."""
    if depth <= 0 or width <= 0:
        raise ModelError("Morse depth and width must be positive")

    def fn(r):
        e = np.exp(-width * (r - r0))
        return depth * (e * e - 2.0 * e)

    def d1(r):
        e = np.exp(-width * (r - r0))
        return 2.0 * depth * width * (e - e * e)

    def d2(r):
        e = np.exp(-width * (r - r0))
        return 2.0 * depth * width * width * (2.0 * e * e - e)

    return AnalyticCurve(fn, d1, d2, asymptote=0.0)


def exp_repulsive(amplitude: float, decay: float) -> AnalyticCurve:
    """Purely repulsive wall A exp(-c R) sharing the asymptote at 0."""
    if amplitude <= 0 or decay <= 0:
        raise ModelError("repulsive amplitude and decay must be positive")
    fn = lambda r: amplitude * np.exp(-decay * r)
    d1 = lambda r: -decay * amplitude * np.exp(-decay * r)
    d2 = lambda r: decay * decay * amplitude * np.exp(-decay * r)
    return AnalyticCurve(fn, d1, d2, asymptote=0.0)


def linear_dipole(slope: float) -> AnalyticCurve:
    """Dipole slope*R (charge-resonance large-R form)."""
    if slope <= 0:
        raise ModelError("dipole slope must be positive")
    return AnalyticCurve(
        lambda r: slope * np.asarray(r) if np.ndim(r) else slope * r,
        lambda r: slope * np.ones_like(np.asarray(r, dtype=complex)) if np.ndim(r) else slope,
        lambda r: np.zeros_like(np.asarray(r, dtype=complex)) if np.ndim(r) else 0.0,
        asymptote=None,
    )


def _fit_tail(r: np.ndarray, v: np.ndarray, start: float, n_min: int, basis):
    """Least-squares coefficients of the functions basis(R) over the table
    nodes at or beyond start."""
    mask = r >= start
    if int(mask.sum()) < n_min:
        raise ModelError(f"tail fit needs >= {n_min} nodes beyond {start} bohr, "
                         f"got {int(mask.sum())}")
    coef, *_ = np.linalg.lstsq(np.vstack(basis(r[mask])).T, v[mask], rcond=None)
    return coef


class _AsymptoticTail:
    """Least-squares tail model c0 + c1 R e^-R + c2 e^-R + c3/R^4 + c4/R^6.

    Fitted to the outer table nodes; supplies the analytic continuation of a
    tabulated potential onto the complex contour and its extrapolation beyond
    the table.  The basis covers exchange-splitting and polarization decay of
    one-electron diatomics and fits generic short-range tails adequately.
    """

    def __init__(self, r: np.ndarray, v: np.ndarray, start: float):
        self.coef = _fit_tail(r, v, start, 6, lambda rr: [
            np.ones_like(rr), rr * np.exp(-rr), np.exp(-rr), rr ** -4.0, rr ** -6.0])
        self.start = float(start)

    def eval_at(self, z):
        c = self.coef
        return c[0] + c[1] * z * np.exp(-z) + c[2] * np.exp(-z) + c[3] * z ** -4.0 + c[4] * z ** -6.0

    def d1(self, z):
        c = self.coef
        return (c[1] * (1.0 - z) * np.exp(-z) - c[2] * np.exp(-z)
                - 4.0 * c[3] * z ** -5.0 - 6.0 * c[4] * z ** -7.0)

    def d2(self, z):
        c = self.coef
        return (c[1] * (z - 2.0) * np.exp(-z) + c[2] * np.exp(-z)
                + 20.0 * c[3] * z ** -6.0 + 42.0 * c[4] * z ** -8.0)


class _LinearTail:
    """Least-squares line c0 + c1 R through the outer table nodes: the
    continuation of a tabulated dipole, which grows as R/2 at large R."""

    def __init__(self, r: np.ndarray, v: np.ndarray, start: float):
        self.coef = _fit_tail(r, v, start, 2, lambda rr: [np.ones_like(rr), rr])
        self.start = float(start)

    def eval_at(self, z):
        return self.coef[0] + self.coef[1] * z

    def d1(self, z):
        return self.coef[1] * np.ones_like(z)

    def d2(self, z):
        return np.zeros_like(z)


class TabulatedCurve:
    """Cubic-spline interpolant of a two-column (R, value) table.

    Real-axis evaluation uses the spline over the table span.  A fitted tail
    over the nodes at or beyond ``tail_start`` (asymptotic for a potential,
    linear for a dipole) extrapolates beyond the last node and provides
    values and derivatives at complex coordinates (only meaningful for
    Re z >= continuation_start = tail_start, which must not lie beyond the
    scaling radius of the contour).
    """

    def __init__(self, r: np.ndarray, v: np.ndarray, kind: str = "potential", *,
                 tail_start: float):
        r = np.asarray(r, dtype=float)
        v = np.asarray(v, dtype=float)
        if r.ndim != 1 or r.shape != v.shape:
            raise ModelError("curve table must be two matching columns")
        if len(r) < 4:
            raise ModelError(f"curve table needs at least 4 rows, got {len(r)}")
        if not np.all(np.diff(r) > 0):
            raise ModelError("non-monotone abscissa in curve table")
        self.r_lo = float(r[0])
        self.r_hi = float(r[-1])
        self._spline = CubicSpline(r, v)
        if kind == "potential":
            self._tail = _AsymptoticTail(r, v, tail_start)
            self.asymptote = float(self._tail.coef[0])
        elif kind == "dipole":
            self._tail = _LinearTail(r, v, tail_start)
            self.asymptote = None
        else:
            raise ModelError(f"unknown curve kind {kind!r}")
        self.continuation_start = self._tail.start

    # -- real axis -------------------------------------------------------
    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        scalar = r.ndim == 0
        r = np.atleast_1d(r)
        if np.any(r < self.r_lo - 1e-12):
            raise ModelError(f"evaluation below table start ({self.r_lo} bohr)")
        out = np.where(r <= self.r_hi, self._spline(np.clip(r, self.r_lo, self.r_hi)),
                       self._tail.eval_at(r))
        return float(out[0]) if scalar else out

    # -- analytic continuation / derivatives ------------------------------
    def eval_at(self, z):
        """Value at real or complex z; complex z uses the closed-form tail."""
        z = np.asarray(z)
        if np.isrealobj(z):
            return self.__call__(z.astype(float) if z.ndim else float(z))
        if np.any(np.real(z) < self.continuation_start - 1e-9):
            raise ModelError("complex evaluation requested before the continuation region")
        return self._tail.eval_at(z)

    def d1(self, z):
        z = np.asarray(z)
        if np.isrealobj(z) and np.all(z <= self.r_hi):
            return self._spline(z, 1)
        return self._tail.d1(z)

    def d2(self, z):
        z = np.asarray(z)
        if np.isrealobj(z) and np.all(z <= self.r_hi):
            return self._spline(z, 2)
        return self._tail.d2(z)


@dataclass(frozen=True)
class FieldPoint:
    """One monochromatic laser working point.

    wavelength in nm, intensity in W/cm^2; ``omega`` and ``e0`` are the
    derived photon energy (hartree) and peak field (a.u.).
    """

    wavelength: float
    intensity: float

    def __post_init__(self):
        if self.wavelength <= 0:
            raise ModelError(f"wavelength must be positive, got {self.wavelength}")
        if self.intensity < 0:
            raise ModelError(f"intensity must be non-negative, got {self.intensity}")

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
    """Immutable bundle of curves and mass; safe to share across workers."""

    name: str
    vg_curve: object
    vu_curve: object
    dipole: object
    reduced_mass: float
    fingerprint: str = ""
    # descriptor this model was loaded from; lets worker processes reload it
    origin: str = ""

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
    names the key."""
    if key not in pairs:
        if default is None:
            raise ModelError(f"{where}: missing required key {key!r}")
        return default
    try:
        return conv(pairs[key])
    except ValueError:
        raise ModelError(f"{where}: bad value {pairs[key]!r} for key {key!r}") from None


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
    pieces = [text.encode()]

    if kind == "tables":
        vg_path = os.path.join(base, get("vg", str))
        vu_path = os.path.join(base, get("vu", str))
        rg, vg = _load_table(vg_path)
        ru, vu = _load_table(vu_path)
        for p in (vg_path, vu_path):
            with open(p, "rb") as fh:
                pieces.append(fh.read())
        # every table continues analytically from tail-start onto the contour
        vg_curve = TabulatedCurve(rg, vg, tail_start=get("tail-start"))
        vu_curve = TabulatedCurve(ru, vu, tail_start=get("tail-start"))
    elif kind == "analytic":
        vg_curve = morse_curve(get("morse-depth"), get("morse-width"), get("morse-r0"))
        vu_curve = exp_repulsive(get("rep-amplitude"), get("rep-decay"))
    else:
        raise ModelError(f"unknown model kind {kind!r}")
    mu = spec.get("dipole", "linear 0.5").split()
    if mu[:1] == ["linear"]:
        dipole = linear_dipole(float(mu[1]) if len(mu) > 1 else 0.5)
    else:
        dipole = TabulatedCurve(*_load_table(os.path.join(base, spec["dipole"])),
                                kind="dipole", tail_start=get("tail-start"))

    model = MoleculeModel(name=name, vg_curve=vg_curve, vu_curve=vu_curve, dipole=dipole,
                          reduced_mass=mass, fingerprint=_descriptor_fingerprint(pieces),
                          origin=str(descriptor))
    model.validate()
    return model


def dressed_diabatic(model: MoleculeModel, field: FieldPoint, n: int, r):
    """Field-dressed diabatic potential of the photon block n at R = r.

    Blocks alternate electronic character: even n rides the g curve, odd n
    the u curve; the block energy is shifted by n photon quanta.
    """
    curve = model.vg_curve if n % 2 == 0 else model.vu_curve
    return curve(r) + n * field.omega


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
