"""Parameter-plane loops, adiabatic resonance transport, and survival.

A loop is a closed contour in the (wavelength, intensity) plane traced by
a single angle:

    I(phi)      = i_max * sin(phi / 2)
    lambda(phi) = lambda0 + d_lambda * sin(phi)

for phi in [0, 2pi], so the pulse switches on and off within the contour
and both endpoints are field-free.  Time advances linearly with traversal
progress, t = t_f * phi / 2pi; with the angle sampled in reverse the same
contour is traversed backwards.  A resonance followed around the contour
returns either to its own label or to its partner's, depending on the
winding number of the contour about the exceptional points it encloses.

The non-dissociated fraction is the exponential of the time-integrated
decay rate accumulated along the traversal.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bound_states import field_free_levels
from .errors import ContinuationError, ConvergenceError, ModelError
from .floquet import build_system, classify_resonance, continuation, find_resonance
from .molecule import FieldPoint, RadialGrid
from .units import FS_PER_AU_TIME, HARTREE_TO_INVCM, INTENSITY_UNIT

# a pulse shorter than this traverses the loop too fast for the adiabatic
# transport picture; emit a warning but run anyway
ADIABATIC_TF_FS = 30.0


@dataclass(frozen=True)
class LoopSpec:
    """Closed contour in the parameter plane plus its time schedule.

    d_lambda carries a sign: it flips the contour's handedness, which is
    equivalent to traversing the mirrored loop in the opposite direction.
    i_max is in units of 10^13 W/cm^2, t_f in femtoseconds.
    """

    lambda0: float
    d_lambda: float
    i_max: float
    t_f: float
    n_steps: int = 200

    def __post_init__(self):
        # written so that NaN fails each comparison
        if not 0.0 < self.i_max < math.inf:
            raise ModelError(f"i_max must be positive and finite, got {self.i_max}")
        if not 0.0 < self.t_f < math.inf:
            raise ModelError(f"t_f must be positive and finite, got {self.t_f}")
        if not abs(self.d_lambda) < self.lambda0:
            raise ModelError(f"|d_lambda| must be below lambda0, so the contour keeps "
                             f"a positive wavelength, got d_lambda={self.d_lambda}, "
                             f"lambda0={self.lambda0}")
        if not self.lambda0 < math.inf:
            raise ModelError(f"lambda0 must be finite, got {self.lambda0}")
        if self.n_steps < 100:
            raise ModelError(f"n_steps must be >= 100, got {self.n_steps}")


def loop_point(spec: LoopSpec, phi: float) -> FieldPoint:
    """Field parameters at one loop angle."""
    inten = spec.i_max * math.sin(0.5 * phi) * INTENSITY_UNIT
    lam = spec.lambda0 + spec.d_lambda * math.sin(phi)
    return FieldPoint(wavelength=lam, intensity=max(inten, 0.0))


def make_loop(spec: LoopSpec) -> list[FieldPoint]:
    """The n_steps + 1 field samples of the contour, phi uniform."""
    phis = np.linspace(0.0, 2.0 * math.pi, spec.n_steps + 1)
    return [loop_point(spec, p) for p in phis]


def winding_number(spec: LoopSpec, lambda_nm: float, intensity: float) -> int:
    """Winding of the contour about a point (intensity in 10^13 W/cm^2).

    Undefined if the point lies on the contour itself.
    """
    pts = make_loop(spec)
    x = np.array([p.wavelength - lambda_nm for p in pts])
    y = np.array([p.intensity / INTENSITY_UNIT - intensity for p in pts])
    ang = np.arctan2(y, x)
    dang = np.diff(ang)
    dang = (dang + math.pi) % (2.0 * math.pi) - math.pi
    return int(round(dang.sum() / (2.0 * math.pi)))


@dataclass(frozen=True)
class TrajectorySample:
    phi: float
    t_fs: float
    wavelength: float
    intensity: float          # 10^13 W/cm^2
    energy: complex           # hartree

    @property
    def width(self) -> float:
        """Decay width in hartree."""
        return -2.0 * self.energy.imag

    @property
    def width_invcm(self) -> float:
        return self.width * HARTREE_TO_INVCM


def _cumulative_integral(t: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Integral of g from t[0] to each t[i], for increasing t at any spacing.

    Each interval integrates the cubic through the four samples nearest it
    (one-sided at the ends; the polynomial through all samples when there are
    fewer than four) with two-point Gauss-Legendre, which is exact for a
    cubic.  The rule is fourth order even where g has a kink in its periodic
    extension, as the width does where a loop's pulse switches on and off.
    """
    k = min(4, len(t))
    first = np.clip(np.arange(len(t) - 1) - 1, 0, len(t) - k)
    nodes = first[:, None] + np.arange(k)
    x, y = t[nodes], g[nodes]
    mid, half = 0.5 * (t[1:] + t[:-1]), 0.5 * np.diff(t)
    total = np.zeros_like(mid)
    for z in (mid - half / math.sqrt(3.0), mid + half / math.sqrt(3.0)):
        for m in range(k):
            basis = np.ones_like(z)
            for j in range(k):
                if j != m:
                    basis *= (z - x[:, j]) / (x[:, m] - x[:, j])
            total += basis * y[:, m]
    return np.concatenate([[0.0], np.cumsum(half * total)])


@dataclass
class Trajectory:
    """A resonance transported around one loop."""

    spec: LoopSpec
    v_start: int
    v_end: int | None
    samples: list[TrajectorySample]
    characters: list[tuple[float, str]] = field(default_factory=list)

    @property
    def exchanged(self) -> bool:
        return self.v_end is not None and self.v_end != self.v_start

    @property
    def p_nd(self) -> list[tuple[float, float]]:
        """Non-dissociated fraction (t_fs, P_ND) at each sample.

        exp(-integral of the width over time in atomic units), accumulated
        sample by sample with the fourth-order rule of ``_cumulative_integral``.
        """
        t = np.array([s.t_fs for s in self.samples]) / FS_PER_AU_TIME
        g = np.array([s.width for s in self.samples])
        if np.any(g < 0.0):
            raise ModelError("negative width sample in trajectory")
        acc = _cumulative_integral(t, g)
        return [(s.t_fs, float(math.exp(-a))) for s, a in zip(self.samples, acc)]

    def survival_at_end(self) -> float:
        return self.p_nd[-1][1]


def follow_resonance(model, spec: LoopSpec, v_start: int, grid=None, *,
                     n_blocks=2, reverse=False) -> Trajectory:
    """Transport the resonance that starts as level v_start around the loop.

    The angle steps run on the step-halving driver ``continuation``, which
    seeds each solve and its secant by quadratic extrapolation of the last
    three accepted points and secant slopes, and fails a step whose solve
    misses that extrapolation by more than 5 times the previous step's miss
    (and more than 1e-4 hartree), which is what catches a jump onto the
    wrong branch.  When the driver gives up, the run aborts
    with the partial trajectory attached.  The final field-free energy must
    match a field-free level to 1e-6 hartree; its index becomes v_end.  The
    characters at phi = pi/2, pi and 3pi/2 are classified from the nearest
    samples, each probe seeded with that sample's secant slope.
    """
    grid = grid if grid is not None else RadialGrid()
    levels = field_free_levels(model, grid)
    if not 0 <= v_start < len(levels):
        raise ModelError(f"v_start={v_start} outside the {len(levels)} "
                         "bound levels")
    if spec.t_f < ADIABATIC_TF_FS:
        warnings.warn(f"t_f = {spec.t_f} fs is below the {ADIABATIC_TF_FS} fs "
                      "adiabatic transport guideline", stacklevel=2)

    two_pi = 2.0 * math.pi
    phis = np.linspace(0.0, two_pi, spec.n_steps + 1)
    if reverse:
        phis = phis[::-1]
    progress_span = phis[-1] - phis[0]

    def mk_sample(phi, energy):
        fp = loop_point(spec, phi)
        t = spec.t_f * (phi - phis[0]) / progress_span
        return TrajectorySample(phi=float(phi), t_fs=float(t),
                                wavelength=fp.wavelength,
                                intensity=fp.intensity / INTENSITY_UNIT,
                                energy=energy)

    slopes = {}               # phi -> secant slope of the latest solve there

    def step(phi, guess, slope):
        system = build_system(model, loop_point(spec, phi), grid,
                              n_blocks=n_blocks)
        res = find_resonance(system, guess, slope=slope)
        slopes[phi] = res.slope
        return res.energy, res.slope

    points = [(float(phis[0]), complex(levels[v_start].energy))]
    try:
        for _ in continuation(points, phis[1:], step):
            pass
    except ConvergenceError as ex:
        raise ContinuationError(
            f"loop continuation broke down: {ex}",
            partial=Trajectory(spec=spec, v_start=v_start, v_end=None,
                               samples=[mk_sample(*p) for p in points])) from ex

    e_end = points[-1][1]
    v_end = None
    for lv in levels:
        if abs(e_end.real - lv.energy) < 1e-6:
            v_end = lv.v
            break
    if v_end is None:
        raise ConvergenceError(
            f"final energy {e_end.real:.8f} matches no field-free level")

    samples = [mk_sample(*p) for p in points]
    traj = Trajectory(spec=spec, v_start=v_start, v_end=v_end, samples=samples)
    for q in (0.5 * math.pi, math.pi, 1.5 * math.pi):
        s = min(samples, key=lambda s: abs(s.phi - q))
        field_point = FieldPoint(s.wavelength, s.intensity * INTENSITY_UNIT)
        traj.characters.append(
            (s.phi, classify_resonance(model, field_point, s.energy, grid, n_blocks,
                                       slope=slopes.get(s.phi))))
    return traj


def run_scenario(model, loops, grid=None, *, n_blocks=2) -> list[Trajectory]:
    """Run a chain of loops, each starting where the previous ended, and
    return their trajectories.

    loops is an ordered list of (LoopSpec, (v_from, v_to)) with matching
    chain labels; a loop that ends on an unexpected label aborts the run.
    """
    loops = list(loops)
    if not loops:
        raise ModelError("scenario needs at least one loop")
    for (_, (a, _)), (_, (_, b)) in zip(loops[1:], loops[:-1]):
        if a != b:
            raise ModelError(f"scenario chain broken: loop expects v={a} "
                             f"but previous ends at v={b}")
    trajectories = []
    for spec, (v_from, v_to) in loops:
        traj = follow_resonance(model, spec, v_from, grid, n_blocks=n_blocks)
        trajectories.append(traj)
        if traj.v_end != v_to:
            raise ConvergenceError(
                f"loop {len(trajectories)} transferred v={v_from} -> "
                f"{traj.v_end}, expected {v_to}")
    return trajectories


def trajectory_to_csv(traj: Trajectory, path):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phi", "t_fs", "lambda_nm", "intensity_1e13",
                    "ReE_hartree", "Gamma_cm1", "P_ND"])
        for s, (_, p) in zip(traj.samples, traj.p_nd):
            w.writerow([f"{s.phi:.12g}", f"{s.t_fs:.12g}",
                        f"{s.wavelength:.12g}", f"{s.intensity:.12g}",
                        f"{s.energy.real:.12g}", f"{s.width_invcm:.12g}",
                        f"{p:.12g}"])
