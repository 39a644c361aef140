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

from .bound_states import vibrational_levels
from .errors import ContinuationError, ConvergenceError, ModelError
from .floquet import build_system, classify_resonance, continuation, find_resonance
from .molecule import FieldPoint, RadialGrid
from .units import FS_PER_AU_TIME, INTENSITY_UNIT, width_to_invcm

# a pulse shorter than this traverses the loop too fast for the adiabatic
# transport picture; emit a warning but run anyway
ADIABATIC_TF_FS = 30.0

# a loop step fails on a miss above max(_ACCEPT_FACTOR * last miss, _ACCEPT_FLOOR)
_ACCEPT_FACTOR = 5.0
_ACCEPT_FLOOR = 1e-4


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
        if self.i_max <= 0.0:
            raise ModelError("i_max must be positive")
        if self.t_f <= 0.0:
            raise ModelError("t_f must be positive")
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
    width_invcm: float

    @property
    def width(self) -> float:
        """Decay width in hartree."""
        return -2.0 * self.energy.imag


@dataclass
class Trajectory:
    """A resonance transported around one loop."""

    spec: LoopSpec
    v_start: int
    v_end: int | None
    samples: list[TrajectorySample]
    characters: list[tuple[float, str]] = field(default_factory=list)
    p_nd: list[tuple[float, float]] = field(default_factory=list)

    @property
    def exchanged(self) -> bool:
        return self.v_end is not None and self.v_end != self.v_start

    def survival_at_end(self) -> float:
        if not self.p_nd:
            survival(self)
        return self.p_nd[-1][1]


def _extrapolate(points, phi):
    """Quadratic extrapolation of the branch energy to a new angle."""
    if len(points) >= 3:
        (x0, y0), (x1, y1), (x2, y2) = points[-3:]
        l0 = (phi - x1) * (phi - x2) / ((x0 - x1) * (x0 - x2))
        l1 = (phi - x0) * (phi - x2) / ((x1 - x0) * (x1 - x2))
        l2 = (phi - x0) * (phi - x1) / ((x2 - x0) * (x2 - x1))
        return y0 * l0 + y1 * l1 + y2 * l2
    if len(points) == 2:
        (x0, y0), (x1, y1) = points[-2:]
        return y1 + (y1 - y0) * (phi - x1) / (x1 - x0)
    return points[-1][1]


def follow_resonance(model, spec: LoopSpec, v_start: int, grid=None, *,
                     n_blocks=2, reverse=False) -> Trajectory:
    """Transport the resonance that starts as level v_start around the loop.

    Each angle step is seeded by quadratic extrapolation of the previous
    three accepted points and runs on the step-halving driver
    ``continuation``; a step fails whenever the solve misses the
    extrapolation by more than _ACCEPT_FACTOR times the previous step's
    miss (with the absolute floor _ACCEPT_FLOOR), which is what catches a
    jump onto the wrong branch.  When the driver gives up, the run aborts
    with the partial trajectory attached.  The final field-free energy must
    match a field-free level to 1e-6 hartree; its index becomes v_end.
    """
    grid = grid if grid is not None else RadialGrid()
    levels = vibrational_levels(model.vg_curve, model.reduced_mass,
                                r_min=grid.r_min, r_max=grid.r_max,
                                n_points=grid.n_points)
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
                                energy=energy,
                                width_invcm=width_to_invcm(-2.0 * energy.imag))

    prev_miss = _ACCEPT_FLOOR

    def step(points, phi):
        nonlocal prev_miss
        guess = _extrapolate(points, phi)
        system = build_system(model, loop_point(spec, phi), grid,
                              n_blocks=n_blocks)
        energy = find_resonance(system, guess).energy
        miss = abs(energy - guess)
        if miss > max(_ACCEPT_FACTOR * prev_miss, _ACCEPT_FLOOR):
            raise ConvergenceError("continuity threshold tripped",
                                   last_value=energy)
        prev_miss = max(miss, 1e-9)
        return energy

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
            (s.phi, classify_resonance(model, field_point, s.energy, grid, n_blocks)))
    survival(traj)
    return traj


def survival(traj: Trajectory) -> list[tuple[float, float]]:
    """Non-dissociated fraction along the trajectory.

    Trapezoidal integration of the width over time in atomic units;
    the series is attached to the trajectory and returned.
    """
    t = np.array([s.t_fs for s in traj.samples]) / FS_PER_AU_TIME
    g = np.array([s.width for s in traj.samples])
    if np.any(g < 0.0):
        raise ModelError("negative width sample in trajectory")
    acc = np.concatenate([[0.0], np.cumsum(0.5 * (g[1:] + g[:-1]) * np.diff(t))])
    series = [(s.t_fs, float(math.exp(-a))) for s, a in zip(traj.samples, acc)]
    traj.p_nd = series
    return series


@dataclass
class ScenarioReport:
    """Chained-loop comparison: per-loop transfers and survivals."""

    trajectories: list[Trajectory]
    transfers: list[tuple[int, int]]
    survivals: list[float]
    cumulative: float


def run_scenario(model, loops, grid=None, *, n_blocks=2) -> ScenarioReport:
    """Run a chain of loops, each starting where the previous ended.

    loops is an ordered list of (LoopSpec, (v_from, v_to)) with matching
    chain labels; a loop that ends on an unexpected label aborts the run.
    Cumulative survival is the product of the per-loop end-point values.
    """
    loops = list(loops)
    if not loops:
        raise ModelError("scenario needs at least one loop")
    for (_, (a, _)), (_, (_, b)) in zip(loops[1:], loops[:-1]):
        if a != b:
            raise ModelError(f"scenario chain broken: loop expects v={a} "
                             f"but previous ends at v={b}")
    trajectories, transfers, survivals = [], [], []
    for spec, (v_from, v_to) in loops:
        traj = follow_resonance(model, spec, v_from, grid, n_blocks=n_blocks)
        trajectories.append(traj)
        transfers.append((traj.v_start, traj.v_end))
        survivals.append(traj.survival_at_end())
        if traj.v_end != v_to:
            raise ConvergenceError(
                f"loop {len(transfers)} transferred v={v_from} -> "
                f"{traj.v_end}, expected {v_to}")
    return ScenarioReport(trajectories=trajectories, transfers=transfers,
                          survivals=survivals,
                          cumulative=float(np.prod(survivals)))


def trajectory_to_csv(traj: Trajectory, path):
    if not traj.p_nd:
        survival(traj)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["phi", "t_fs", "lambda_nm", "intensity_1e13",
                    "ReE_hartree", "Gamma_cm1", "P_ND"])
        for s, (_, p) in zip(traj.samples, traj.p_nd):
            w.writerow([f"{s.phi:.12g}", f"{s.t_fs:.12g}",
                        f"{s.wavelength:.12g}", f"{s.intensity:.12g}",
                        f"{s.energy.real:.12g}", f"{s.width_invcm:.12g}",
                        f"{p:.12g}"])
