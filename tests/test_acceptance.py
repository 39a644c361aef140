"""Acceptance gate: one test per headline requirement, in order.

The first five are quantitative runs of the bundled hydrogen-ion model
(level count, coalescence positions and ordering, loop survivals, width
ordering); the last five are model-independent properties (weak-field
limit, closed-form oracles, contour invariance, exchange topology,
survival quadrature).  Expensive refinements and loop traversals are
shared through session fixtures.
"""

import cmath
import math

import numpy as np
import pytest

from floqep.bound_states import vibrational_levels
from floqep.ep import (EPCandidate, approximate_eps, find_double_root,
                       refine_ep)
from floqep.errors import ConvergenceError, ModelError
from floqep.floquet import build_system, find_resonance
from floqep.loops import (LoopSpec, Trajectory, TrajectorySample,
                          follow_resonance, run_scenario, winding_number)
from floqep.molecule import FieldPoint, RadialGrid, load_molecule, morse_curve
from floqep.units import FS_PER_AU_TIME

# coarse-scan crossing wavelengths for the v = 12..16 coalescence family,
# frozen from the candidate stage so the refinements here are deterministic
# and fast; the scan itself is exercised in the pair-position test below
CLUSTER_SEEDS = [(12, 13, 2, 635.95), (13, 14, 3, 602.58),
                 (14, 15, 4, 579.67), (15, 16, 5, 562.70)]
FIFTH_SEED = (11, 12, 2, 506.27)


def exchange_spec(rec, n_steps=200):
    """Contour that encircles one coalescence: centred on its wavelength,
    peak intensity 15% above it, closing back to zero field."""
    return LoopSpec(lambda0=rec.lambda_ep, d_lambda=-5.0,
                    i_max=1.15 * rec.intensity_ep, t_f=30.0, n_steps=n_steps)


@pytest.fixture(scope="session")
def h2plus():
    return load_molecule("h2plus")


@pytest.fixture(scope="session")
def cluster_records(h2plus):
    return [refine_ep(h2plus, EPCandidate(v=v, v_partner=p, v_plus=vp,
                                          lambda_guess=guess))
            for v, p, vp, guess in CLUSTER_SEEDS]


@pytest.fixture(scope="session")
def five_records(h2plus, cluster_records):
    v, p, vp, guess = FIFTH_SEED
    fifth = refine_ep(h2plus, EPCandidate(v=v, v_partner=p, v_plus=vp,
                                          lambda_guess=guess))
    return [*cluster_records, fifth]


@pytest.fixture(scope="session")
def forward_single_loop(h2plus, cluster_records):
    return follow_resonance(h2plus, exchange_spec(cluster_records[0]), 12)


@pytest.fixture(scope="session")
def reverse_single_loop(h2plus, cluster_records):
    return follow_resonance(h2plus, exchange_spec(cluster_records[0]), 12,
                            reverse=True)


def test_ground_curve_supports_seventeen_levels(h2plus):
    """The attractive curve binds at least v = 0..16, the whole ladder the
    exchange studies rely on."""
    levels = vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass,
                                r_min=0.3, r_max=30.0, n_points=12001)
    assert len(levels) >= 17
    assert [lv.v for lv in levels[:17]] == list(range(17))
    assert all(lv.energy < 0.0 for lv in levels)


def test_pair_12_13_coalescence_positions(h2plus):
    """The (12,13) pair coalesces twice: once near 575 nm with intensity
    near 0.261e13 W/cm^2, and a second time near 788 nm (both +/- 15 nm).
    Positions are sensitive to the potential and dipole data."""
    cands = approximate_eps(h2plus, (12,), range(9), (480.0, 920.0))
    records = []
    for cand in cands:
        try:
            records.append(refine_ep(h2plus, cand))
        except (ConvergenceError, ModelError):
            pass
    assert records, "no (12,13) coalescence refined anywhere in 480-920 nm"
    found = sorted((round(float(r.lambda_ep), 2), round(float(r.intensity_ep), 4))
                   for r in records)

    primary = [r for r in records if 560.0 <= r.lambda_ep <= 590.0
               and 0.211 <= r.intensity_ep <= 0.311]
    assert primary, ("no (12,13) coalescence with lambda in 575 +/- 15 nm "
                     f"and I in 0.261 +/- 0.05; found {found}")
    secondary = [r for r in records if 773.0 <= r.lambda_ep <= 803.0]
    assert secondary, ("no second (12,13) coalescence with lambda in "
                       f"788 +/- 15 nm; found {found}")


def test_cluster_wavelengths_fall_and_intensities_rise(cluster_records):
    """Across the v = 12..16 family the coalescence wavelength drops
    strictly and the intensity climbs strictly with v."""
    assert [r.pair for r in cluster_records] == [(12, 13), (13, 14),
                                                 (14, 15), (15, 16)]
    lams = [r.lambda_ep for r in cluster_records]
    intens = [r.intensity_ep for r in cluster_records]
    assert all(a > b for a, b in zip(lams, lams[1:])), lams
    assert all(a < b for a, b in zip(intens, intens[1:])), intens
    assert all(r.gap_residual < 1e-8 for r in cluster_records)
    # one wavelength band: consecutive gaps all well under the 50 nm split
    assert lams[0] - lams[-1] < 100.0


def test_loop_survival_magnitudes(h2plus, cluster_records,
                                  forward_single_loop):
    """30 fs traversals: the single-pair exchange keeps 10-25% of the
    population, the cluster-encircling 12 -> 16 loop 2-10%, and chaining
    four single-pair loops lands strictly below the cluster loop."""
    single = forward_single_loop
    assert (single.v_start, single.v_end) == (12, 13)
    p_single = single.survival_at_end()
    assert 0.10 <= p_single <= 0.25, p_single

    cluster_spec = LoopSpec(lambda0=601.0, d_lambda=45.0, i_max=0.284,
                            t_f=30.0, n_steps=300)
    for rec in cluster_records:
        assert abs(winding_number(cluster_spec, rec.lambda_ep,
                                  rec.intensity_ep)) == 1
    cluster_loop = follow_resonance(h2plus, cluster_spec, 12)
    assert cluster_loop.v_end == 16
    p_cluster = cluster_loop.survival_at_end()
    assert 0.02 <= p_cluster <= 0.10, p_cluster

    chain = [(exchange_spec(rec), rec.pair) for rec in cluster_records]
    trajectories = run_scenario(h2plus, chain)
    assert ([(t.v_start, t.v_end) for t in trajectories]
            == [(12, 13), (13, 14), (14, 15), (15, 16)])
    assert math.prod(t.survival_at_end() for t in trajectories) < p_cluster


def test_narrow_branch_widths_stay_below_broad_branch(forward_single_loop,
                                                      reverse_single_loop):
    """The two traversal directions of the same single-pair contour ride
    different branches.  At matched contour angle (up to 3pi/2, where the
    exchange completes and the roles cross over) the high-survival
    direction's widths stay pointwise below the other's."""
    fwd = {round(s.phi, 9): s.width_invcm for s in forward_single_loop.samples}
    rev = {round(s.phi, 9): s.width_invcm
           for s in reverse_single_loop.samples}
    common = sorted(set(fwd) & set(rev))
    assert len(common) >= 150

    compared = 0
    for phi in common:
        if phi > 1.5 * math.pi or fwd[phi] <= 1e-3 or rev[phi] <= 1e-3:
            continue
        assert fwd[phi] <= rev[phi], (
            f"width ordering broken at phi={phi:.4f}: "
            f"{fwd[phi]:.3f} cm^-1 vs {rev[phi]:.3f} cm^-1")
        compared += 1
    assert compared >= 100
    assert max(fwd.values()) < max(rev.values())


def test_weak_field_limit_recovers_bound_levels(h2plus):
    """At 1e6 W/cm^2 every v <= 16 resonance sits on its field-free level
    to 1e-8 hartree with width below 1e-10 hartree.  The probe runs at
    70 nm, where the one-photon crossing lies inside every inner turning
    point, so neither channel opening nor level repulsion can leak in at
    this intensity."""
    grid = RadialGrid()
    levels = vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass,
                                r_min=grid.r_min, r_max=grid.r_max,
                                n_points=grid.n_points)
    assert len(levels) >= 17
    system = build_system(h2plus, FieldPoint(70.0, 1.0e6), grid)
    for lv in levels[:17]:
        res = find_resonance(system, complex(lv.energy))
        de = abs(res.energy.real - lv.energy)
        assert de < 1e-8, f"v={lv.v}: position moved by {de:.3e} hartree"
        assert res.width < 1e-10, f"v={lv.v}: width {res.width:.3e} hartree"


def test_closed_form_oracles():
    """Two independent anchors: the analytic Morse spectrum (1e-8
    relative) and a two-level model with an exactly placed coalescence
    (1e-6 relative on both coordinates)."""
    d, a, r0, mass = 0.17, 1.02, 2.0, 918.0
    levels = vibrational_levels(morse_curve(d, a, r0), mass, 10,
                                r_min=0.4, r_max=12.0, n_points=8001)
    assert len(levels) == 11
    w0 = a * math.sqrt(2.0 * d / mass)
    for lv in levels:
        exact = -d + w0 * (lv.v + 0.5) - w0 ** 2 / (4.0 * d) * (lv.v + 0.5) ** 2
        assert lv.energy == pytest.approx(exact, rel=1e-8)

    e0 = -0.012 - 0.0015j

    def s2(lam, inten):
        return 2.5e-4 * (lam - 600.0) + 1j * 4.0e-4 * (inten - 0.2)

    def det_at(lam, inten):
        return lambda e: (e - e0) ** 2 - s2(lam, inten)

    # seeded like refine_ep: the pair e0 +/- s at the candidate wavelength
    lam, inten, e_ep, _ = find_double_root(det_at, e0, 601.0, 0.25,
                                           abs(cmath.sqrt(s2(601.0, 0.25))))
    assert lam == pytest.approx(600.0, rel=1e-6)
    assert inten == pytest.approx(0.2, rel=1e-6)
    assert e_ep == pytest.approx(e0, abs=1e-8)


def test_resonance_invariant_under_contour_changes(h2plus):
    """A resonance is a property of the Hamiltonian, not of the numerical
    contour: rotating the exterior-scaling angle by +/- 0.05 rad or
    doubling the grid moves it by less than 1e-8 hartree."""
    wavelength, intensity = 788.2, 1.0e12
    base_grid = RadialGrid()
    levels = vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass,
                                r_min=base_grid.r_min, r_max=base_grid.r_max,
                                n_points=base_grid.n_points)

    def solve(grid):
        e = complex(levels[12].energy)
        res = None
        for inten in np.linspace(intensity / 6.0, intensity, 6):
            system = build_system(h2plus, FieldPoint(wavelength, inten), grid)
            res = find_resonance(system, e)
            e = res.energy
        return res.energy

    base = solve(base_grid)
    assert base.imag < 0.0
    for angle in (base_grid.ecs_angle - 0.05, base_grid.ecs_angle + 0.05):
        moved = solve(RadialGrid(ecs_angle=angle))
        assert abs(moved - base) < 1e-8, f"angle {angle}: {moved - base}"
    doubled = solve(base_grid.doubled())
    assert abs(doubled - base) < 1e-8, f"doubling: {doubled - base}"


def test_encircling_loops_exchange_labels(h2plus, five_records):
    """For five refined coalescences: a |winding| = 1 contour swaps
    exactly the two labels of its pair from either starting point, a
    second traversal restores the start, reverse traversal undoes the
    forward exchange, and a winding-0 contour is the identity."""
    assert len(five_records) >= 5
    for rec in five_records:
        v, partner = rec.pair
        spec = exchange_spec(rec, n_steps=100)
        assert abs(winding_number(spec, rec.lambda_ep,
                                  rec.intensity_ep)) == 1

        first = follow_resonance(h2plus, spec, v)
        assert first.v_end == partner, \
            f"EP{rec.pair}: {v} -> {first.v_end}"
        again = follow_resonance(h2plus, spec, first.v_end)
        assert again.v_end == v, \
            f"EP{rec.pair}: double traversal ended at {again.v_end}"
        undone = follow_resonance(h2plus, spec, partner, reverse=True)
        assert undone.v_end == v, \
            f"EP{rec.pair}: reverse from {partner} -> {undone.v_end}"

        null_spec = LoopSpec(lambda0=rec.lambda_ep, d_lambda=2.0,
                             i_max=0.5 * rec.intensity_ep, t_f=30.0,
                             n_steps=100)
        assert winding_number(null_spec, rec.lambda_ep,
                              rec.intensity_ep) == 0
        identity = follow_resonance(h2plus, null_spec, v)
        assert identity.v_end == v, \
            f"EP{rec.pair}: null loop ended at {identity.v_end}"


def test_survival_quadrature_properties():
    """The time-integrated decay obeys the three checks an exponential
    quadrature must pass: exactness for a constant rate (1e-12), step-
    doubling convergence for a smooth profile (1e-4 relative), and strict
    log-linearity in the pulse duration."""

    def synthetic(width_of_phi, t_f, n_steps):
        spec = LoopSpec(lambda0=600.0, d_lambda=1.0, i_max=0.1,
                        t_f=t_f, n_steps=n_steps)
        samples = []
        for k in range(n_steps + 1):
            phi = 2.0 * math.pi * k / n_steps
            w = width_of_phi(phi)
            samples.append(TrajectorySample(
                phi=phi, t_fs=t_f * phi / (2.0 * math.pi), wavelength=600.0,
                intensity=0.0, energy=complex(-0.01, -0.5 * w)))
        return Trajectory(spec=spec, v_start=0, v_end=0, samples=samples)

    gamma = 2.5e-5
    flat = synthetic(lambda phi: gamma, 30.0, 200)
    assert flat.survival_at_end() == pytest.approx(
        math.exp(-gamma * 30.0 / FS_PER_AU_TIME), rel=1e-12)

    def profile(phi):
        return 1.5e-4 * math.sin(0.5 * phi) ** 2

    p1 = synthetic(profile, 30.0, 200).survival_at_end()
    p2 = synthetic(profile, 30.0, 400).survival_at_end()
    assert p2 == pytest.approx(p1, rel=1e-4)
    assert p2 == pytest.approx(
        math.exp(-1.5e-4 * 0.5 * 30.0 / FS_PER_AU_TIME), rel=1e-5)

    p30 = synthetic(profile, 30.0, 300).survival_at_end()
    p60 = synthetic(profile, 60.0, 300).survival_at_end()
    p90 = synthetic(profile, 90.0, 300).survival_at_end()
    assert p60 == pytest.approx(p30 ** 2, rel=1e-12)
    assert p90 == pytest.approx(p30 ** 3, rel=1e-12)
