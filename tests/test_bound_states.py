import numpy as np
import pytest
from numpy.testing import assert_allclose

from floqep import bound_states
from floqep.bound_states import (
    BoundLevel,
    _Shooter,
    adiabatic_levels,
    vibrational_levels,
)
from floqep.errors import ConvergenceError, ModelError
from floqep.molecule import FieldPoint, exp_repulsive, load_molecule, morse_curve


@pytest.fixture(scope="module")
def h2plus():
    return load_molecule("h2plus")


@pytest.fixture(scope="module")
def h2plus_levels(h2plus):
    return vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass)


class TestHarmonicOracle:
    def test_matches_closed_form(self):
        k, mass, re = 100.0, 100.0, 5.0
        pot = lambda r: 0.5 * k * (np.asarray(r) - re) ** 2
        levels = vibrational_levels(pot, mass, 8, r_min=3.0, r_max=7.0, n_points=6001)
        w = np.sqrt(k / mass)
        assert len(levels) == 9
        for lvl in levels:
            assert lvl.energy == pytest.approx(w * (lvl.v + 0.5), rel=1e-8)

    def test_requires_vmax_without_asymptote(self):
        pot = lambda r: 0.5 * (np.asarray(r) - 5.0) ** 2
        with pytest.raises(ModelError, match="v_max is required"):
            vibrational_levels(pot, 1.0, r_min=3.0, r_max=7.0)


class TestMorseOracle:
    D, A, R0, MASS = 0.17, 1.02, 2.0, 918.0

    def exact(self, v):
        w0 = self.A * np.sqrt(2 * self.D / self.MASS)
        return -self.D + w0 * (v + 0.5) - w0 ** 2 / (4 * self.D) * (v + 0.5) ** 2

    def test_matches_closed_form(self):
        crv = morse_curve(self.D, self.A, self.R0)
        levels = vibrational_levels(crv, self.MASS, 10, r_min=0.4, r_max=12.0, n_points=8001)
        assert not levels.truncated
        for lvl in levels:
            assert lvl.energy == pytest.approx(self.exact(lvl.v), rel=1e-8)

    def test_truncation_flag(self):
        crv = morse_curve(self.D, self.A, self.R0)
        # lambda parameter a*sqrt(2 m D)/... bounds the count well below 200
        levels = vibrational_levels(crv, self.MASS, 200, r_min=0.4, r_max=16.0, n_points=8001)
        assert levels.truncated
        assert len(levels) < 201
        assert all(lvl.energy < 0 for lvl in levels)

    def test_energies_strictly_increasing(self):
        crv = morse_curve(self.D, self.A, self.R0)
        levels = vibrational_levels(crv, self.MASS, 10, r_min=0.4, r_max=12.0, n_points=8001)
        e = [lvl.energy for lvl in levels]
        assert np.all(np.diff(e) > 0)
        assert [lvl.v for lvl in levels] == list(range(11))


class TestBundledCurve:
    def test_level_count(self, h2plus_levels):
        # ground curve supports v = 0..16 and then some
        assert len(h2plus_levels) >= 17

    def test_frozen_energies(self, h2plus_levels):
        # reference values from this solver at n_points = 12001; stable to
        # better than 1e-10 under grid doubling
        frozen = {0: -0.0973959022, 5: -0.0530820993, 12: -0.0130678834, 16: -0.0019532014}
        got = {lvl.v: lvl.energy for lvl in h2plus_levels}
        for v, e in frozen.items():
            assert got[v] == pytest.approx(e, abs=2e-9)

    def test_dissociation_energy(self, h2plus_levels):
        # D0 = 2.65 eV for the hydrogen molecular ion
        assert -h2plus_levels[0].energy * 27.2114 == pytest.approx(2.650, abs=0.002)

    def test_grid_doubling_invariance(self, h2plus, h2plus_levels):
        doubled = vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass, n_points=24001)
        for a, b in zip(h2plus_levels, doubled):
            assert b.energy == pytest.approx(a.energy, abs=1e-10)

    def test_all_below_asymptote(self, h2plus_levels):
        assert all(lvl.energy < 0 for lvl in h2plus_levels)


class TestErrors:
    def test_no_minimum(self):
        crv = exp_repulsive(2.0, 0.9)
        with pytest.raises(ModelError, match="no minimum"):
            vibrational_levels(crv, 918.0, 3, r_min=0.5, r_max=10.0)

    def test_bad_mass(self):
        crv = morse_curve(0.1, 0.7, 2.0)
        with pytest.raises(ModelError, match="mass"):
            vibrational_levels(crv, -1.0, 3)

    def test_bad_vmax(self):
        crv = morse_curve(0.1, 0.7, 2.0)
        with pytest.raises(ModelError, match="v_max"):
            vibrational_levels(crv, 918.0, -2)


class TestAdiabaticLevels:
    def test_zero_intensity_rejected(self, h2plus):
        with pytest.raises(ModelError, match="zero-field adiabat undefined at crossing"):
            adiabatic_levels(h2plus, FieldPoint(wavelength=800.0, intensity=0.0), 3)

    def test_weak_field_levels_exist(self, h2plus):
        levels = adiabatic_levels(h2plus, FieldPoint(wavelength=789.7, intensity=1e3), 3)
        assert len(levels) >= 2
        assert all(lvl.energy < 0 for lvl in levels)
        assert [lvl.v for lvl in levels] == list(range(len(levels)))

    def test_energies_rise_with_wavelength(self, h2plus):
        # the upper-adiabat well floor tracks the crossing point, which moves
        # outward and up the attractive curve as the photon softens
        scan = [adiabatic_levels(h2plus, FieldPoint(lam, 1e3), 2) for lam in
                (500.0, 600.0, 700.0, 800.0, 900.0)]
        for v in range(2):
            e = [s[v].energy for s in scan]
            assert np.all(np.diff(e) > 0)

    def test_frozen_level(self, h2plus):
        # first excited quasi-bound level at the red end of the scan range
        levels = adiabatic_levels(h2plus, FieldPoint(789.7, 1e3), 2)
        assert levels[1].energy == pytest.approx(-0.0149461, abs=2e-6)


def shooter_and_levels(potential, mass, r_min, r_max, n_points, v_max=None):
    """The solver's shooter on the grid vibrational_levels uses, with its levels."""
    r = np.linspace(r_min, r_max, n_points)
    shooter = _Shooter(np.asarray(potential(r)) - potential.asymptote,
                       (r_max - r_min) / (n_points - 1), mass)
    levels = vibrational_levels(potential, mass, v_max, r_min=r_min, r_max=r_max,
                                n_points=n_points)
    return shooter, levels


@pytest.fixture(scope="module", params=["h2plus-3001", "h2plus-6001", "morse"])
def shooter_case(request, h2plus):
    if request.param == "morse":
        m = TestMorseOracle
        return shooter_and_levels(morse_curve(m.D, m.A, m.R0), m.MASS, 0.4, 12.0, 8001, 10)
    n_points = int(request.param.split("-")[1])
    return shooter_and_levels(h2plus.vg_curve, h2plus.reduced_mass, 0.5, 25.0, n_points)


def shooting_nodes(shooter, e):
    """Reference count: sign changes of the outward Numerov recursion from
    psi_0 = 0, psi_1 = 1, point by point with overflow rescaling."""
    f = 1.0 - shooter.c2 * (shooter.v - e)
    p0, p1, nodes = 0.0, 1.0, 0
    for k in range(1, shooter.n - 1):
        p2 = ((12.0 - 10.0 * f[k]) * p1 - f[k - 1] * p0) / f[k + 1]
        if abs(p2) > 1e250:
            p1, p2 = p1 * 1e-250, p2 * 1e-250
        nodes += p1 * p2 < 0.0
        p0, p1 = p1, p2
    return nodes


class TestLevelSolver:
    def test_node_count_matches_shooting_recursion(self, shooter_case):
        shooter, levels = shooter_case
        for e in np.linspace(levels[0].energy - 1e-3, levels[-1].energy + 1e-4, 60):
            assert shooter.count_nodes(e) == shooting_nodes(shooter, e)

    def test_node_count_brackets_every_level(self, shooter_case):
        shooter, levels = shooter_case
        for lvl in levels:
            delta = 1e-9 * max(1.0, abs(lvl.energy))
            assert shooter.count_nodes(lvl.energy - delta) == lvl.v
            assert shooter.count_nodes(lvl.energy + delta) == lvl.v + 1

    def test_newton_step_vanishes_at_levels(self, shooter_case):
        shooter, levels = shooter_case
        for lvl in levels:
            assert abs(shooter.newton_step(lvl.energy)) < 1e-12

    def test_singular_solve_raises(self):
        # f = 1 - (V - E) = (1, 0, 1.2, 1): the 2x2 Numerov matrix
        # [[12, -1.2], [0, 12 - 10 * 1.2]] has an exact zero pivot
        with pytest.raises(ConvergenceError, match="singular"):
            _Shooter(np.array([0.0, 1.0, -0.2, 0.0]), 1.0, 6.0).count_nodes(0.0)

    def test_singular_branch_falls_back_to_bisection(self, h2plus, monkeypatch):
        shooter, levels = shooter_and_levels(h2plus.vg_curve, h2plus.reduced_mass,
                                             0.5, 25.0, 3001)
        real = bound_states._dgtsv

        def singular_branches(dl, d, du, b, **kw):
            *out, info = real(dl, d, du, b, **kw)
            # the shooting branches are shorter than the full node-count solve
            return (*out, 1 if len(d) < shooter.n - 2 else info)

        monkeypatch.setattr(bound_states, "_dgtsv", singular_branches)
        with pytest.raises(ConvergenceError, match="singular"):
            shooter.newton_step(levels[5].energy)
        e = shooter.solve_level(5, levels[4].energy + 1e-6, levels[6].energy - 1e-6)
        assert e == pytest.approx(levels[5].energy, abs=1e-11)
