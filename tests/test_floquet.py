import cmath
import dataclasses
import os
import random

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from floqep import floquet
from floqep.bound_states import vibrational_levels
from floqep.errors import ConvergenceError, GridError, ModelError
from floqep.floquet import (
    Resonance,
    build_system,
    classify_resonance,
    continuation,
    find_resonance,
    ramp_resonance,
)
from floqep.molecule import (
    FieldPoint,
    MoleculeModel,
    RadialGrid,
    TabulatedCurve,
    exp_repulsive,
    linear_dipole,
    load_molecule,
    morse_curve,
)


@pytest.fixture(scope="module")
def h2plus():
    return load_molecule("h2plus")


@pytest.fixture(scope="module")
def grid():
    return RadialGrid()


@pytest.fixture(scope="module")
def free_levels(h2plus, grid):
    # field-free reference on the same span and spacing as the contour grid
    return vibrational_levels(h2plus.vg_curve, h2plus.reduced_mass,
                              r_min=grid.r_min, r_max=grid.r_max,
                              n_points=grid.n_points)


@pytest.fixture(scope="module")
def toy():
    model = MoleculeModel(name="toy", vg_curve=morse_curve(0.1, 0.7, 2.0),
                          vu_curve=exp_repulsive(2.0, 0.9),
                          dipole=linear_dipole(0.5), reduced_mass=50.0)
    tgrid = RadialGrid(r_min=0.4, r_max=14.0, n_points=501,
                       ecs_radius=9.0, ecs_angle=0.3)
    levels = vibrational_levels(model.vg_curve, model.reduced_mass,
                                r_min=0.4, r_max=14.0, n_points=501)
    return model, tgrid, levels


@pytest.fixture(scope="module")
def toy_tables(toy):
    """The toy model with both potentials replaced by tables of themselves."""
    model, _, _ = toy
    r = np.linspace(0.3, 20.0, 400)
    return dataclasses.replace(
        model, vg_curve=TabulatedCurve(r, model.vg_curve(r), tail_start=6.0),
        vu_curve=TabulatedCurve(r, model.vu_curve(r), tail_start=6.0))


def dense_pencil(system, e0):
    """The Numerov rows 1..n-2 of ``system`` as a dense pencil (A, B),
    T(E) = A + E B, one row and column per (grid point, block).

    Interior rows are the three-point recursion with the step factor of the
    row's own contour segment; the corner row is linearized in E about e0,
    so A + e0 B is exact there too.
    """
    model, grid = system.model, system.grid
    n, c, nb = grid.n_points, grid.corner_index, len(system.blocks)
    # step factors of the real and the rotated segment
    h = grid.step
    b_step = h * cmath.exp(1j * grid.ecs_angle)
    p = np.where(np.arange(n) > c, b_step * b_step / 12.0, h * h / 12.0)
    two_m = 2.0 * model.reduced_mass
    z = grid.contour()

    def on_contour(crv):
        return np.concatenate([crv(z[:c].real), crv.at(z[c:])])

    # V + n omega - reference of each block, and -M E0 mu off the diagonal
    curves = {"g": model.vg_curve, "u": model.vu_curve}
    vd = [on_contour(curves[state]) + n_ph * system.field.omega
          - model.vg_curve.asymptote for state, n_ph in system.blocks]
    woff = -model.reduced_mass * system.field.e0 * on_contour(model.dipole)
    off = np.eye(nb, k=1) + np.eye(nb, k=-1)
    w_corner = lambda e: (np.diag([two_m * (v[c] - e) for v in vd])
                          + woff[c] * off)
    big = (n - 2) * nb
    a = np.zeros((big, big), complex)
    b = np.zeros((big, big), complex)
    idx = lambda k, blk: (k - 1) * nb + blk
    ap, am, a0 = system._corner_matrices(w_corner(e0))
    de = 1e-6
    ap2, am2, a02 = system._corner_matrices(w_corner(e0 + de))
    dap, dam, da0 = (ap2 - ap) / de, (am2 - am) / de, (a02 - a0) / de
    for k in range(1, n - 1):
        if k == c:
            for blk in range(nb):
                r = idx(k, blk)
                for b2 in range(nb):
                    a[r, idx(k + 1, b2)] += ap[blk, b2] - e0 * dap[blk, b2]
                    b[r, idx(k + 1, b2)] += dap[blk, b2]
                    a[r, idx(k - 1, b2)] += am[blk, b2] - e0 * dam[blk, b2]
                    b[r, idx(k - 1, b2)] += dam[blk, b2]
                    a[r, idx(k, b2)] -= a0[blk, b2] - e0 * da0[blk, b2]
                    b[r, idx(k, b2)] -= da0[blk, b2]
            continue
        pr = p[k]      # step factor of the row's segment
        for blk in range(nb):
            r = idx(k, blk)
            for kk, sign, w10 in ((k + 1, 1.0, 1.0), (k - 1, 1.0, 1.0),
                                  (k, -2.0, 10.0)):
                if kk == 0 or kk == n - 1:
                    continue
                a[r, idx(kk, blk)] += sign - w10 * pr * two_m * vd[blk][kk]
                b[r, idx(kk, blk)] += w10 * pr * two_m
                wo = w10 * pr * woff[kk]
                if blk + 1 < nb:
                    a[r, idx(kk, blk + 1)] -= wo
                if blk - 1 >= 0:
                    a[r, idx(kk, blk - 1)] -= wo
    return a, b


def dense_eigenvalue(system, e_about, niter=3):
    """Independent oracle: the same discretization assembled as a dense
    generalized eigenproblem A x = -E B x instead of matched ratio matrices.

    The corner row is linearized in E about the current estimate and the
    whole pencil re-assembled a few times.  Each pencil is solved for its
    eigenvalue nearest e_about by shift-invert inverse iteration on a
    sparse LU (SuperLU) of A + e_about B.
    """

    def nearest(a, b):
        # A x = -E B x  <=>  (A + s B)^-1 B x = x / (s - E), s = e_about
        lu = spla.splu(sp.csc_matrix(a + e_about * b))
        x = np.random.default_rng(0).standard_normal(len(a)) + 0j
        nu = 0.0
        for _ in range(50):
            y = lu.solve(b @ x)
            nu, nu_old = np.vdot(x, y), nu
            x = y / np.linalg.norm(y)
            if abs(nu - nu_old) <= 1e-14 * abs(nu):
                break
        return e_about - 1.0 / nu

    e = e_about
    for _ in range(niter):
        e = nearest(*dense_pencil(system, e))
    return e


def dense_determinant(system, e):
    """Independent reference for ``CoupledSystem.determinant``: the pinned
    half systems of T(e) from ``dense_pencil`` solved by dense LU, and
    det(R_m - G_{m+1}^-1) formed from their solutions next to the matching
    point."""
    a, b = dense_pencil(system, e)
    t = a + e * b
    del a, b
    nb, m = len(system.blocks), system.matching_index
    pt = lambda k: slice((k - 1) * nb, k * nb)        # grid point k
    out, inward = slice(0, m * nb), slice(m * nb, None)
    # outward: rows 1..m with psi_{m+1} = I; inward: rows m+1.. with psi_m = I
    psi_out = np.linalg.solve(t[out, out], -t[out, pt(m + 1)])[-nb:]
    psi_in = np.linalg.solve(t[inward, inward], -t[inward, pt(m)])[:nb]
    # the couplings across the matching point, I - p W_{m+1} and I - p W_m
    fm1, fm = t[pt(m), pt(m + 1)], t[pt(m + 1), pt(m)]
    r = fm1 @ np.linalg.inv(fm @ psi_out)
    g_inv = fm1 @ psi_in @ np.linalg.inv(fm)
    return complex(np.linalg.det(r - g_inv))


class TestBlockStructure:
    def test_two_block_layout(self, h2plus, grid):
        system = build_system(h2plus, FieldPoint(600.0, 1e12), grid)
        assert system.blocks == [("g", 0), ("u", -1)]

    def test_four_block_layout(self, h2plus, grid):
        system = build_system(h2plus, FieldPoint(600.0, 1e12), grid, n_blocks=4)
        assert system.blocks == [("u", 1), ("g", 0), ("u", -1), ("g", -2)]

    def test_odd_block_count_rejected(self, h2plus, grid):
        with pytest.raises(ModelError, match="even"):
            build_system(h2plus, FieldPoint(600.0, 1e12), grid, n_blocks=3)


class TestZeroFieldLimit:
    def test_uncoupled_roots_are_bound_levels(self, h2plus, grid, free_levels):
        system = build_system(h2plus, FieldPoint(600.0, 0.0), grid)
        for v in (0, 5, 12, 16):
            res = find_resonance(system, complex(free_levels[v].energy))
            assert res.energy.real == pytest.approx(free_levels[v].energy, abs=1e-11)
            assert res.width < 1e-12

    def test_weak_field_stays_on_level(self, h2plus, grid, free_levels):
        # deep-UV point: the one-photon crossing falls inside every inner
        # turning point, so neither shifts nor widths are resolvable
        system = build_system(h2plus, FieldPoint(70.0, 1e6), grid)
        for v in (0, 8, 16):
            res = find_resonance(system, complex(free_levels[v].energy))
            assert res.energy.real == pytest.approx(free_levels[v].energy, abs=1e-8)
            assert res.width < 1e-10


@pytest.fixture(scope="module")
def res788(h2plus, grid, free_levels):
    field = FieldPoint(TestFrozenResonance.WAVELENGTH, TestFrozenResonance.INTENSITY)
    return ramp_resonance(h2plus, field, free_levels[12].energy, 6, grid)


class TestFrozenResonance:
    WAVELENGTH = 788.2
    INTENSITY = 1e12
    # reference values from this solver on the default grid; stable to
    # 1e-8 under grid doubling and contour-angle changes (checked below)
    E_REF = -0.0119660506
    W_REF = 1.540394e-05

    def test_position_and_width(self, res788):
        assert res788.energy.real == pytest.approx(self.E_REF, abs=1e-8)
        assert res788.width == pytest.approx(self.W_REF, abs=5e-8)

    def test_matching_point_invariance(self, h2plus, grid, res788):
        base = build_system(h2plus, FieldPoint(self.WAVELENGTH, self.INTENSITY), grid)
        for shift in (-10, 10):
            moved = build_system(h2plus, FieldPoint(self.WAVELENGTH, self.INTENSITY),
                                 grid, matching_index=base.matching_index + shift)
            again = find_resonance(moved, res788.energy)
            assert abs(again.energy - res788.energy) < 1e-12

    def test_contour_angle_invariance(self, h2plus, grid, res788):
        for angle in (grid.ecs_angle - 0.05, grid.ecs_angle + 0.05):
            g2 = RadialGrid(grid.r_min, grid.r_max, grid.n_points,
                            grid.ecs_radius, angle)
            system = build_system(h2plus, FieldPoint(self.WAVELENGTH, self.INTENSITY), g2)
            again = find_resonance(system, res788.energy)
            assert abs(again.energy - res788.energy) < 1e-8

    def test_grid_doubling_invariance(self, h2plus, grid, res788):
        system = build_system(h2plus, FieldPoint(self.WAVELENGTH, self.INTENSITY),
                              grid.doubled())
        again = find_resonance(system, res788.energy)
        assert abs(again.energy - res788.energy) < 1e-8


class TestDenseOracle:
    @pytest.mark.parametrize("n_blocks, intensity",
                             [(2, 5e12), (2, 2e13), (4, 5e12), (4, 2e13)],
                             ids=["2-5e12", "2-2e13", "4-5e12", "4-2e13"])
    def test_matches_propagated_root(self, toy, n_blocks, intensity):
        # same discretization, independent linear algebra; the re-assembled
        # corner row converges the linearization in E, so the two roots agree
        # to rounding on every block count
        model, tgrid, levels = toy
        system = build_system(model, FieldPoint(600.0, intensity), tgrid,
                              n_blocks=n_blocks)
        res = find_resonance(system, complex(levels[2].energy))
        ref = dense_eigenvalue(system, res.energy)
        assert abs(ref - res.energy) < 1e-12
        assert res.energy.imag < -1e-5   # genuinely decaying at this field

    @pytest.mark.parametrize("n_blocks", [2, 4])
    def test_matches_on_tabulated_curves(self, toy, toy_tables, n_blocks):
        # the spline and the fitted tail of a table differ at the scaling
        # corner (5e-6 hartree for g here), so the two agree only if both
        # read the one stored value of W there
        _, tgrid, levels = toy
        system = build_system(toy_tables, FieldPoint(600.0, 5e12), tgrid,
                              n_blocks=n_blocks)
        res = find_resonance(system, complex(levels[2].energy))
        assert abs(dense_eigenvalue(system, res.energy) - res.energy) < 1e-12

    @pytest.mark.parametrize("tabulated", [False, True], ids=["analytic", "tables"])
    @pytest.mark.parametrize("n_blocks", [2, 4])
    def test_determinant_matches_dense_halves(self, toy, toy_tables, n_blocks,
                                              tabulated):
        # the banded factor-tail read against dense solves of the same two
        # half systems, on a circle of 8 energies around the v = 2 root
        model, tgrid, levels = toy
        system = build_system(toy_tables if tabulated else model,
                              FieldPoint(600.0, 5e12), tgrid, n_blocks=n_blocks)
        for k in range(8):
            e = levels[2].energy + 3e-3 * cmath.exp(2j * cmath.pi * (k + 0.5) / 8)
            ref = dense_determinant(system, e)
            assert abs(system.determinant(e) - ref) <= 1e-9 * abs(ref)

    def test_determinant_vanishes_at_root(self, toy):
        model, tgrid, levels = toy
        system = build_system(model, FieldPoint(600.0, 5e12), tgrid)
        res = find_resonance(system, complex(levels[2].energy))
        on = abs(system.determinant(res.energy))
        off = abs(system.determinant(res.energy + 1e-4))
        assert on < 1e-6 * off


class TestMultiBlock:
    def test_zero_field_block_bookkeeping(self, toy):
        # uncoupled four-block problem: every g block carries a copy of the
        # bound spectrum shifted by its photon count
        model, tgrid, levels = toy
        fp = FieldPoint(600.0, 0.0)
        system = build_system(model, fp, tgrid, n_blocks=4)
        e1 = complex(levels[1].energy)
        assert find_resonance(system, e1).energy.real == pytest.approx(
            levels[1].energy, abs=1e-9)
        shifted = find_resonance(system, e1 - 2 * fp.omega)
        assert shifted.energy.real == pytest.approx(
            levels[1].energy - 2 * fp.omega, abs=1e-9)

    def test_block_truncation_error_is_first_order(self, toy):
        # the omitted blocks shift the root proportionally to intensity, so
        # the truncation error must scale down linearly with the field
        model, tgrid, levels = toy
        e0 = complex(levels[2].energy)

        def diff(inten):
            fp = FieldPoint(600.0, inten)
            r2 = find_resonance(build_system(model, fp, tgrid), e0)
            r4 = find_resonance(build_system(model, fp, tgrid, n_blocks=4), e0)
            return abs(r4.energy - r2.energy)

        d_lo, d_hi = diff(1e10), diff(1e11)
        assert d_lo < 3e-6
        assert d_hi / d_lo == pytest.approx(10.0, rel=0.2)


class TestBandedDeterminant:
    def test_frozen_four_block_root(self, h2plus, grid, free_levels):
        # reference value from the four-block ratio sweep this solver replaced
        res = ramp_resonance(h2plus, FieldPoint(788.2, 1e12),
                             free_levels[12].energy, 8, grid, n_blocks=4)
        assert abs(res.energy - (-0.012309094124283 - 9.600296206e-6j)) < 1e-10

    def test_extrapolated_ramp_saves_determinants(self, h2plus, grid, free_levels,
                                                  monkeypatch):
        # the same 8 solves, seeded by the previous root instead of the
        # ramp's extrapolation, land on the same root with more determinants
        calls = []
        det = floquet.CoupledSystem.determinant
        monkeypatch.setattr(floquet.CoupledSystem, "determinant",
                            lambda self, e: calls.append(e) or det(self, e))
        field = FieldPoint(788.2, 1e12)
        e = complex(free_levels[12].energy)
        ramped = ramp_resonance(h2plus, field, e, 8, grid, n_blocks=4)
        n_ramp = len(calls)
        for inten in np.linspace(field.intensity / 8, field.intensity, 8):
            system = build_system(h2plus, FieldPoint(field.wavelength, inten), grid,
                                  n_blocks=4)
            e = find_resonance(system, e).energy
        assert abs(ramped.energy - e) < 1e-12
        assert n_ramp < len(calls) - n_ramp


class CountingSystem:
    """A system, or a stub with a determinant, that counts evaluations."""

    def __init__(self, system):
        self.system = system
        self.calls = 0

    def determinant(self, e):
        self.calls += 1
        return self.system.determinant(e)


class NoisyLinear:
    """D(E) = E - root plus deterministic noise of about 1e-10 per evaluation,
    so the root is only defined to the noise floor."""

    root = -0.02 - 0.003j

    def determinant(self, e):
        rng = random.Random(hash(e))
        return e - self.root + 1e-10 * complex(rng.uniform(-1, 1), rng.uniform(-1, 1))


class TestSecantFloor:
    @pytest.mark.parametrize("k", range(8))
    def test_noisy_root_stops_at_the_floor(self, k):
        # steps shrink superlinearly down to the noise and then, on average,
        # stop shrinking; waiting for a step below 1e-12 instead takes 12 to
        # over 50 iterations from these starts, as the steps random-walk down
        counted = CountingSystem(NoisyLinear())
        res = find_resonance(counted, NoisyLinear.root + 1e-3 * cmath.exp(1j * k))
        assert abs(res.energy - NoisyLinear.root) < 1e-9
        assert counted.calls <= 16

    def test_broad_root_at_the_floor(self, h2plus, grid):
        # a broad v = 9 resonance where |D| bottoms out near 1e-8; the
        # reference root took 32 determinants to a step below 1e-12.  The
        # dense oracle lands 9.4e-11 from it; that is not asserted here,
        # because its dense pencil on this grid needs about 1 GB
        counted = CountingSystem(build_system(h2plus, FieldPoint(648.515625, 0.49e13), grid))
        res = find_resonance(counted, -0.029015 - 0.005705j)
        assert abs(res.energy - (-0.029008004976 - 0.005703735972j)) < 1e-9
        assert counted.calls <= 10

    def test_returned_energy_is_never_evaluated(self, h2plus, grid, free_levels,
                                                monkeypatch):
        # both stop rules read the step just computed, so the solve returns
        # the next iterate without paying a determinant for it
        seen = []
        det = floquet.CoupledSystem.determinant

        def spy(self, e):
            seen.append(e)
            return det(self, e)

        monkeypatch.setattr(floquet.CoupledSystem, "determinant", spy)
        system = build_system(h2plus, FieldPoint(788.2, 1e10), grid)
        r1 = find_resonance(system, free_levels[12].energy)
        n1 = len(seen)
        r2 = find_resonance(system, free_levels[13].energy, deflate=(r1.energy,))
        assert r1.energy not in seen[:n1]
        assert r2.energy not in seen[n1:]
        assert abs(r1.energy - r2.energy) > 1e-4


class SpySystem:
    """A system that records the energies of its determinant evaluations."""

    def __init__(self, system):
        self.system = system
        self.seen = []

    def determinant(self, e):
        self.seen.append(e)
        return self.system.determinant(e)


def probe_secant_energies(system, e0):
    """The energies the secant evaluates from the probe start e0, e0 + 1e-9:
    its rules written out once more, step cap and nudge included."""
    seen = []

    def f(e):
        seen.append(e)
        return system.determinant(e)

    e1 = e0 + 1e-9
    f0, f1 = f(e0), f(e1)
    last = float("inf")
    for _ in range(50):
        if f1 == f0 or not (cmath.isfinite(f0) and cmath.isfinite(f1)):
            e1 += 1e-9 * (1 + abs(e1)) * (1 + 1j)
            f1 = f(e1)
            continue
        step = -f1 * (e1 - e0) / (f1 - f0)
        size = abs(step)
        if size > 2e-3:
            step *= 2e-3 / size
        if size < 1e-12 or 0.5 * last <= size < 1e-8:
            return seen
        last = size
        e0, f0, e1 = e1, f1, e1 + step
        f1 = f(e1)
    raise AssertionError("reference secant did not converge")


class TestSlopeSeed:
    """find_resonance(..., slope=dD/dE) replaces the 1e-9 probe by a capped
    Newton step, and reports the secant's last slope."""

    @pytest.fixture(scope="class")
    def systems(self, h2plus, grid):
        return [build_system(h2plus, FieldPoint(788.2, inten), grid)
                for inten in (1e10, 1.2e10)]

    @pytest.fixture(scope="class")
    def first(self, systems, free_levels):
        return find_resonance(systems[0], free_levels[12].energy)

    def test_without_a_slope_the_probe_starts(self, systems, first):
        spy = SpySystem(systems[1])
        find_resonance(spy, first.energy)
        assert spy.seen[:2] == [first.energy, first.energy + 1e-9]
        assert spy.seen == probe_secant_energies(systems[1], first.energy)
        again = SpySystem(systems[1])
        find_resonance(again, first.energy, slope=None)
        assert again.seen == spy.seen

    def test_good_slope_saves_a_determinant(self, systems, first):
        probe, seeded = SpySystem(systems[1]), SpySystem(systems[1])
        ref = find_resonance(probe, first.energy)
        res = find_resonance(seeded, first.energy, slope=first.slope)
        assert abs(res.energy - ref.energy) < 1e-13
        assert len(seeded.seen) < len(probe.seen)
        assert seeded.seen[1] == pytest.approx(
            first.energy - systems[1].determinant(first.energy) / first.slope,
            abs=1e-18)

    @pytest.mark.parametrize("slope", [0, 0j, np.nan, np.inf, complex(np.nan, 1.0)])
    def test_useless_slope_is_ignored(self, systems, first, slope):
        probe, seeded = SpySystem(systems[1]), SpySystem(systems[1])
        ref = find_resonance(probe, first.energy)
        res = find_resonance(seeded, first.energy, slope=slope)
        assert seeded.seen == probe.seen
        assert res.energy == ref.energy

    @pytest.mark.parametrize("factor", [1e-3, 1e-9, -1.0, 1e6])
    def test_wrong_slope_still_converges(self, systems, first, factor):
        ref = find_resonance(systems[1], first.energy)
        seeded = SpySystem(systems[1])
        res = find_resonance(seeded, first.energy, slope=factor * first.slope)
        assert abs(res.energy - ref.energy) < 1e-13
        # the first step is capped like every secant step
        assert abs(seeded.seen[1] - seeded.seen[0]) <= 2e-3 * (1 + 1e-12)

    def test_reported_slope_is_the_solved_functions(self, systems, free_levels):
        system, h = systems[0], 1e-6
        r1 = find_resonance(system, free_levels[12].energy)
        r2 = find_resonance(system, free_levels[13].energy, deflate=(r1.energy,))

        def derivative(f, e):
            return (f(e + h) - f(e - h)) / (2 * h)

        assert r1.slope == pytest.approx(derivative(system.determinant, r1.energy),
                                         rel=1e-4)
        assert r2.slope == pytest.approx(
            derivative(lambda e: system.determinant(e) / (e - r1.energy), r2.energy),
            rel=1e-4)
        # the slope is metadata: a result equals one without it
        assert r1 == Resonance(r1.energy)


class TestClassification:
    def test_characters_across_the_crossing(self, h2plus, grid, free_levels):
        # at 700 nm the crossing sits between the v = 12 and v = 13 outer
        # turning points: the lower level behaves shape-like, the upper one
        # feshbach-like
        expected = {12: "Shape", 13: "Feshbach"}
        field = FieldPoint(700.0, 1e12)
        for v, want in expected.items():
            res = ramp_resonance(h2plus, field, free_levels[v].energy, 8, grid)
            assert classify_resonance(h2plus, field, res.energy, grid) == want

    @pytest.mark.parametrize("moved, want", [
        (1e-6 + 1e-7j, "Feshbach"),         # rises and narrows
        (-1e-6 - 1e-7j, "Shape"),           # falls and broadens
        (1e-6 - 1e-7j, "Unclassified"),     # rises and broadens
        (-1e-6 + 1e-7j, "Unclassified"),    # falls and narrows
        (None, "Unclassified"),             # the probe solve fails
    ])
    def test_rule_on_stepped_energies(self, h2plus, grid, monkeypatch, moved,
                                      want):
        energy = -0.012 - 1e-5j
        field = FieldPoint(700.0, 1e12)

        def stepped(system, e_guess, **kwargs):
            assert e_guess == energy
            assert system.field.intensity == pytest.approx(1.02e12)
            if moved is None:
                raise ConvergenceError("probe step lost")
            e = e_guess + moved
            return Resonance(energy=e)

        monkeypatch.setattr(floquet, "find_resonance", stepped)
        assert classify_resonance(h2plus, field, energy, grid) == want


class ToyStep:
    """A continuation step with no physics: the root at t is t**2, and the
    calls numbered in ``fails`` raise instead."""

    def __init__(self, fails=()):
        self.fails = set(fails)
        self.calls = []

    def __call__(self, points, t):
        self.calls.append(t)
        if len(self.calls) in self.fails:
            raise ConvergenceError("toy step failed")
        return t * t


class TestContinuation:
    def test_failed_step_is_retried_at_the_midpoint(self):
        step = ToyStep(fails={1})
        points = [(0.0, 0.0)]
        assert list(continuation(points, [1.0], step)) == [1.0]
        assert step.calls == [1.0, 0.5, 1.0]
        assert points == [(0.0, 0.0), (0.5, 0.25), (1.0, 1.0)]

    def test_fifteenth_failure_on_one_target_raises(self):
        # 14 failures on the way to each target are allowed
        step = ToyStep(fails=range(1, 15))
        assert list(continuation([(0.0, 0.0)], [1.0], step)) == [1.0]
        step = ToyStep(fails=range(1, 16))
        with pytest.raises(ConvergenceError, match="restart with smaller steps"):
            list(continuation([(0.0, 0.0)], [1.0], step))
        assert len(step.calls) == 15
        assert step.calls[-1] == 2.0 ** -14

    def test_split_budget_is_per_target(self):
        # 14 failures, then 15 accepted steps up to 1.0; then 14 more failures
        step = ToyStep(fails=[*range(1, 15), *range(30, 44)])
        assert list(continuation([(0.0, 0.0)], [1.0, 2.0], step)) == [1.0, 4.0]

    def test_target_at_the_last_t_is_skipped_but_yielded(self):
        step = ToyStep()
        points = [(0.0, 0.0)]
        got = list(continuation(points, [0.0, 1.0, 1.0 + 1e-13], step))
        assert got == [0.0, 1.0, 1.0]
        assert step.calls == [1.0]
        assert len(points) == 2

    def test_early_break_runs_no_further_step(self):
        step = ToyStep()
        for _ in continuation([(0.0, 0.0)], [1.0, 2.0, 3.0], step):
            break
        assert step.calls == [1.0]


class TestTabulatedDipole:
    """A dipole table continues linearly from ``tail-start``, like the
    potentials, so it works on the default contour."""

    def test_table_of_r_over_2_matches_linear_dipole(self, h2plus, grid,
                                                     free_levels, tmp_path):
        data = os.path.join(os.path.dirname(floquet.__file__), "data")
        r = np.loadtxt(os.path.join(data, "h2p_1ssg.tsv"))[:, 0]
        np.savetxt(tmp_path / "mu.tsv", np.column_stack([r, 0.5 * r]))
        desc = tmp_path / "tabmu.model"
        desc.write_text(f"kind = tables\n"
                        f"vg = {os.path.join(data, 'h2p_1ssg.tsv')}\n"
                        f"vu = {os.path.join(data, 'h2p_2psu.tsv')}\n"
                        "dipole = mu.tsv\nmass = 918.0764\ntail-start = 12\n")
        tabulated = load_molecule(str(desc))
        assert tabulated.dipole.continuation_start == 12.0
        field = FieldPoint(788.2, 1e12)
        e0 = free_levels[12].energy
        linear = ramp_resonance(h2plus, field, e0, 8, grid)
        table = ramp_resonance(tabulated, field, e0, 8, grid)
        assert abs(table.energy - linear.energy) < 1e-10

    def test_tail_beyond_the_corner_rejected(self, h2plus):
        r = np.linspace(0.3, 30.0, 200)
        late = dataclasses.replace(
            h2plus, dipole=TabulatedCurve(r, 0.5 * r, kind="dipole",
                                          tail_start=20.0))
        with pytest.raises(GridError, match="tail region"):
            build_system(late, FieldPoint(600.0, 1e12))


class TestTemplate:
    """Systems share one field-free template per (model, grid, block count,
    matching index); a build adds only what the field sets."""

    @pytest.mark.parametrize("case", ["two blocks", "four blocks", "tables"])
    def test_warm_template_gives_the_cold_system(self, h2plus, grid, toy,
                                                 toy_tables, case):
        model, tgrid, nb, e = {
            "two blocks": (h2plus, grid, 2, -0.0105 - 1e-5j),
            "four blocks": (h2plus, grid, 4, -0.0105 - 1e-5j),
            "tables": (toy_tables, toy[1], 2, -0.05 - 1e-4j)}[case]
        field = FieldPoint(600.0, 5e12)
        floquet._template.cache_clear()
        cold = build_system(model, field, tgrid, n_blocks=nb)
        build_system(model, FieldPoint(640.0, 2e12), tgrid, n_blocks=nb)
        warm = build_system(model, field, tgrid, n_blocks=nb)
        assert warm._tpl is cold._tpl
        for de in (0.0, 1e-3, -2e-3 - 1e-4j):
            assert warm.determinant(e + de) == cold.determinant(e + de)

    def test_curves_are_evaluated_once_per_key(self, toy, monkeypatch):
        _, tgrid, _ = toy
        model = MoleculeModel(name="fresh", vg_curve=morse_curve(0.1, 0.7, 2.0),
                              vu_curve=exp_repulsive(2.0, 0.9),
                              dipole=linear_dipole(0.5), reduced_mass=50.0)
        counts = {}
        for name in ("vg_curve", "vu_curve", "dipole"):
            crv = getattr(model, name)
            counts[name] = [0]

            def counted(z, nu=0, inner=crv.at, n=counts[name]):
                n[0] += nu == 0
                return inner(z, nu)

            monkeypatch.setattr(crv, "at", counted)
        # one template per block count, and one contour value evaluation
        # (nu = 0) per curve and template, though four blocks hold each
        # state twice
        for nb in (2, 4):
            for k in range(10):
                build_system(model, FieldPoint(600.0 + k, (1 + k) * 1e12), tgrid,
                             n_blocks=nb)
        assert {name: n[0] for name, n in counts.items()} == {
            "vg_curve": 2, "vu_curve": 2, "dipole": 2}

    def test_equal_fingerprints_do_not_share(self, toy):
        model, tgrid, _ = toy
        deeper = dataclasses.replace(model, vg_curve=morse_curve(0.12, 0.7, 2.0))
        assert deeper.fingerprint == model.fingerprint == ""
        field = FieldPoint(600.0, 5e12)
        a = build_system(model, field, tgrid)
        b = build_system(deeper, field, tgrid)
        assert a._tpl is not b._tpl
        floquet._template.cache_clear()
        cold = build_system(deeper, field, tgrid)
        e = -0.05 - 1e-4j
        assert b.determinant(e) == cold.determinant(e)
        assert a.determinant(e) != b.determinant(e)

    def test_late_tail_rejected_on_every_build(self, h2plus):
        r = np.linspace(0.3, 30.0, 200)
        late = dataclasses.replace(
            h2plus, dipole=TabulatedCurve(r, 0.5 * r, kind="dipole",
                                          tail_start=20.0))
        for inten in (1e12, 2e12, 1e12):
            with pytest.raises(GridError, match="tail region"):
                build_system(late, FieldPoint(600.0, inten))


class TestGuards:
    def test_coarse_grid_rejected(self, h2plus):
        with pytest.raises(GridError, match="too coarse"):
            build_system(h2plus, FieldPoint(600.0, 1e12),
                         RadialGrid(n_points=500))

    def test_corner_before_tail_rejected(self, h2plus):
        with pytest.raises(GridError, match="tail region"):
            build_system(h2plus, FieldPoint(600.0, 1e12),
                         RadialGrid(ecs_radius=5.0))

    def test_matching_index_range(self, h2plus, grid):
        with pytest.raises(GridError, match="matching index"):
            build_system(h2plus, FieldPoint(600.0, 1e12), grid, matching_index=1)

    def test_secant_budget_exhausted(self, h2plus, grid, monkeypatch):
        system = build_system(h2plus, FieldPoint(600.0, 1e12), grid)
        # no root below the well floor, and the step cap keeps the iterate there
        monkeypatch.setattr(floquet, "_MAX_STEP", 1e-6)
        with pytest.raises(ConvergenceError, match="secant"):
            find_resonance(system, complex(-0.3))

    def test_exhausted_budget_reports_last_step_and_residual(self, h2plus, grid,
                                                             monkeypatch):
        system = build_system(h2plus, FieldPoint(600.0, 1e12), grid)
        monkeypatch.setattr(floquet, "_MAX_STEP", 1e-6)
        with pytest.raises(ConvergenceError,
                           match=r"50 secant iterations \(last \|dE\| = .*, \|D\| = "):
            find_resonance(system, complex(-0.3))

    def test_resonance_rejects_wrong_sheet(self):
        with pytest.raises(ValueError, match="wrong sheet"):
            Resonance(energy=-0.1 + 1e-3j)

    def test_width_conversion(self):
        res = Resonance(energy=-0.1 - 0.5e-4j)
        assert res.width == pytest.approx(1e-4)
        assert res.width_invcm == pytest.approx(1e-4 * 219474.63)
