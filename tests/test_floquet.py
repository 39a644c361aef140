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


def dense_eigenvalue(system, e_about, niter=3):
    """Independent oracle: the same discretization assembled as a dense
    generalized eigenproblem A x = -E B x instead of matched ratio matrices.

    Interior rows are the three-point recursion with the step factor of the
    row's own contour segment; the corner row is linearized in E about the
    current estimate and the whole pencil re-assembled a few times.  Each
    pencil is solved for its eigenvalue nearest e_about by shift-invert
    inverse iteration on a sparse LU (SuperLU) of A + e_about B.
    """
    grid = system.grid
    n, c, nb = grid.n_points, grid.corner_index, len(system.blocks)
    p = system._p
    two_m = 2.0 * system.model.reduced_mass
    vd, woff = system._vdiag, system._woff

    def assemble(e0):
        big = (n - 2) * nb
        a = np.zeros((big, big), complex)
        b = np.zeros((big, big), complex)
        idx = lambda k, blk: (k - 1) * nb + blk
        ap, am, a0 = system._corner_matrices(e0)
        de = 1e-6
        ap2, am2, a02 = system._corner_matrices(e0 + de)
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
        e = nearest(*assemble(e))
    return e


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
    def test_matches_on_tabulated_curves(self, toy, n_blocks):
        # the spline and the fitted tail of a table differ at the scaling
        # corner (5e-6 hartree for g here), so the two agree only if both
        # read the one stored value of W there
        model, tgrid, levels = toy
        r = np.linspace(0.3, 20.0, 400)
        tables = dataclasses.replace(
            model, vg_curve=TabulatedCurve(r, model.vg_curve(r), tail_start=6.0),
            vu_curve=TabulatedCurve(r, model.vu_curve(r), tail_start=6.0))
        system = build_system(tables, FieldPoint(600.0, 5e12), tgrid,
                              n_blocks=n_blocks)
        res = find_resonance(system, complex(levels[2].energy))
        assert abs(dense_eigenvalue(system, res.energy) - res.energy) < 1e-12

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
        data = os.path.dirname(os.path.abspath(h2plus.origin))
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

    def test_trust_radius_aborts_a_wandering_secant(self, h2plus, grid, free_levels):
        # 1e-3 hartree off the v = 12 root, the first step already leaves
        # a 1e-5 disc around the guess
        counted = CountingSystem(build_system(h2plus, FieldPoint(788.2, 1e12), grid))
        guess = complex(free_levels[12].energy) + 1e-3
        with pytest.raises(ConvergenceError,
                           match=r"trust radius: \|E - guess\| = .* > 1\.000e-05"):
            find_resonance(counted, guess, radius=1e-5)
        assert counted.calls == 2

    def test_resonance_rejects_negative_width(self):
        with pytest.raises(ValueError, match="non-negative"):
            Resonance(energy=-0.1 - 0.001j, width=-1e-3)

    def test_resonance_rejects_wrong_sheet(self):
        with pytest.raises(ValueError, match="wrong sheet"):
            Resonance(energy=-0.1 + 1e-3j, width=2e-3)

    def test_width_conversion(self):
        res = Resonance(energy=-0.1 - 0.5e-4j, width=1e-4)
        assert res.width_invcm == pytest.approx(1e-4 * 219474.63)
