import csv
import math

import numpy as np
import pytest

from floqep import loops
from floqep.errors import ContinuationError, ConvergenceError, ModelError
from floqep.floquet import Resonance
from floqep.loops import (
    LoopSpec,
    Trajectory,
    TrajectorySample,
    follow_resonance,
    loop_point,
    make_loop,
    run_scenario,
    survival,
    trajectory_to_csv,
    winding_number,
)
from floqep.molecule import load_molecule
from floqep.units import FS_PER_AU_TIME, width_to_invcm


@pytest.fixture(scope="module")
def h2plus():
    return load_molecule("h2plus")


def synthetic_trajectory(width_of_phi, t_f=30.0, n_steps=200, lambda0=600.0):
    """Trajectory whose widths follow a closed form; energies carry the
    width in their imaginary part so the quadrature sees consistent data."""
    spec = LoopSpec(lambda0=lambda0, d_lambda=5.0, i_max=0.2, t_f=t_f,
                    n_steps=n_steps)
    samples = []
    for phi in np.linspace(0.0, 2.0 * math.pi, n_steps + 1):
        fp = loop_point(spec, phi)
        w = width_of_phi(phi)
        samples.append(TrajectorySample(
            phi=float(phi), t_fs=t_f * phi / (2.0 * math.pi),
            wavelength=fp.wavelength, intensity=fp.intensity / 1e13,
            energy=complex(-0.01, -0.5 * w), width_invcm=width_to_invcm(w)))
    return Trajectory(spec=spec, v_start=0, v_end=0, samples=samples)


class TestLoopSpec:
    def test_rejects_nonpositive_imax(self):
        with pytest.raises(ModelError, match="i_max"):
            LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.0, t_f=30.0)

    def test_rejects_nonpositive_tf(self):
        with pytest.raises(ModelError, match="t_f"):
            LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.2, t_f=-1.0)

    def test_rejects_coarse_sampling(self):
        with pytest.raises(ModelError, match="n_steps"):
            LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.2, t_f=30.0, n_steps=50)


class TestLoopGeometry:
    SPEC = LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.2, t_f=30.0)

    def test_start_is_field_free(self):
        fp = loop_point(self.SPEC, 0.0)
        assert fp.intensity == 0.0
        assert fp.wavelength == 600.0

    def test_intensity_peaks_mid_loop(self):
        fp = loop_point(self.SPEC, math.pi)
        assert fp.intensity == pytest.approx(0.2e13)
        assert fp.wavelength == pytest.approx(600.0, abs=1e-9)

    def test_wavelength_excursion_at_quarter_turn(self):
        fp = loop_point(self.SPEC, 0.5 * math.pi)
        assert fp.wavelength == pytest.approx(605.0)
        assert fp.intensity == pytest.approx(0.2e13 * math.sin(0.25 * math.pi))

    def test_sample_count_and_closure(self):
        pts = make_loop(self.SPEC)
        assert len(pts) == self.SPEC.n_steps + 1
        assert pts[0].intensity == 0.0
        assert pts[-1].intensity < 1e-6 * self.SPEC.i_max * 1e13
        assert pts[-1].wavelength == pytest.approx(600.0, abs=1e-9)


class TestWinding:
    def test_enclosed_point(self):
        spec = LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.2, t_f=30.0)
        assert winding_number(spec, 600.0, 0.1) == 1

    def test_handedness_flips_with_excursion_sign(self):
        spec = LoopSpec(lambda0=600.0, d_lambda=-5.0, i_max=0.2, t_f=30.0)
        assert winding_number(spec, 600.0, 0.1) == -1

    def test_outside_points(self):
        spec = LoopSpec(lambda0=600.0, d_lambda=5.0, i_max=0.2, t_f=30.0)
        assert winding_number(spec, 620.0, 0.1) == 0
        assert winding_number(spec, 600.0, 0.3) == 0


class TestSurvivalQuadrature:
    def test_constant_width_is_exact(self):
        w0 = 2.0e-4
        traj = synthetic_trajectory(lambda phi: w0, t_f=30.0)
        series = survival(traj)
        t_au = 30.0 / FS_PER_AU_TIME
        assert series[-1][1] == pytest.approx(math.exp(-w0 * t_au), rel=1e-12)
        assert series[0][1] == 1.0

    def test_step_doubling_converges(self):
        prof = lambda phi: 1.5e-4 * math.sin(0.5 * phi) ** 2
        p200 = synthetic_trajectory(prof, n_steps=200).survival_at_end()
        p400 = synthetic_trajectory(prof, n_steps=400).survival_at_end()
        assert abs(p400 - p200) / p400 < 1e-4
        # closed form for this profile
        t_au = 30.0 / FS_PER_AU_TIME
        exact = math.exp(-1.5e-4 * 0.5 * t_au)
        assert p400 == pytest.approx(exact, rel=1e-5)

    def test_log_survival_linear_in_pulse_length(self):
        prof = lambda phi: 1.5e-4 * math.sin(0.5 * phi) ** 2
        p1 = synthetic_trajectory(prof, t_f=30.0).survival_at_end()
        p2 = synthetic_trajectory(prof, t_f=60.0).survival_at_end()
        p3 = synthetic_trajectory(prof, t_f=90.0).survival_at_end()
        assert p2 == pytest.approx(p1 ** 2, rel=1e-12)
        assert p3 == pytest.approx(p1 ** 3, rel=1e-12)

    def test_negative_width_rejected(self):
        traj = synthetic_trajectory(lambda phi: -1e-5)
        with pytest.raises(ModelError, match="negative width"):
            survival(traj)

    def test_sample_width_property(self):
        s = TrajectorySample(phi=0.0, t_fs=0.0, wavelength=600.0, intensity=0.1,
                             energy=-0.01 - 2.5e-5j, width_invcm=0.0)
        assert s.width == pytest.approx(5e-5)


# far below every coalescence intensity: the loop encloses no EP and must
# bring the level back to itself
WEAK_SPEC = LoopSpec(lambda0=500.0, d_lambda=2.0, i_max=0.02, t_f=30.0,
                     n_steps=100)


@pytest.fixture(scope="module")
def traj(h2plus):
    return follow_resonance(h2plus, WEAK_SPEC, 2)


class TestFollowWeakLoop:
    SPEC = WEAK_SPEC

    def test_identity_transfer(self, traj):
        assert traj.v_start == 2
        assert traj.v_end == 2
        assert not traj.exchanged

    def test_samples_and_series(self, traj):
        assert len(traj.samples) >= self.SPEC.n_steps + 1
        assert traj.samples[0].t_fs == 0.0
        assert traj.samples[-1].t_fs == pytest.approx(30.0)
        assert traj.p_nd[-1][1] > 0.99
        assert len(traj.characters) == 3

    def test_reverse_traversal_identity(self, h2plus):
        back = follow_resonance(h2plus, self.SPEC, 2, reverse=True)
        assert back.v_end == 2
        assert back.samples[0].phi == pytest.approx(2.0 * math.pi)
        assert back.samples[-1].phi == 0.0
        assert back.samples[-1].t_fs == pytest.approx(30.0)

    def test_short_pulse_warns(self, h2plus):
        quick = LoopSpec(lambda0=500.0, d_lambda=2.0, i_max=0.02, t_f=10.0,
                         n_steps=100)
        with pytest.warns(UserWarning, match="adiabatic"):
            follow_resonance(h2plus, quick, 2)

    def test_vstart_out_of_range(self, h2plus):
        with pytest.raises(ModelError, match="v_start"):
            follow_resonance(h2plus, self.SPEC, 99)


def fail_solves(monkeypatch, fails):
    """Make loops.find_resonance raise on the calls k (1-based) where
    fails(k) is true."""
    inner = loops.find_resonance
    calls = [0]

    def patched(*args, **kwargs):
        calls[0] += 1
        if fails(calls[0]):
            raise ConvergenceError("injected solve failure")
        return inner(*args, **kwargs)

    monkeypatch.setattr(loops, "find_resonance", patched)


class TestFollowSplits:
    def test_one_failed_step_adds_one_midpoint(self, h2plus, traj, monkeypatch):
        # solve 40 is the step to the 40th angle: it is retried halfway
        # back to the 39th and then reached from there
        fail_solves(monkeypatch, lambda k: k == 40)
        split = follow_resonance(h2plus, WEAK_SPEC, 2)
        assert len(split.samples) == len(traj.samples) + 1
        assert split.v_end == traj.v_end
        phis = [s.phi for s in split.samples]
        assert phis[:40] == [s.phi for s in traj.samples[:40]]
        assert phis[40] == pytest.approx(0.5 * (phis[39] + phis[41]))
        assert phis[41:] == [s.phi for s in traj.samples[40:]]

    def test_branch_jump_is_rejected_and_split(self, h2plus, traj,
                                               monkeypatch):
        # solve 40 lands 1e-3 hartree off its branch: the miss-ratio test
        # rejects it, and the midpoint step goes on from the 39th angle
        inner = loops.find_resonance
        calls = [0]

        def jump_once(*args, **kwargs):
            calls[0] += 1
            r = inner(*args, **kwargs)
            if calls[0] == 40:
                return Resonance(energy=r.energy + 1e-3, width=r.width)
            return r

        monkeypatch.setattr(loops, "find_resonance", jump_once)
        split = follow_resonance(h2plus, WEAK_SPEC, 2)
        assert len(split.samples) == len(traj.samples) + 1 == 102
        assert split.v_end == traj.v_end == 2
        phis = [s.phi for s in split.samples]
        assert phis[40] == pytest.approx(0.5 * (phis[39] + phis[41]))
        for s, ref in zip(split.samples[41:], traj.samples[40:]):
            assert s.phi == ref.phi
            assert abs(s.energy - ref.energy) < 1e-15

    def test_persistent_failure_keeps_the_partial_trajectory(self, h2plus,
                                                             monkeypatch):
        k = 30
        fail_solves(monkeypatch, lambda n: n > k)
        with pytest.raises(ContinuationError,
                           match="restart with smaller steps") as info:
            follow_resonance(h2plus, WEAK_SPEC, 2)
        partial = info.value.partial
        assert len(partial.samples) == k + 1
        assert partial.v_end is None


class TestScenario:
    SPEC = LoopSpec(lambda0=500.0, d_lambda=2.0, i_max=0.02, t_f=30.0,
                    n_steps=100)

    def test_empty_chain_rejected(self, h2plus):
        with pytest.raises(ModelError, match="at least one"):
            run_scenario(h2plus, [])

    def test_broken_chain_rejected(self, h2plus):
        loops = [(self.SPEC, (12, 13)), (self.SPEC, (14, 15))]
        with pytest.raises(ModelError, match="chain broken"):
            run_scenario(h2plus, loops)

    def test_unexpected_transfer_aborts(self, h2plus):
        with pytest.raises(ConvergenceError, match="expected"):
            run_scenario(h2plus, [(self.SPEC, (2, 3))])

    def test_single_loop_report(self, h2plus):
        report = run_scenario(h2plus, [(self.SPEC, (2, 2))])
        assert report.transfers == [(2, 2)]
        assert report.cumulative == pytest.approx(report.survivals[0])
        assert report.trajectories[0].v_end == 2


class TestTrajectoryCsv:
    def test_round_trip(self, tmp_path):
        prof = lambda phi: 1.5e-4 * math.sin(0.5 * phi) ** 2
        traj = synthetic_trajectory(prof, n_steps=200)
        path = tmp_path / "traj.csv"
        trajectory_to_csv(traj, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["phi", "t_fs", "lambda_nm", "intensity_1e13",
                           "ReE_hartree", "Gamma_cm1", "P_ND"]
        assert len(rows) == len(traj.samples) + 1
        for row, s, (_, p) in zip(rows[1:], traj.samples, traj.p_nd):
            assert float(row[0]) == float(f"{s.phi:.12g}")
            assert float(row[4]) == float(f"{s.energy.real:.12g}")
            assert float(row[6]) == float(f"{p:.12g}")
