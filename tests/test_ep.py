import cmath
import dataclasses
import json

import numpy as np
import pytest

from floqep import ep, floquet
from floqep.ep import (
    EPCandidate,
    _quadratic_gap,
    _taylor,
    EPRecord,
    approximate_eps,
    cluster_bands,
    cplus_minimum_wavelength,
    find_double_root,
    records_from_csv,
    records_to_csv,
    refine_ep,
)
from floqep.errors import ConvergenceError, ModelError
from floqep.floquet import CoupledSystem, build_system, find_resonance
from floqep.molecule import FieldPoint, load_molecule
from floqep.units import INTENSITY_UNIT


@pytest.fixture(scope="module")
def h2plus():
    return load_molecule("h2plus")


@pytest.fixture(scope="module")
def ep1213(h2plus):
    # crossing seed frozen from the coarse scan; the double-root Newton
    # converges from the walked pair in a handful of steps
    cand = EPCandidate(v=12, v_partner=13, v_plus=2, lambda_guess=635.95)
    return refine_ep(h2plus, cand)


# closed-form determinant D = (E - E0)^2 - s^2 with a double root at
# (600 nm, 0.2): s^2 is linear in both parameters, the root gap 2|s| a pure
# square root
TOY_E0 = -0.012 - 0.0015j
TOY_A = 2.5e-4
TOY_B = 4.0e-4


def toy_s2(lam, inten):
    return TOY_A * (lam - 600.0) + 1j * TOY_B * (inten - 0.2)


def toy_pair(lam, inten):
    s = cmath.sqrt(toy_s2(lam, inten))
    return TOY_E0 + s, TOY_E0 - s


def toy_det(lam, inten, centre=TOY_E0):
    s2 = toy_s2(lam, inten)
    return lambda e: (e - centre) ** 2 - s2


def seed(lam, inten):
    """find_double_root's seed arguments from the toy pair at (lam, inten)."""
    e1, e2 = toy_pair(lam, inten)
    return 0.5 * (e1 + e2), lam, inten, 0.5 * abs(e1 - e2)


class TestCandidateScan:
    def test_minimum_wavelength(self, h2plus):
        assert cplus_minimum_wavelength(h2plus) == pytest.approx(104.45, abs=0.5)

    def test_window_below_threshold_is_empty(self, h2plus):
        assert approximate_eps(h2plus, range(12, 14), range(4), (60.0, 100.0)) == []

    def test_frozen_seeds(self, h2plus):
        cands = approximate_eps(h2plus, (12, 13), (2, 3), (560.0, 660.0))
        got = {(c.v, c.v_partner, c.v_plus): c.lambda_guess for c in cands}
        assert set(got) == {(12, 13, 2), (13, 14, 3)}
        assert got[(12, 13, 2)] == pytest.approx(635.95, abs=0.5)
        assert got[(13, 14, 3)] == pytest.approx(602.58, abs=0.5)

    def test_window_edge_past_the_last_table_step(self, h2plus, monkeypatch):
        # the 4 nm table from 400.2 nm reaches 512.2 nm; clipped to the
        # 508.2 nm edge, a repeated wavelength made the crossing fit singular
        calls = count_calls(monkeypatch, ep, "adiabatic_levels")
        cands = approximate_eps(h2plus, range(17), range(9), (400.2, 508.2))
        assert calls[0] == 28          # 400.2, 404.2, ..., 508.2 nm, each once
        got = {(c.v, c.v_plus): c.lambda_guess for c in cands}
        assert len(got) == 9
        assert got[(11, 2)] == pytest.approx(506.25, abs=0.01)


def count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call is counted; returns the counter."""
    calls = [0]
    inner = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return inner(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestWorkBudget:
    """Counts that do not depend on the machine: a change that makes the
    scan or the walk do more work fails here, not only in a timing."""

    def test_scan_solves_each_table_wavelength_once(self, h2plus, monkeypatch):
        calls = count_calls(monkeypatch, ep, "adiabatic_levels")
        cands = approximate_eps(h2plus, range(17), range(6), (596.0, 655.0))
        assert calls[0] == 16          # 596, 600, ..., 652, 655 nm
        got = {(c.v, c.v_plus): c.lambda_guess for c in cands}
        # reference seeds: the crossings bisected on fresh level solves to 0.05 nm
        want = {(9, 0): 648.5156, (12, 2): 635.9531, (13, 3): 602.5781}
        assert set(got) == set(want)
        for key, lam in want.items():
            assert got[key] == pytest.approx(lam, abs=0.01)

    def test_failing_seed_walk_gives_up_cheaply(self, h2plus, monkeypatch):
        # the walk's extrapolated predictions keep each secant near its
        # root, so this failing candidate costs about 390 determinants
        calls = count_calls(monkeypatch, CoupledSystem, "determinant")
        cand = EPCandidate(v=9, v_partner=10, v_plus=0, lambda_guess=648.515625)
        with pytest.raises(ConvergenceError, match="Newton iterate left the seed pair"):
            refine_ep(h2plus, cand)
        assert calls[0] <= 500


class TestPairWalk:
    """The seed walk halves a step whose roots miss their prediction too far
    and gives up once a requested intensity has used its split budget."""

    LAM = 635.9598      # the (12,13) seed of the 596-655 nm window

    def walk_to(self, h2plus, intensities):
        *_, last = ep._walk_pair(h2plus, (12, 13), self.LAM, intensities,
                                 None, 2)
        return last

    def test_one_step_splits_onto_the_stepped_walk(self, h2plus, monkeypatch):
        stepped = self.walk_to(h2plus, [0.02 * k for k in range(1, 11)])
        systems = count_calls(monkeypatch, floquet, "build_system")
        direct = self.walk_to(h2plus, [0.2])
        assert systems[0] > 1
        assert max(abs(a - b) for a, b in zip(direct, stepped)) < 1e-10

    def test_a_well_predicted_fast_move_is_not_split(self, h2plus, monkeypatch):
        # near the gap minimum the pair moves by more than 5e-4 hartree per
        # step, but along its prediction: 12 steps build 12 systems
        systems = count_calls(monkeypatch, floquet, "build_system")
        coarse = list(ep._walk_pair(h2plus, (12, 13), self.LAM,
                                    [0.02 * k for k in range(1, 13)], None, 2))
        assert systems[0] == 12
        fine = list(ep._walk_pair(h2plus, (12, 13), self.LAM,
                                  [0.005 * k for k in range(1, 49)], None, 2))
        assert max(np.abs(a - b).max() for a, b in zip(coarse, fine[3::4])) < 1e-11

    def test_split_budget_exhausted_raises(self, h2plus, monkeypatch):
        monkeypatch.setattr(floquet, "_MAX_SPLITS", 1)
        with pytest.raises(ConvergenceError, match="restart with smaller steps"):
            self.walk_to(h2plus, [0.2])


class TestCoalescenceSearch:
    def test_toy_ep_to_machine_precision(self):
        lam, inten, e, gap = find_double_root(toy_det, *seed(601.5, 0.26))
        assert lam == pytest.approx(600.0, abs=1e-9)
        assert inten == pytest.approx(0.2, abs=1e-9)
        assert gap < 1e-8
        assert e == pytest.approx(TOY_E0, abs=1e-8)

    def test_fd_step_independence(self, monkeypatch):
        monkeypatch.setattr(ep, "_D_LAMBDA", 0.02)
        monkeypatch.setattr(ep, "_D_INTENSITY", 0.002)
        coarse = find_double_root(toy_det, *seed(601.5, 0.26))
        monkeypatch.setattr(ep, "_D_LAMBDA", 0.002)
        monkeypatch.setattr(ep, "_D_INTENSITY", 0.0002)
        fine = find_double_root(toy_det, *seed(601.5, 0.26))
        assert coarse[0] == pytest.approx(fine[0], abs=1e-9)
        assert coarse[1] == pytest.approx(fine[1], abs=1e-9)

    def test_gap_scales_as_square_root(self):
        def gap(dlam):
            e1, e2 = toy_pair(600.0 + dlam, 0.2)
            return abs(e1 - e2)

        assert gap(0.04) / gap(0.01) == pytest.approx(2.0, rel=1e-9)
        # the squared gap is linear, so quadrupling the offset quadruples it
        assert gap(0.04) ** 2 / gap(0.01) ** 2 == pytest.approx(4.0, rel=1e-9)

    def test_quadratic_gap_is_root_gap(self):
        # gap_residual: the root gap of the local quadratic, wherever the
        # three-point stencil sits
        for e in (TOY_E0, TOY_E0 + 3e-4 - 1e-4j):
            e1, e2 = toy_pair(600.5, 0.23)
            got = _quadratic_gap(*_taylor(toy_det(600.5, 0.23), e, 1e-5))
            assert got == pytest.approx(abs(e1 - e2), rel=1e-6)

    def test_unreachable_gap_raises(self):
        def stuck_det(lam, inten):
            s = TOY_A * (lam - 600.0) ** 2 + 1e-4 + 1j * TOY_B * (inten - 0.2)
            return lambda e: (e - TOY_E0) ** 2 - 0.25 * s

        with pytest.raises(ConvergenceError, match="stalled"):
            find_double_root(stuck_det, TOY_E0, 600.0, 0.2, 5e-3)

    def test_simple_roots_only_raise(self):
        # D'' vanishes identically, so D = D' = 0 has no solution
        def simple_det(lam, inten):
            s2 = toy_s2(lam, inten)
            return lambda e: e - TOY_E0 - s2

        with pytest.raises(ConvergenceError, match="singular"):
            find_double_root(simple_det, *seed(601.5, 0.26))

    @pytest.mark.parametrize("offset, inside", [(0.01, True), (0.03, False)])
    def test_double_root_must_lie_between_the_seed_pair(self, offset, inside):
        # the seed pair at (601.5, 0.26) has half-gap 0.0194 about TOY_E0
        def det_at(lam, inten):
            return toy_det(lam, inten, centre=TOY_E0 + offset)

        if inside:
            lam, inten, e, gap = find_double_root(det_at, *seed(601.5, 0.26))
            assert (lam, inten) == (pytest.approx(600.0, abs=1e-9),
                                    pytest.approx(0.2, abs=1e-9))
            assert e == pytest.approx(TOY_E0 + offset, abs=1e-8)
        else:
            with pytest.raises(ConvergenceError, match="left the seed pair"):
                find_double_root(det_at, *seed(601.5, 0.26))

    def test_refine_seed_on_closed_form(self):
        # the seed refine_ep used for closed-form models: the candidate
        # wavelength and half the intensity cap
        lam, inten, e, gap = find_double_root(toy_det, *seed(601.0, 0.25))
        assert lam == pytest.approx(600.0, rel=1e-6)
        assert inten == pytest.approx(0.2, rel=1e-6)
        assert e == pytest.approx(TOY_E0, abs=1e-8)
        assert gap < 1e-8

    def test_pair_outside_bound_spectrum(self, h2plus):
        cand = EPCandidate(v=25, v_partner=26, v_plus=2, lambda_guess=600.0)
        with pytest.raises(ModelError, match="bound levels"):
            refine_ep(h2plus, cand)

    @pytest.mark.parametrize("v, w", [(-1, 0), (12, 12), (3, -2), (18, 19)])
    def test_pair_must_be_two_distinct_bound_levels(self, h2plus, v, w):
        cand = EPCandidate(v=v, v_partner=w, v_plus=1, lambda_guess=600.0)
        with pytest.raises(ModelError, match=rf"pair \({v}, {w}\)"):
            refine_ep(h2plus, cand)


class TestFailureClass:
    """A failed refinement's reason says where the walk's gap bottomed out;
    the Newton runs from that minimum whatever its class."""

    NEWTON = "Newton iterate left the seed pair at step 1 (half-gap 5.000e-04)"

    def refine_on_gaps(self, monkeypatch, gaps):
        # the walk yields pairs with these gaps; the Newton always fails
        newton = []

        def walk(model, pair, lam, intensities, grid, n_blocks):
            return iter([np.array([0.0, g]) for g in gaps])

        def fail(*args):
            newton.append(args)
            raise ConvergenceError(self.NEWTON)

        monkeypatch.setattr(ep, "_walk_pair", walk)
        monkeypatch.setattr(ep, "find_double_root", fail)
        cand = EPCandidate(v=12, v_partner=13, v_plus=2, lambda_guess=600.0)
        with pytest.raises(ConvergenceError) as info:
            refine_ep(None, cand, i_cap=0.6)
        assert len(newton) == 1
        return str(info.value), newton[0]

    def test_minimum_at_the_first_sample(self, monkeypatch):
        reason, args = self.refine_on_gaps(monkeypatch, [1e-3, 2e-3, 4e-3])
        assert reason == f"{self.NEWTON}; no approach up to i-cap (gap 1.000e-03)"
        assert args[3] == pytest.approx(0.02)           # seeded at sample 1

    def test_minimum_at_the_cap(self, monkeypatch):
        gaps = [1e-3 * (31 - k) / 30 for k in range(1, 31)]
        reason, args = self.refine_on_gaps(monkeypatch, gaps)
        assert reason == f"{self.NEWTON}; gap still closing at i-cap (gap 3.333e-05)"
        assert args[3] == pytest.approx(0.6)

    def test_interior_minimum(self, monkeypatch):
        gaps = [5e-3, 4e-3, 3e-3, 2e-3, 1e-3, 2e-3, 4e-3]
        reason, args = self.refine_on_gaps(monkeypatch, gaps)
        assert reason == f"{self.NEWTON}; interior minimum at sample 5 (gap 1.000e-03)"
        assert args[3] == pytest.approx(0.1)

    def test_failing_benchmark_candidate_is_interior(self, h2plus):
        cand = EPCandidate(v=9, v_partner=10, v_plus=0, lambda_guess=648.515625)
        with pytest.raises(ConvergenceError,
                           match=r"^Newton iterate left the seed pair .*; "
                                 r"interior minimum at sample \d+ \(gap \d\.\d{3}e-\d\d\)$"):
            refine_ep(h2plus, cand)


class TestRefinedRecord:
    def test_frozen_coordinates(self, ep1213):
        assert ep1213.pair == (12, 13)
        assert ep1213.v_plus == 2
        assert ep1213.lambda_ep == pytest.approx(634.550, abs=0.05)
        assert ep1213.intensity_ep == pytest.approx(0.2052, abs=0.002)
        assert ep1213.gap_residual < 1e-8

    def test_frozen_common_energy(self, ep1213):
        assert ep1213.e_ep.real == pytest.approx(-0.0094954, abs=2e-5)
        assert ep1213.e_ep.imag == pytest.approx(-0.0015346, abs=2e-5)

    def test_two_roots_meet_at_e_ep(self, h2plus, ep1213):
        # independent of the quadratic gap estimate: secant solves started
        # on either side of e_ep, the second deflated by the first, both
        # land on the double root
        system = build_system(h2plus, FieldPoint(
            ep1213.lambda_ep, ep1213.intensity_ep * INTENSITY_UNIT))
        r1 = find_resonance(system, ep1213.e_ep + 1e-5)
        r2 = find_resonance(system, ep1213.e_ep - 1e-5, deflate=(r1.energy,))
        assert abs(r1.energy - ep1213.e_ep) < 1e-7
        assert abs(r2.energy - ep1213.e_ep) < 1e-7

    def test_states_its_block_count(self, ep1213):
        assert ep1213.n_blocks == 2
        assert ep1213.to_dict()["n_blocks"] == 2

    def test_record_rejects_nonpositive_intensity(self):
        with pytest.raises(ModelError, match="positive"):
            EPRecord(pair=(1, 2), lambda_ep=600.0, intensity_ep=0.0,
                     gap_residual=0.0, e_ep=0j)


class TestPhotonBlocks:
    def test_two_block_bias_dwarfs_the_four_block_residual(self, h2plus):
        # the README's "Photon blocks" figures: from 2 to 4 blocks the (12,13)
        # EP moves by 1.84 nm, from 4 to 6 by only 0.048 nm
        cand = EPCandidate(v=12, v_partner=13, v_plus=2, lambda_guess=635.96)
        recs = [refine_ep(h2plus, cand, n_blocks=nb) for nb in (2, 4, 6)]
        assert all(r.gap_residual < 1e-8 for r in recs)
        lam = [r.lambda_ep for r in recs]
        assert lam[1] - lam[0] == pytest.approx(1.843, abs=0.005)
        assert lam[2] - lam[1] == pytest.approx(0.048, abs=0.002)


class TestSerialization:
    RECORDS = [
        EPRecord(pair=(12, 13), lambda_ep=634.550197362718,
                 intensity_ep=0.205204918377, gap_residual=3.1e-9,
                 e_ep=-0.00949537 - 0.00153464j, v_plus=2),
        EPRecord(pair=(13, 14), lambda_ep=604.603,
                 intensity_ep=0.22495, gap_residual=8.8e-10,
                 e_ep=-0.0101 - 0.0017j, v_plus=3),
    ]

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "records.csv"
        records_to_csv(self.RECORDS, path)
        back = records_from_csv(path)
        assert len(back) == 2
        for a, b in zip(self.RECORDS, back):
            assert b.pair == a.pair
            # full printed precision survives the round trip
            assert b.lambda_ep == float(f"{a.lambda_ep:.12g}")
            assert b.intensity_ep == float(f"{a.intensity_ep:.12g}")
            assert b.gap_residual == float(f"{a.gap_residual:.12g}")
            assert b.e_ep == complex(float(f"{a.e_ep.real:.12g}"),
                                     float(f"{a.e_ep.imag:.12g}"))
            assert b.v_plus == a.v_plus

    def test_json_fields(self):
        blob = json.loads(json.dumps([r.to_dict() for r in self.RECORDS]))
        assert blob[0]["pair"] == [12, 13]
        assert blob[0]["e_ep"] == [self.RECORDS[0].e_ep.real,
                                   self.RECORDS[0].e_ep.imag]
        assert blob[1]["v_plus"] == 3
        assert [EPRecord.from_dict(d) for d in blob] == self.RECORDS

    def test_n_blocks_round_trip(self, tmp_path):
        records = [dataclasses.replace(r, n_blocks=nb)
                   for r, nb in zip(self.RECORDS, (4, None))]
        path = tmp_path / "records.csv"
        records_to_csv(records, path)
        assert [r.n_blocks for r in records_from_csv(path)] == [4, None]
        blob = json.loads(json.dumps([r.to_dict() for r in records]))
        assert [EPRecord.from_dict(d).n_blocks for d in blob] == [4, None]

    def test_files_and_caches_without_n_blocks_load(self, tmp_path):
        # the CSV layout and record dict written before n_blocks was recorded
        path = tmp_path / "old.csv"
        path.write_text("pair,lambda_nm,intensity_1e13Wcm2,gap_residual,"
                        "e_ep_re,e_ep_im,v_plus\n"
                        "12-13,634.55,0.2052,3.1e-09,-0.0095,-0.0015,2\n")
        (rec,) = records_from_csv(path)
        assert (rec.pair, rec.v_plus, rec.n_blocks) == ((12, 13), 2, None)
        old = self.RECORDS[0].to_dict()
        del old["n_blocks"]
        assert EPRecord.from_dict(old) == self.RECORDS[0]

    def test_cluster_bands(self):
        recs = [EPRecord(pair=(v, v + 1), lambda_ep=lam, intensity_ep=0.2,
                         gap_residual=0.0, e_ep=0j)
                for v, lam in ((12, 700.0), (13, 660.0), (14, 590.0))]
        bands = cluster_bands(recs)
        assert [[r.lambda_ep for r in band] for band in bands] == [
            [700.0, 660.0], [590.0]]
