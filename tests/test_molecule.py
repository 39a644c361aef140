import math
import os
import pickle

import numpy as np
import pytest
from numpy.testing import assert_allclose

import floqep.molecule
from floqep.bound_states import field_free_levels
from floqep.errors import GridError, ModelError
from floqep.floquet import build_system
from floqep.molecule import (
    FieldPoint,
    MoleculeModel,
    RadialGrid,
    TabulatedCurve,
    adiabatic_potentials,
    exp_repulsive,
    linear_dipole,
    load_molecule,
    morse_curve,
)

DATA = os.path.join(os.path.dirname(floqep.molecule.__file__), "data")


@pytest.fixture(scope="module")
def h2plus():
    return load_molecule("h2plus")


class TestCurves:
    def test_morse_minimum(self):
        crv = morse_curve(0.1, 0.7, 2.0)
        assert crv(2.0) == pytest.approx(-0.1)
        assert crv.at(2.0, 1) == pytest.approx(0.0, abs=1e-14)
        assert crv.at(2.0, 2) == pytest.approx(2 * 0.1 * 0.7 ** 2)
        assert crv.asymptote == 0.0

    def test_morse_rejects_bad_params(self):
        with pytest.raises(ModelError, match="positive"):
            morse_curve(-0.1, 0.7, 2.0)

    def test_exp_repulsive_decays(self):
        crv = exp_repulsive(2.0, 0.9)
        r = np.linspace(0.5, 10.0, 50)
        v = crv(r)
        assert np.all(np.diff(v) < 0)
        assert v[-1] > 0

    def test_linear_dipole(self):
        mu = linear_dipole(0.5)
        assert mu(3.0) == pytest.approx(1.5)
        assert mu.at(3.0, 1) == pytest.approx(0.5)

    def test_analytic_complex_derivatives(self):
        crv = morse_curve(0.1, 0.7, 2.0)
        z = 3.0 + 0.2j
        eps = 1e-6
        fd = (crv.at(z + eps) - crv.at(z - eps)) / (2 * eps)
        assert abs(crv.at(z, 1) - fd) < 1e-8

    def test_tabulated_roundtrip(self):
        r = np.linspace(0.5, 20.0, 400)
        v = 0.2 * (np.exp(-1.4 * (r - 2.0)) - 2 * np.exp(-0.7 * (r - 2.0)))
        crv = TabulatedCurve(r, v, tail_start=10.0)
        rt = np.linspace(1.0, 15.0, 77)
        assert_allclose(crv(rt), 0.2 * (np.exp(-1.4 * (rt - 2.0)) - 2 * np.exp(-0.7 * (rt - 2.0))),
                        atol=2e-6)

    def test_tabulated_rejects_non_monotone(self):
        r = np.array([1.0, 2.0, 1.5, 3.0])
        with pytest.raises(ModelError, match="non-monotone abscissa"):
            TabulatedCurve(r, np.zeros(4), tail_start=2.0)

    def test_tabulated_rejects_short_table(self):
        with pytest.raises(ModelError, match="at least 4 rows"):
            TabulatedCurve(np.array([1.0, 2.0]), np.array([0.0, 0.0]), tail_start=1.0)

    @pytest.mark.parametrize("table", ["h2p_1ssg.tsv", "h2p_2psu.tsv"])
    def test_spline_matches_scipy_not_a_knot(self, table):
        # the package's own spline; scipy's CubicSpline is only the reference
        from scipy.interpolate import CubicSpline
        r, v = np.loadtxt(os.path.join(DATA, table)).T
        crv = TabulatedCurve(r, v, tail_start=12.0)
        ref = CubicSpline(r, v)
        at = np.concatenate([r, 0.5 * (r[1:] + r[:-1]),
                             np.linspace(r[0], r[-1], 3001)])
        want = ref(at)
        assert_allclose(crv(at), want, rtol=1e-12, atol=1e-12 * np.abs(want).max())

    def test_complex_eval_guarded(self, h2plus):
        with pytest.raises(ModelError, match="continuation"):
            h2plus.vg_curve.at(3.0 + 0.5j)


class TestLoadMolecule:
    def test_bundled_h2plus(self, h2plus):
        assert h2plus.reduced_mass == pytest.approx(918.0764)
        # equilibrium properties of the bundled ground curve
        r = np.linspace(1.8, 2.2, 2001)
        v = h2plus.vg_curve(r)
        i = int(np.argmin(v))
        assert r[i] == pytest.approx(1.997, abs=2e-3)
        assert v[i] == pytest.approx(-0.1026342, abs=1e-6)
        assert abs(h2plus.vg_curve.asymptote) < 1e-7
        assert abs(h2plus.vu_curve.asymptote) < 1e-7

    def test_bundled_morse_variant(self):
        m = load_molecule("h2plus-morse")
        assert m.vg_curve(1.9972) == pytest.approx(-0.102635, abs=1e-8)

    def test_missing_model(self):
        with pytest.raises(ModelError, match="no such file or bundled name"):
            load_molecule("nosuchmolecule")

    def test_missing_table(self, tmp_path):
        d = tmp_path / "broken.model"
        d.write_text("kind = tables\nvg = nope.tsv\nvu = nope.tsv\n")
        with pytest.raises(ModelError, match="not found"):
            load_molecule(str(d))

    def test_descriptor_syntax_error(self, tmp_path):
        d = tmp_path / "broken.model"
        d.write_text("kind tables\n")
        with pytest.raises(ModelError, match="key = value"):
            load_molecule(str(d))

    def test_table_descriptor_needs_tail_start(self, tmp_path):
        # without it no tail would reach the scaling corner, and every
        # solve would fail later
        d = tmp_path / "notail.model"
        d.write_text(f"kind = tables\n"
                     f"vg = {os.path.join(DATA, 'h2p_1ssg.tsv')}\n"
                     f"vu = {os.path.join(DATA, 'h2p_2psu.tsv')}\n")
        with pytest.raises(ModelError, match="'tail-start'"):
            load_molecule(str(d))

    @pytest.mark.parametrize("edit, key", [
        (("morse-depth = 0.102635", "morse-depth = x"), "morse-depth"),
        (("morse-width = 0.7082\n", ""), "morse-width"),
        (("dipole = linear 0.5", "dipole = linear x"), "dipole"),
    ], ids=["bad-value", "missing", "bad-dipole-slope"])
    def test_descriptor_errors_name_the_key(self, tmp_path, edit, key):
        with open(os.path.join(DATA, "h2plus-morse.model")) as fh:
            text = fh.read()
        assert edit[0] in text
        d = tmp_path / "broken.model"
        d.write_text(text.replace(*edit))
        with pytest.raises(ModelError, match=f"'{key}'"):
            load_molecule(str(d))

    def test_tabulated_dipole_enters_the_fingerprint(self, tmp_path):
        # an edited dipole table must change every cache key of the model
        r = np.loadtxt(os.path.join(DATA, "h2p_1ssg.tsv"))[:, 0]
        desc = tmp_path / "tabmu.model"
        desc.write_text(f"vg = {os.path.join(DATA, 'h2p_1ssg.tsv')}\n"
                        f"vu = {os.path.join(DATA, 'h2p_2psu.tsv')}\n"
                        "dipole = mu.tsv\ntail-start = 12\n")
        np.savetxt(tmp_path / "mu.tsv", np.column_stack([r, 0.5 * r]))
        before = load_molecule(str(desc)).fingerprint
        assert load_molecule(str(desc)).fingerprint == before
        np.savetxt(tmp_path / "mu.tsv", np.column_stack([r, 0.51 * r]))
        assert load_molecule(str(desc)).fingerprint != before

    def test_fingerprint_stable(self, h2plus):
        again = load_molecule("h2plus")
        assert again.fingerprint == h2plus.fingerprint
        assert load_molecule("h2plus-morse").fingerprint != h2plus.fingerprint

    def test_validate_rejects_repulsive_vg(self):
        m = MoleculeModel(name="bad", vg_curve=exp_repulsive(2.0, 0.9),
                          vu_curve=exp_repulsive(2.0, 0.9), dipole=linear_dipole(0.5),
                          reduced_mass=918.0)
        with pytest.raises(ModelError, match="minimum"):
            m.validate()


class TestPickle:
    """A model pickles whole, so worker processes receive the model itself."""

    @pytest.mark.parametrize("name", ["h2plus", "h2plus-morse", "in-memory"])
    def test_round_trip_keeps_levels_and_determinants(self, name):
        if name == "in-memory":
            model = MoleculeModel(name="toy", vg_curve=morse_curve(0.1, 0.7, 2.0),
                                  vu_curve=exp_repulsive(2.0, 0.9),
                                  dipole=linear_dipole(0.5), reduced_mass=50.0)
            grid = RadialGrid(r_min=0.4, r_max=14.0, n_points=501,
                              ecs_radius=9.0, ecs_angle=0.3)
        else:
            model, grid = load_molecule(name), RadialGrid()
        copy = pickle.loads(pickle.dumps(model))
        assert copy is not model and copy.fingerprint == model.fingerprint
        assert ([lv.energy for lv in field_free_levels(copy, grid)]
                == [lv.energy for lv in field_free_levels(model, grid)])
        field = FieldPoint(600.0, 5e12)
        for e in (-0.0105 - 1e-5j, -0.05 - 1e-4j):
            assert (build_system(copy, field, grid).determinant(e)
                    == build_system(model, field, grid).determinant(e))


class TestFieldPoint:
    def test_derived_quantities(self):
        f = FieldPoint(wavelength=800.0, intensity=1e13)
        assert f.omega == pytest.approx(45.56335 / 800.0)
        assert f.e0 == pytest.approx(math.sqrt(1e13 / 3.50944e16))

    def test_photon_energy_example(self):
        # 0.056 hartree corresponds to about 813.6 nm
        f = FieldPoint(wavelength=45.56335 / 0.056, intensity=0.0)
        assert f.wavelength == pytest.approx(813.63, abs=0.01)
        assert f.omega == pytest.approx(0.056)

    def test_rejects_nonpositive_wavelength(self):
        with pytest.raises(ModelError, match="wavelength"):
            FieldPoint(wavelength=0.0, intensity=1e12)

    def test_rejects_negative_intensity(self):
        with pytest.raises(ModelError, match="intensity"):
            FieldPoint(wavelength=800.0, intensity=-1.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", ["wavelength", "intensity"])
    def test_rejects_non_finite_values(self, name, value):
        kwargs = {"wavelength": 800.0, "intensity": 1e12, name: value}
        with pytest.raises(ModelError, match=f"{name} must be .* finite"):
            FieldPoint(**kwargs)


class TestRadialGrid:
    def test_contour_shape(self):
        g = RadialGrid(r_min=0.5, r_max=25.0, n_points=3001, ecs_radius=15.0, ecs_angle=0.3)
        z = g.contour()
        c = g.corner_index
        assert np.all(np.isreal(z[: c + 1]))
        # uniform arc length along the rotated ray
        steps = np.diff(z[c:])
        assert_allclose(steps, steps[0], rtol=1e-12)
        assert np.angle(steps[0]) == pytest.approx(0.3)

    def test_corner_snaps_to_grid(self):
        g = RadialGrid(ecs_radius=15.0)
        assert g.points()[g.corner_index] == pytest.approx(15.0, abs=g.step)

    def test_rejects_bad_ordering(self):
        with pytest.raises(GridError, match="ecs_radius"):
            RadialGrid(r_min=0.5, r_max=10.0, ecs_radius=12.0)

    def test_rejects_coarse_grid(self):
        with pytest.raises(GridError, match="n_points"):
            RadialGrid(n_points=100)

    def test_doubling_preserves_span(self):
        g = RadialGrid()
        d = g.doubled()
        assert d.step == pytest.approx(g.step / 2)
        assert d.r_min == g.r_min and d.r_max == g.r_max


class TestDressing:
    def test_adiabatic_trace_preserved(self, h2plus):
        f = FieldPoint(wavelength=600.0, intensity=5e12)
        r = np.linspace(1.0, 20.0, 500)
        vp, vm = adiabatic_potentials(h2plus, f, r)
        diab = h2plus.vg_curve(r) + h2plus.vu_curve(r) - f.omega
        assert np.max(np.abs((vp + vm) - diab)) < 1e-12

    def test_adiabatic_ordering_and_gap(self, h2plus):
        f = FieldPoint(wavelength=600.0, intensity=5e12)
        r = np.linspace(1.0, 20.0, 500)
        vp, vm = adiabatic_potentials(h2plus, f, r)
        assert np.all(vp >= vm)
        # gap is at least the radiative coupling everywhere
        gap_min = f.e0 * h2plus.dipole(r)
        assert np.all(vp - vm >= gap_min - 1e-15)

    def test_adiabatic_reduces_to_diabatic_at_zero_field(self, h2plus):
        f = FieldPoint(wavelength=600.0, intensity=0.0)
        r = np.linspace(1.0, 20.0, 200)
        vp, vm = adiabatic_potentials(h2plus, f, r)
        vg = h2plus.vg_curve(r)
        vu = h2plus.vu_curve(r) - f.omega
        assert_allclose(vp, np.maximum(vg, vu), atol=1e-14)
        assert_allclose(vm, np.minimum(vg, vu), atol=1e-14)
