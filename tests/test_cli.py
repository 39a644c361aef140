"""End-to-end checks of the command-line driver.

Commands run in-process through cli.main so exit codes, stdout summaries,
and emitted files can all be asserted cheaply.  The heavier workflows
(coalescence map, loops) reuse the weak-field settings pinned down in the
engine test modules.
"""

import argparse
import csv
import importlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

import floqep
from floqep import _lapack, bound_states, cli, ep, loops
from floqep.bound_states import field_free_levels
from floqep.cli import main
from floqep.ep import EPCandidate, EPRecord, records_from_csv
from floqep.errors import ConvergenceError, ModelError
from floqep.floquet import build_system
from floqep.molecule import (FieldPoint, MoleculeModel, RadialGrid, exp_repulsive,
                             linear_dipole, load_molecule, morse_curve)

SVG = "{http://www.w3.org/2000/svg}"


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def roundtrips(text: str) -> bool:
    """True when reprinting the parsed float at 12 digits reproduces it."""
    return f"{float(text):.12g}" == text


class TestLevelsCommand:
    def test_table_json_and_roundtrip(self, tmp_path, capsys):
        assert main(["levels", "--out", str(tmp_path)]) == 0
        rows = read_csv(tmp_path / "levels.csv")
        assert len(rows) >= 17
        assert all(roundtrips(r["energy_hartree"]) for r in rows)

        doc = json.loads((tmp_path / "levels.json").read_text())
        assert doc["command"] == "levels"
        assert doc["provenance"]["code_version"] == floqep.__version__
        assert len(doc["provenance"]["model_hash"]) > 8
        assert doc["config"]["model"] == "h2plus"
        for row, lv in zip(rows, doc["results"]["levels"]):
            assert float(row["energy_hartree"]) == pytest.approx(
                lv["energy_hartree"], rel=1e-11)
        assert "bound levels" in capsys.readouterr().out

    def test_default_window_gives_header_only_curves(self, tmp_path):
        assert main(["levels", "--out", str(tmp_path)]) == 0
        lines = (tmp_path / "well_curves.csv").read_text().strip().splitlines()
        assert lines == ["lambda_nm,v_plus,energy_hartree"]

    @pytest.mark.parametrize("step", ["0", "-5", "nan", "inf"])
    def test_non_positive_lambda_step_rejected(self, tmp_path, capsys, step):
        assert main(["levels", "--out", str(tmp_path),
                     "--lambda-min", "500", "--lambda-max", "600",
                     "--lambda-step", step]) == 2
        assert "argument --lambda-step: must be" in capsys.readouterr().err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("intensity", ["0", "-1000", "nan", "inf"])
    def test_non_positive_curve_intensity_rejected(self, tmp_path, capsys,
                                                   intensity):
        assert main(["levels", "--out", str(tmp_path),
                     "--lambda-min", "600", "--lambda-max", "700",
                     "--curve-intensity", intensity]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--curve-intensity" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, flag", [
        (["--lambda-min", "-100", "--lambda-max", "-50"], "--lambda-min"),
        (["--lambda-min", "0", "--lambda-max", "700"], "--lambda-min"),
        (["--lambda-min", "600", "--lambda-max", "700", "--vplus-max", "-1"],
         "--vplus-max")])
    def test_bad_scan_input_rejected_before_any_write(self, tmp_path, capsys,
                                                      argv, flag):
        # each used to exit 0 with every curve point dropped
        assert main(["levels", *argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err
        assert not (tmp_path / "levels.csv").exists()

    @pytest.mark.parametrize("v_max, n_levels, truncated",
                             [("30", 19, True), ("5", 6, False)])
    def test_v_max_slices_the_bound_set(self, tmp_path, v_max, n_levels,
                                        truncated):
        assert main(["levels", "--v-max", v_max, "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "levels.json").read_text())["results"]
        assert (res["n_levels"], res["truncated"]) == (n_levels, truncated)
        assert len(read_csv(tmp_path / "levels.csv")) == n_levels

    def test_curve_scan_and_svg(self, tmp_path):
        assert main(["levels", "--out", str(tmp_path),
                     "--lambda-min", "500", "--lambda-max", "600",
                     "--lambda-step", "50", "--vplus-max", "1"]) == 0
        rows = read_csv(tmp_path / "well_curves.csv")
        assert {r["lambda_nm"] for r in rows} == {"500", "550", "600"}
        assert all(int(r["v_plus"]) <= 1 for r in rows)
        ET.parse(tmp_path / "levels.svg")


class TestAdiabaticCommand:
    def test_curves_levels_and_plot(self, tmp_path, capsys):
        assert main(["adiabatic", "--wavelength", "600", "--intensity", "1e12",
                     "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "adiabatic_curves.csv")) == 2001
        res = json.loads((tmp_path / "adiabatic.json").read_text())["results"]
        rows = read_csv(tmp_path / "adiabatic_levels.csv")
        assert res["n_levels"] > 0
        assert [int(r["v_plus"]) for r in rows] == list(range(res["n_levels"]))
        assert os.path.getsize(tmp_path / "adiabatic.svg") > 0
        ET.parse(tmp_path / "adiabatic.svg")
        assert "upper-well levels at 600 nm" in capsys.readouterr().out


class TestRunGrid:
    GRID = ["--grid.r-max", "24", "--grid.n-points", "2001"]

    @pytest.mark.parametrize("argv", [
        ["levels", "--lambda-min", "500", "--lambda-max", "600",
         "--lambda-step", "50", "--vplus-max", "1"],
        ["adiabatic", "--wavelength", "600", "--intensity", "1e12"],
        ["ep-map", "--window", "600", "612", "--v-max", "13", "--vplus-max", "3"]],
        ids=lambda argv: argv[0])
    def test_every_level_solve_uses_the_run_grid(self, tmp_path, monkeypatch, argv):
        domains = []
        solve = bound_states.vibrational_levels

        def spied(potential, mass, v_max=None, **kwargs):
            domains.append((kwargs["r_min"], kwargs["r_max"], kwargs["n_points"]))
            return solve(potential, mass, v_max, **kwargs)

        # every binding, so that a module importing it by name counts too
        for mod in (bound_states, ep, cli):
            if hasattr(mod, "vibrational_levels"):
                monkeypatch.setattr(mod, "vibrational_levels", spied)
        bound_states.field_free_levels.cache_clear()
        assert main([*argv, *self.GRID, "--out", str(tmp_path)]) == 0
        assert domains and set(domains) == {(RadialGrid().r_min, 24.0, 2001)}

    def test_adiabatic_writes_the_levels_of_its_grid(self, tmp_path):
        assert main(["adiabatic", "--wavelength", "600", "--intensity", "1e12",
                     "--grid.n-points", "6001", "--out", str(tmp_path)]) == 0
        want = bound_states.adiabatic_levels(
            load_molecule("h2plus"), FieldPoint(600.0, 1e12), 8, RadialGrid(n_points=6001))
        rows = read_csv(tmp_path / "adiabatic_levels.csv")
        assert [(int(r["v_plus"]), r["energy_hartree"]) for r in rows] == [
            (lv.v, f"{lv.energy:.12g}") for lv in want]
        curves = read_csv(tmp_path / "adiabatic_curves.csv")
        assert (float(curves[0]["r_bohr"]), float(curves[-1]["r_bohr"])) == (0.5, 25.0)


class TestConfigPrecedence:
    def test_config_sets_defaults_and_flags_win(self, tmp_path, capsys):
        out_a = tmp_path / "a"
        out_b = tmp_path / "b"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"# comment line\nv-max = 5\nout = {out_a}\n")

        assert main(["levels", "--config", str(cfg)]) == 0
        assert len(read_csv(out_a / "levels.csv")) == 6

        assert main(["levels", "--config", str(cfg),
                     "--v-max", "8", "--out", str(out_b)]) == 0
        assert len(read_csv(out_b / "levels.csv")) == 9

    def test_grid_keys_are_coerced(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.n-points = 801\ngrid.r-max = 20\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "levels.json").read_text())
        assert doc["config"]["grid_n_points"] == 801
        assert doc["config"]["grid_r_max"] == 20.0

    def test_unknown_key_is_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus-key = 1\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_jobs_only_on_ep_map(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 2\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "unknown config key 'jobs'" in capsys.readouterr().err
        assert main(["loop", "--jobs", "2", "--out", str(tmp_path)]) == 2

    def test_version_returns_zero(self, capsys):
        assert main(["--version"]) == 0
        assert floqep.__version__ in capsys.readouterr().out

    def test_bad_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid.n-points = abc\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "'grid.n-points'" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["600", "600 660 700"])
    def test_wrong_value_count_names_the_key(self, tmp_path, capsys, value):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"window = {value}\n")
        assert main(["ep-map", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"bad value '{value}' for key 'window'" in err

    def test_list_value_reaches_the_command(self, tmp_path, monkeypatch):
        windows = []

        def no_scan(*args):
            windows.append(args[3])
            return []

        monkeypatch.setattr(cli, "approximate_eps", no_scan)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("window = 600 660\n")
        assert main(["ep-map", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert windows == [(600.0, 660.0)]
        doc = json.loads((tmp_path / "ep_map.json").read_text())
        assert doc["config"]["window"] == [600.0, 660.0]

    def test_bool_value_reaches_the_command(self, tmp_path, monkeypatch):
        seen = {}

        def no_loop(*args, **kwargs):
            seen.update(kwargs)
            raise ModelError("stopped before the loop")

        monkeypatch.setattr(cli, "follow_resonance", no_loop)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("reverse = yes\n")
        assert main(["loop", "--config", str(cfg), "--lambda0", "500",
                     "--d-lambda", "2", "--i-max", "0.02", "--v-start", "2",
                     "--out", str(tmp_path)]) == 2
        assert seen["reverse"] is True

    @pytest.mark.parametrize("value, want", [
        ("1", True), ("true", True), ("On", True),
        ("no", False), ("0", False), ("false", False), ("OFF", False),
        ("ture", None), ("", None)])
    def test_bool_spellings(self, tmp_path, monkeypatch, capsys, value, want):
        # a word outside both spellings is refused before any solve
        seen = {}

        def no_loop(*args, **kwargs):
            seen.update(kwargs)
            raise ModelError("stopped before the loop")

        monkeypatch.setattr(cli, "follow_resonance", no_loop)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"reverse = {value}\n")
        assert main(["loop", "--config", str(cfg), "--lambda0", "500",
                     "--d-lambda", "2", "--i-max", "0.02", "--v-start", "2",
                     "--out", str(tmp_path)]) == 2
        if want is None:
            assert seen == {}
            assert f"bad value '{value}' for key 'reverse'" in capsys.readouterr().err
        else:
            assert seen["reverse"] is want

    def test_read_like_a_descriptor(self, tmp_path):
        # inline comments, and keys in any case
        cfg = tmp_path / "run.cfg"
        cfg.write_text("V-Max = 3   # lowest four\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 0
        assert len(read_csv(tmp_path / "levels.csv")) == 4

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["levels", "--config", str(tmp_path / "nope.cfg"),
                     "--out", str(tmp_path)]) == 2


class TestResonanceCommand:
    WAVELENGTH = "788.2"
    INTENSITY = "1e12"

    def test_solve_then_cache_hit(self, tmp_path, capsys):
        cache = tmp_path / "cache.json"
        argv = ["resonance", "--out", str(tmp_path), "--cache", str(cache),
                "--wavelength", self.WAVELENGTH,
                "--intensity", self.INTENSITY, "--v", "12"]

        assert main(argv) == 0
        doc = json.loads((tmp_path / "resonance.json").read_text())
        assert doc["results"]["from_cache"] is False
        assert doc["results"]["energy_re_hartree"] == pytest.approx(
            -0.0119660506, abs=1e-8)
        assert doc["results"]["width_invcm"] > 0.0
        first_out = capsys.readouterr().out

        assert main(argv) == 0
        doc2 = json.loads((tmp_path / "resonance.json").read_text())
        assert doc2["results"]["from_cache"] is True
        assert doc2["results"]["energy_re_hartree"] == \
            doc["results"]["energy_re_hartree"]
        assert "[cache]" in capsys.readouterr().out
        assert "[cache]" not in first_out

        # the residual is |D| at the reported energy
        res = doc["results"]
        system = build_system(load_molecule("h2plus"), FieldPoint(
            float(self.WAVELENGTH), float(self.INTENSITY)))
        energy = complex(res["energy_re_hartree"], res["energy_im_hartree"])
        assert res["residual"] == abs(system.determinant(energy))

    def test_missing_required_flags(self, tmp_path, capsys):
        assert main(["resonance", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "missing required" in err and "--wavelength" in err

    def test_zero_intensity_is_the_field_free_level(self, tmp_path):
        # the ramp used to put every step at I = 0 and divide by zero
        assert main(["resonance", "--wavelength", "600", "--intensity", "0",
                     "--v", "5", "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "resonance.json").read_text())["results"]
        level = field_free_levels(load_molecule("h2plus"), RadialGrid())[5]
        assert res["energy_re_hartree"] == pytest.approx(level.energy, abs=1e-11)
        assert res["width_hartree"] < 1e-12

    def test_coarse_four_block_ramp_stays_on_its_branch(self, tmp_path):
        # 8 steps at 4 blocks are too coarse for v = 11 at this corner of the
        # benchmark's seed ranges; the ramp halves the steps that jump
        assert main(["resonance", "--n-blocks", "4", "--steps", "8",
                     "--wavelength", "780", "--intensity", "1.2e12", "--v", "11",
                     "--out", str(tmp_path)]) == 0
        res = json.loads((tmp_path / "resonance.json").read_text())["results"]
        energy = complex(res["energy_re_hartree"], res["energy_im_hartree"])
        assert abs(energy - (-0.01746730072 - 3.62623782e-4j)) < 1e-9


class TestEpWorkflow:
    def test_map_cache_resume_and_refine(self, tmp_path, capsys):
        out = tmp_path / "map"
        cache = tmp_path / "cache.json"
        argv = ["ep-map", "--out", str(out), "--cache", str(cache),
                "--v-max", "13", "--vplus-max", "3",
                "--window", "600", "660", "--jobs", "2"]

        assert main(argv) == 0
        rows = read_csv(out / "ep_map.csv")
        found = {r["pair"]: float(r["lambda_nm"]) for r in rows}
        assert set(found) == {"12-13", "13-14"}
        assert found["12-13"] == pytest.approx(634.55, abs=0.1)
        assert found["13-14"] == pytest.approx(604.60, abs=0.1)
        assert all(float(r["gap_residual"]) < 1e-8 for r in rows)
        assert all(roundtrips(r["lambda_nm"]) for r in rows)
        ET.parse(out / "ep_map.svg")
        doc = json.loads((out / "ep_map.json").read_text())
        assert doc["results"]["n_records"] == 2
        assert doc["results"]["n_cached"] == 0
        # the (9,10) candidate fails, and ep_map.json says why
        fails = doc["results"]["failures"]
        assert doc["results"]["n_failed"] == len(fails) == 1
        assert (fails[0]["pair"], fails[0]["v_plus"]) == ([9, 10], 0)
        assert fails[0]["lambda_guess"] == pytest.approx(648.52, abs=0.01)
        assert fails[0]["reason"].startswith("Newton iterate left the seed pair")
        # the CSV reloads the records of ep_map.json, e_ep and v_plus included
        for rec, d in zip(records_from_csv(out / "ep_map.csv"),
                          doc["results"]["records"]):
            assert rec.v_plus == d["v_plus"]
            assert rec.e_ep == pytest.approx(complex(*d["e_ep"]), rel=1e-11)
        capsys.readouterr()

        # same window again: both records must come from the cache
        assert main(argv) == 0
        assert "2 from cache" in capsys.readouterr().out
        rows2 = read_csv(out / "ep_map.csv")
        assert rows2 == rows

        # single-candidate refinement shares the cache namespace
        out2 = tmp_path / "refine"
        assert main(["ep-refine", "--out", str(out2),
                     "--cache", str(cache), "--v", "12", "--v-plus", "2",
                     "--lambda-guess", "635.95"]) == 0
        assert "[cache]" in capsys.readouterr().out
        doc = json.loads((out2 / "ep_refine.json").read_text())
        assert doc["results"]["from_cache"] is True
        assert doc["results"]["lambda_nm"] == pytest.approx(634.55, abs=0.05)


    def test_interrupted_map_keeps_its_records_and_resumes(self, tmp_path,
                                                           monkeypatch, capsys):
        cands = [EPCandidate(v=12, v_partner=13, v_plus=2, lambda_guess=635.96),
                 EPCandidate(v=13, v_partner=14, v_plus=3, lambda_guess=602.57)]
        recs = [EPRecord(pair=(c.v, c.v_partner), lambda_ep=c.lambda_guess,
                         intensity_ep=0.2, gap_residual=1e-9,
                         e_ep=complex(-0.01, -1e-4), v_plus=c.v_plus)
                for c in cands]
        calls = []

        def refine(model, cand, grid, **kwargs):
            calls.append(cand)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return recs[cands.index(cand)]

        monkeypatch.setattr(cli, "approximate_eps", lambda *args: cands)
        monkeypatch.setattr(cli, "refine_ep", refine)
        cache = tmp_path / "cache.json"
        argv = ["ep-map", "--cache", str(cache), "--out", str(tmp_path)]
        with pytest.raises(KeyboardInterrupt):
            main(argv)
        assert list(json.loads(cache.read_text()).values()) == [recs[0].to_dict()]

        assert main(argv) == 0
        assert "2 coalescences (1 from cache, 0 failed)" in capsys.readouterr().out
        assert calls == [cands[0], cands[1], cands[1]]

    def test_records_state_their_block_count(self, tmp_path, monkeypatch):
        # in ep_map.csv, ep_map.json and the cache; a record cached before
        # records stated it gets the --n-blocks its cache key holds
        cand = EPCandidate(v=12, v_partner=13, v_plus=2, lambda_guess=635.96)

        def refine(model, cand, grid, n_blocks, i_cap):
            return EPRecord(pair=(cand.v, cand.v_partner), lambda_ep=634.55,
                            intensity_ep=0.2, gap_residual=1e-9,
                            e_ep=complex(-0.01, -1e-4), v_plus=cand.v_plus,
                            n_blocks=n_blocks)

        monkeypatch.setattr(cli, "approximate_eps", lambda *args: [cand])
        monkeypatch.setattr(cli, "refine_ep", refine)
        cache = tmp_path / "cache.json"
        argv = ["ep-map", "--n-blocks", "4", "--cache", str(cache),
                "--out", str(tmp_path)]
        assert main(argv) == 0
        assert [r["n_blocks"] for r in read_csv(tmp_path / "ep_map.csv")] == ["4"]
        doc = json.loads((tmp_path / "ep_map.json").read_text())
        assert [r["n_blocks"] for r in doc["results"]["records"]] == [4]
        stored = json.loads(cache.read_text())
        assert [r["n_blocks"] for r in stored.values()] == [4]

        for rec in stored.values():
            del rec["n_blocks"]
        cache.write_text(json.dumps(stored))
        assert main(argv) == 0
        doc = json.loads((tmp_path / "ep_map.json").read_text())
        assert doc["results"]["n_cached"] == 1
        assert [r.n_blocks for r in records_from_csv(tmp_path / "ep_map.csv")] == [4]

    def test_one_field_free_solve_per_map(self, tmp_path, monkeypatch):
        # the scan reads the set the pair walks start from
        models, potentials = [], []
        load, solve = cli.load_molecule, bound_states.vibrational_levels

        def loaded(descriptor):
            models.append(load(descriptor))
            return models[-1]

        def counted(potential, *args, **kwargs):
            potentials.append(potential)
            return solve(potential, *args, **kwargs)

        monkeypatch.setattr(cli, "load_molecule", loaded)
        for mod in (bound_states, ep, cli):
            if hasattr(mod, "vibrational_levels"):
                monkeypatch.setattr(mod, "vibrational_levels", counted)
        bound_states.field_free_levels.cache_clear()
        assert main(["ep-map", "--window", "600", "612", "--v-max", "13",
                     "--vplus-max", "3", "--out", str(tmp_path)]) == 0
        doc = json.loads((tmp_path / "ep_map.json").read_text())
        assert [r["pair"] for r in doc["results"]["records"]] == [[13, 14]]
        assert sum(p is models[0].vg_curve for p in potentials) == 1

    def test_workers_receive_an_in_memory_model(self):
        # no descriptor to reload it from: the model itself pickles
        model = MoleculeModel(name="in-memory",
                              vg_curve=morse_curve(0.102635, 0.7082, 1.9972),
                              vu_curve=exp_repulsive(2.0070, 0.8996),
                              dipole=linear_dipole(0.5), reduced_mass=918.0764)
        todo = [(None, EPCandidate(v=9, v_partner=10, v_plus=0,
                                   lambda_guess=628.3201183976421)),
                (None, EPCandidate(v=12, v_partner=13, v_plus=2,
                                   lambda_guess=609.7858725309844))]
        runs = [list(cli._refinements(
                    argparse.Namespace(jobs=jobs, n_blocks=2, i_cap=0.6),
                    model, RadialGrid(), todo))
                for jobs in (1, 2)]
        assert runs[0] == runs[1]
        assert runs[0][0].startswith("Newton iterate left the seed pair")
        assert runs[0][1].pair == (12, 13) and runs[0][1].gap_residual < 1e-8



class TestLoopCommand:
    def test_weak_loop_outputs(self, tmp_path, capsys):
        eps = tmp_path / "eps.csv"
        eps.write_text("pair,lambda_nm,intensity_1e13Wcm2,gap_residual,"
                       "e_ep_re,e_ep_im,v_plus\n"
                       "12-13,500,0.01,1e-09,-0.01,-1e-05,2\n")
        assert main(["loop", "--out", str(tmp_path),
                     "--lambda0", "500", "--d-lambda", "2",
                     "--i-max", "0.02", "--t-f", "30", "--n-steps", "100",
                     "--v-start", "2", "--ep-csv", str(eps)]) == 0

        rows = read_csv(tmp_path / "loop.csv")
        assert len(rows) == 101
        for key in ("phi", "t_fs", "lambda_nm", "ReE_hartree", "P_ND"):
            assert roundtrips(rows[0][key]) and roundtrips(rows[-1][key])

        doc = json.loads((tmp_path / "loop.json").read_text())
        assert doc["results"]["v_start"] == 2
        assert doc["results"]["v_end"] == 2
        assert doc["results"]["exchanged"] is False
        assert doc["results"]["p_nd_final"] > 0.99
        assert doc["results"]["partial"] is False

        for name in ("loop_contour.svg", "loop_energy.svg",
                     "loop_survival.svg"):
            ET.parse(tmp_path / name)
        root = ET.parse(tmp_path / "loop_contour.svg").getroot()
        texts = [el.text for el in root.iter(f"{SVG}text")]
        assert "(12,13)" in texts
        # the contour is drawn in 10^13 W/cm^2 like the markers, so the
        # y axis reaches i_max = 0.02 (not the 0.01 of the EP marker)
        y_ticks = [float(el.text) for el in root.iter(f"{SVG}text")
                   if el.get("text-anchor") == "end" and el.text != "contour"]
        assert max(y_ticks) == pytest.approx(0.02)
        assert "v = 2 -> 2" in capsys.readouterr().out

    def test_ep_csv_from_another_block_count_warns(self, tmp_path, capsys):
        # one warning per record refined at another --n-blocks; a record
        # that does not state its count gets none
        eps = tmp_path / "eps.csv"
        eps.write_text("pair,lambda_nm,intensity_1e13Wcm2,gap_residual,"
                       "e_ep_re,e_ep_im,v_plus,n_blocks\n"
                       "12-13,634.55,0.2052,3e-09,-0.0095,-0.0015,2,2\n"
                       "12-13,636.393,0.1934,3e-09,-0.0095,-0.0015,2,4\n"
                       "13-14,604.6,0.2250,3e-09,-0.0101,-0.0017,3,\n")
        assert main(["loop", "--out", str(tmp_path),
                     "--lambda0", "500", "--d-lambda", "2",
                     "--i-max", "0.02", "--t-f", "30", "--n-steps", "100",
                     "--v-start", "2", "--ep-csv", str(eps)]) == 0
        warnings = [ln for ln in capsys.readouterr().err.splitlines()
                    if ln.startswith("warning:")]
        assert warnings == [f"warning: {eps}: EP (12,13) at 636.393 nm was "
                            "refined with 4 photon blocks, this loop uses 2"]

    def test_broken_loop_writes_partial_outputs(self, tmp_path, monkeypatch,
                                                capsys):
        inner = loops.find_resonance
        calls = [0]

        def fail_after_20(*args, **kwargs):
            calls[0] += 1
            if calls[0] > 20:
                raise ConvergenceError("injected solve failure")
            return inner(*args, **kwargs)

        monkeypatch.setattr(loops, "find_resonance", fail_after_20)
        assert main(["loop", "--out", str(tmp_path),
                     "--lambda0", "500", "--d-lambda", "2",
                     "--i-max", "0.02", "--t-f", "30", "--n-steps", "100",
                     "--v-start", "2"]) == 3
        doc = json.loads((tmp_path / "loop.json").read_text())
        assert doc["results"]["partial"] is True
        assert doc["results"]["n_samples"] == 21
        assert len(read_csv(tmp_path / "loop.csv")) == 21
        assert "writing partial outputs" in capsys.readouterr().err

    def test_missing_required_flags(self, tmp_path, capsys):
        assert main(["loop", "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("text, column", [
        ("pair,lambda_nm\n12-13,500\n", "intensity_1e13Wcm2"),
        ("pair,lambda_nm,intensity_1e13Wcm2,gap_residual\n"
         "12-13,500,high,1e-09\n", "intensity_1e13Wcm2"),
        ("pair,lambda_nm,intensity_1e13Wcm2,gap_residual\n"
         "12,500,0.01,1e-09\n", "pair"),
        ("pair,lambda_nm,intensity_1e13Wcm2,gap_residual\n"
         "12-13,500,0.01,1e-09\n", "e_ep_re")])
    def test_malformed_ep_csv_rejected_before_the_loop(self, tmp_path, capsys,
                                                       monkeypatch, text, column):
        def no_loop(*args, **kwargs):
            raise AssertionError("the loop ran before the markers were read")

        monkeypatch.setattr(cli, "follow_resonance", no_loop)
        eps = tmp_path / "eps.csv"
        eps.write_text(text)
        assert main(["loop", "--out", str(tmp_path),
                     "--lambda0", "500", "--d-lambda", "2", "--i-max", "0.02",
                     "--v-start", "2", "--ep-csv", str(eps)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(eps) in err and repr(column) in err
        assert not (tmp_path / "loop.csv").exists()

    def test_contour_through_zero_wavelength_rejected_before_the_loop(
            self, tmp_path, capsys, monkeypatch):
        # used to exit 2 only after the first solves, on a grid too coarse
        # for the de Broglie wavelength
        def no_loop(*args, **kwargs):
            raise AssertionError("the loop ran")

        monkeypatch.setattr(cli, "follow_resonance", no_loop)
        assert main(["loop", "--lambda0", "634.55", "--d-lambda=-700",
                     "--i-max", "0.3", "--v-start", "12",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "|d_lambda| must be below lambda0" in err
        assert os.listdir(tmp_path) == []


def scenario_config(tmp_path, *, v_to=(2, 2)):
    cfg = tmp_path / "scenario.cfg"
    cfg.write_text(
        "n-steps = 100\n"
        "loop1.lambda0 = 500\nloop1.d-lambda = 2\nloop1.i-max = 0.02\n"
        f"loop1.v-from = 2\nloop1.v-to = {v_to[0]}\n"
        "loop2.lambda0 = 520\nloop2.d-lambda = 2\nloop2.i-max = 0.02\n"
        f"loop2.v-from = {v_to[0]}\nloop2.v-to = {v_to[1]}\n")
    return cfg


class TestScenarioCommand:
    def test_chained_weak_loops(self, tmp_path, capsys):
        cfg = scenario_config(tmp_path)
        assert main(["scenario", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 0
        rows = read_csv(tmp_path / "scenario.csv")
        assert [r["loop"] for r in rows] == ["1", "2"]
        assert all(float(r["p_nd"]) > 0.99 for r in rows)
        doc = json.loads((tmp_path / "scenario.json").read_text())
        assert doc["results"]["transfers"] == [[2, 2], [2, 2]]
        assert doc["results"]["cumulative"] == pytest.approx(
            float(rows[0]["p_nd"]) * float(rows[1]["p_nd"]), rel=1e-12)
        assert (tmp_path / "loop1.csv").exists()
        assert (tmp_path / "loop2.csv").exists()
        ET.parse(tmp_path / "scenario_survival.svg")
        assert "cumulative P_ND" in capsys.readouterr().out

    def test_wrong_declared_transfer_exits_3(self, tmp_path, capsys):
        cfg = scenario_config(tmp_path, v_to=(3, 3))
        assert main(["scenario", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 3
        assert "expected" in capsys.readouterr().err

    def test_requires_loop_sections(self, tmp_path, capsys):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("n-steps = 120\n")
        assert main(["scenario", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 2
        assert "loop sections" in capsys.readouterr().err

    def test_bad_section_value_names_the_key(self, tmp_path, capsys):
        cfg = scenario_config(tmp_path)
        cfg.write_text(cfg.read_text().replace("loop1.lambda0 = 500",
                                               "loop1.lambda0 = abc"))
        assert main(["scenario", "--out", str(tmp_path),
                     "--config", str(cfg)]) == 2
        assert "'lambda0'" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("loop1.tf = 45", "loop1 section: unknown key 'tf'"),
        ("loop1.n_steps = 400", "loop1 section: unknown key 'n_steps'"),
        ("loop1.lambda0 = inf", "for key 'lambda0': must be a finite number > 0, got inf"),
        ("loop1.n-steps = 1e3", "for key 'n-steps': must be an integer > 0, got 1e3"),
        ("loop2.v-to = -1", "for key 'v-to': must be an integer >= 0, got -1")])
    def test_section_key_refused_before_any_solve(self, tmp_path, capsys, monkeypatch,
                                                  line, message):
        cfg = scenario_config(tmp_path)
        key = line.split(" =")[0]
        text = "".join(ln for ln in cfg.read_text().splitlines(keepends=True)
                       if not ln.startswith(key + " "))
        cfg.write_text(text + line + "\n")
        monkeypatch.setattr(cli, "run_scenario", None)      # no solve may start
        out = tmp_path / "out"
        assert main(["scenario", "--out", str(out), "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err
        assert os.listdir(out) == []

    def test_section_keys_take_the_loop_flag_domains(self):
        # the very converters of the loop flags, so each domain is declared once
        _, subparsers = cli._build_parser()
        flag = {a.option_strings[-1][2:]: a.type for a in subparsers["loop"]._actions}
        flag["v-from"] = flag["v-to"] = flag["v-start"]
        assert all(conv is flag[key] for key, conv in cli._LOOP_SECTION.items())

    def test_loop_sections_rejected_elsewhere(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("loop1.lambda0 = 500\n")
        assert main(["levels", "--config", str(cfg),
                     "--out", str(tmp_path)]) == 2
        assert "scenario" in capsys.readouterr().err


class TestErrorExits:
    def test_unknown_model(self, tmp_path, capsys):
        assert main(["levels", "--model", "nosuch",
                     "--out", str(tmp_path)]) == 2
        assert "unknown model" in capsys.readouterr().err

    def test_bad_dipole_slope(self, tmp_path, capsys):
        with open(os.path.join(os.path.dirname(floqep.molecule.__file__), "data",
                               "h2plus-morse.model")) as fh:
            text = fh.read()
        desc = tmp_path / "bad.model"
        desc.write_text(text.replace("dipole = linear 0.5", "dipole = linear x"))
        assert main(["levels", "--model", str(desc), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "'dipole'" in err

    @pytest.mark.parametrize("steps", ["0", "-1"])
    def test_resonance_steps_below_one(self, tmp_path, capsys, steps):
        assert main(["resonance", "--wavelength", "788.2", "--intensity", "1e12",
                     "--v", "12", "--steps", steps, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "steps" in err

    @pytest.mark.parametrize("argv", [
        ["resonance", "--wavelength", "788.2", "--intensity", "1e12", "--v", "12"],
        ["ep-refine", "--v", "12", "--v-plus", "2", "--lambda-guess", "635.95"],
        ["ep-map"]])
    def test_malformed_cache_file(self, tmp_path, capsys, argv):
        # read before any solve, so the error comes at once
        cache = tmp_path / "cache.json"
        cache.write_text('{"a": ')
        assert main([*argv, "--cache", str(cache), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(cache) in err

    @pytest.mark.parametrize("argv", [
        ["ep-map", "--window", "600", "660", "--v-max", "13", "--vplus-max", "3"],
        ["ep-refine", "--v", "12", "--v-plus", "2", "--lambda-guess", "635.95"]])
    def test_odd_block_count_rejected_before_any_solve(self, tmp_path, capsys,
                                                       argv):
        # each candidate used to fail on its own, after the whole scan
        assert main([*argv, "--n-blocks", "3", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "n-blocks" in err
        assert not any(f.endswith(".json") for f in os.listdir(tmp_path))

    @pytest.mark.parametrize("v, partner, text", [
        pytest.param("-1", "0", "argument --v: must be", id="-1-0"),
        pytest.param("12", "12", "pair (12, 12)", id="12-12")])
    def test_bad_level_pair_rejected_before_any_solve(self, tmp_path, capsys,
                                                      monkeypatch, v, partner,
                                                      text):
        # (-1, 0) used to walk level 18 against 0, (12, 12) a level against itself
        def no_solve(*args, **kwargs):
            raise AssertionError("a system was built for a bad pair")

        monkeypatch.setattr(ep, "build_system", no_solve)
        assert main(["ep-refine", "--v", v, "--v-partner", partner,
                     "--v-plus", "1", "--lambda-guess", "600",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and text in err

    @pytest.mark.parametrize("i_cap", ["-0.5", "0"])
    @pytest.mark.parametrize("argv", [
        ["ep-map", "--window", "600", "660"],
        ["ep-refine", "--v", "12", "--v-plus", "2", "--lambda-guess", "635.95"]])
    def test_non_positive_intensity_cap_rejected(self, tmp_path, capsys, argv,
                                                 i_cap):
        assert main([*argv, "--i-cap", i_cap, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "i-cap" in err
        assert "10^13 W/cm^2" in err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("argv, flag", [
        (["ep-map", "--window", "600", "660"], "--i-cap"),
        (["ep-refine", "--v", "12", "--v-plus", "2", "--lambda-guess", "635.95"],
         "--i-cap"),
        (["levels", "--lambda-max", "700"], "--lambda-min"),
        (["levels", "--lambda-min", "600"], "--lambda-max")])
    def test_non_finite_flag_rejected_by_the_parser(self, tmp_path, capsys,
                                                    argv, flag, value):
        # an infinite --i-cap used to fail every candidate and exit 0, and
        # a NaN scan edge to turn the curve scan off silently
        assert main([*argv, f"{flag}={value}", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: argument {flag}: must be ")
        assert os.listdir(tmp_path) == []

    def test_non_finite_config_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("i-cap = inf\n")
        assert main(["ep-map", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2
        assert "bad value 'inf' for key 'i-cap'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_zero_scan_edge_stays_legal(self):
        # --lambda-min 0 is the default, and turns the curve scan off
        args = cli._build_parser()[0].parse_args(
            ["levels", "--lambda-min", "0", "--lambda-max", "0"])
        assert (args.lambda_min, args.lambda_max) == (0.0, 0.0)

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_jobs_below_one_rejected_before_the_scan(self, tmp_path, capsys,
                                                     monkeypatch, jobs):
        def no_scan(*args, **kwargs):
            raise AssertionError("the candidate scan ran")

        monkeypatch.setattr(cli, "approximate_eps", no_scan)
        assert main(["ep-map", "--jobs", jobs, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "--jobs" in err


    @pytest.mark.parametrize("flag", ["--v-max", "--vplus-max"])
    def test_negative_level_bound_rejected_before_the_scan(self, tmp_path,
                                                           capsys, monkeypatch,
                                                           flag):
        # each used to scan nothing and report 0 coalescences
        def no_scan(*args, **kwargs):
            raise AssertionError("the candidate scan ran")

        monkeypatch.setattr(cli, "approximate_eps", no_scan)
        assert main(["ep-map", flag, "-1", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err

    @pytest.mark.parametrize("argv, flag", [
        (["levels", "--v-max", "-1"], "--v-max"),
        (["adiabatic", "--wavelength", "600", "--intensity", "1e12",
          "--vplus-max", "-1"], "--vplus-max")])
    def test_negative_level_bound_rejected_before_any_write(self, tmp_path,
                                                            capsys, argv, flag):
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"argument {flag}: must be" in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, name", [
        (["adiabatic", "--wavelength", "600", "--intensity", "0"], "--intensity"),
        (["adiabatic", "--wavelength", "600", "--intensity", "nan"], "intensity"),
        (["adiabatic", "--wavelength", "600", "--intensity", "inf"], "intensity"),
        (["adiabatic", "--wavelength", "inf", "--intensity", "1e12"], "wavelength"),
        (["resonance", "--wavelength", "nan", "--intensity", "1e12", "--v", "3"],
         "wavelength"),
        (["resonance", "--wavelength", "600", "--intensity=-inf", "--v", "3"],
         "intensity"),
        pytest.param(["loop", "--lambda0", "634.55", "--d-lambda", "-5",
                      "--i-max", "nan", "--v-start", "12"],
                     "argument --i-max: must be", id="argv6-i_max"),
        pytest.param(["loop", "--lambda0", "634.55", "--d-lambda", "-5",
                      "--i-max", "0.3", "--t-f", "nan", "--v-start", "12"],
                     "argument --t-f: must be", id="argv7-t_f")])
    def test_unusable_laser_parameter_rejected_before_any_write(
            self, tmp_path, capsys, argv, name):
        # each used to fail late, some after writing their CSVs; with no
        # field, adiabatic wrote adiabatic_curves.csv and then failed on
        # the crossing
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        assert os.listdir(tmp_path) == []

    @pytest.mark.parametrize("argv, flag", [
        (["ep-map", "--window", "700", "600"], "--window"),
        (["ep-map", "--window", "0", "600"], "--window"),
        (["ep-map", "--window", "nan", "600"], "--window"),
        (["ep-refine", "--v", "12", "--v-plus", "-1", "--lambda-guess", "636"],
         "--v-plus"),
        (["ep-refine", "--v", "12", "--v-plus", "2", "--lambda-guess", "nan"],
         "--lambda-guess")])
    def test_bad_scan_flag_rejected_before_the_scan(self, tmp_path, capsys,
                                                    monkeypatch, argv, flag):
        # an inverted window used to map nothing and exit 0, a negative
        # --v-plus to be stored in the refined record, and a NaN guess to
        # end in a traceback
        def no_scan(*args, **kwargs):
            raise AssertionError("a scan or refinement ran")

        monkeypatch.setattr(cli, "approximate_eps", no_scan)
        monkeypatch.setattr(cli, "refine_ep", no_scan)
        assert main([*argv, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and flag in err


def numeric_flags():
    """(command, flag, is_int) for each numeric flag of each command."""
    _, subparsers = cli._build_parser()
    return [(name, action.option_strings[0], isinstance(action.type("2"), int))
            for name, sp in subparsers.items() for action in sp._actions
            if action.type is not None]


class TestFlagDomains:
    @pytest.mark.parametrize("command, flag, value", [
        pytest.param(command, flag, value, id=f"{command}{flag}={value}")
        for command, flag, is_int in numeric_flags()
        for value in ("nan", "inf", "-inf") + (("-1",) if is_int else ())])
    def test_value_outside_the_domain_refused_at_parse_time(
            self, tmp_path, capsys, command, flag, value):
        # the value as its own token and joined by "="; --window takes it
        # as LO, with HI 700
        out = tmp_path / "out"
        hi = " 700" if flag == "--window" else ""
        forms = [[flag, value, "700"]] if hi else [[flag, value], [f"{flag}={value}"]]
        for argv in forms:
            assert main([command, *argv, "--out", str(out)]) == 2
            assert capsys.readouterr().err.startswith(f"error: argument {flag}: must be ")

        key = flag[2:]
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}{hi}\n")
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"for key '{key}': must be " in err
        assert not out.exists()

    @pytest.mark.parametrize("argv, dest, value", [
        (["loop", "--d-lambda=-5"], "d_lambda", -5.0),
        (["loop", "--d-lambda", "0"], "d_lambda", 0.0),
        (["loop", "--d-lambda", "-1e-3"], "d_lambda", -1e-3),
        (["levels", "--grid.r-min", "-1e-1"], "grid_r_min", -0.1),
        (["levels", "--lambda-min", "0"], "lambda_min", 0.0),
        (["resonance", "--intensity", "0"], "intensity", 0.0),
        (["resonance", "--v", "0"], "v", 0),
        (["ep-refine", "--v", "0"], "v", 0),
        (["levels", "--vplus-max", "0"], "vplus_max", 0),
        (["ep-map", "--vplus-max", "0"], "vplus_max", 0),
        (["levels", "--grid.r-min", "0"], "grid_r_min", 0.0),
        (["levels", "--grid.r-min=-1"], "grid_r_min", -1.0)])
    def test_edge_values_stay_legal(self, argv, dest, value):
        got = getattr(cli._build_parser()[0].parse_args(argv), dest)
        assert (got, type(got)) == (value, type(value))

    def test_every_numeric_flag_declares_its_domain(self):
        # a bare type=float or type=int would let nan, inf or -1 through
        _, subparsers = cli._build_parser()
        bare = [(name, action.option_strings[0])
                for name, sp in subparsers.items() for action in sp._actions
                if action.type in (float, int)]
        assert bare == []


class TestStartUp:
    @pytest.mark.parametrize("module", ["floqep", "floqep.floquet",
                                        "floqep.bound_states", "floqep.molecule"])
    def test_every_exported_name_exists(self, module):
        mod = importlib.import_module(module)
        assert [n for n in mod.__all__ if not hasattr(mod, n)] == []

    @staticmethod
    def run_fresh(code, *argv, flags=()):
        env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(floqep.__file__)))
        out = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=env,
                             capture_output=True, text=True)
        assert out.returncode == 0, out.stderr[-3000:]
        return out

    @staticmethod
    def importers(importtime, name):
        """The -X importtime lines of ``name`` and of each module that
        imported it in turn, innermost first."""
        chain, depth = [], None
        for line in importtime.splitlines():
            if not line.startswith("import time:") or "|" not in line:
                continue
            mod = line.rsplit("|", 1)[1]
            indent = len(mod) - len(mod.lstrip())
            if depth is None and mod.strip() == name or (
                    depth is not None and indent < depth):
                chain.append(line)
                depth = indent
        return chain

    def test_cli_import_leaves_out_scipy_and_the_pool(self):
        # at start-up the scipy.linalg package costs about 0.3 s and 18 MB,
        # scipy.interpolate 0.1 s and 23 MB, the process pool 25 ms; -W error
        # turns an ImportWarning of the by-path load into a failure
        code = ("import sys, floqep.cli; print(*(m for m in ('scipy', "
                "'scipy.linalg', 'scipy.interpolate', 'concurrent.futures') "
                "if m in sys.modules))")
        out = self.run_fresh(code, flags=("-W", "error", "-X", "importtime"))
        loaded = out.stdout.split()
        assert loaded == [], "\n".join(
            line for m in loaded for line in self.importers(out.stderr, m))

    def test_routines_match_scipy_in_either_import_order(self):
        code = """if 1:
            import sys
            if sys.argv[1] == "scipy-first":
                import scipy.linalg
            from floqep import _lapack, load_molecule
            from floqep.floquet import build_system
            from floqep.molecule import FieldPoint, RadialGrid
            from scipy.linalg import lapack
            system = build_system(load_molecule("h2plus"),
                                  FieldPoint(634.55, 2e12), RadialGrid(), 2)
            d = system.determinant(-0.01 - 1e-4j)
            print(all(getattr(_lapack, n) is getattr(lapack, n)
                      for n in ("dgtsv", "zgbtrf", "zgbtrs")),
                  d.real.hex(), d.imag.hex())"""
        runs = [self.run_fresh(code, order).stdout.split()
                for order in ("floqep-first", "scipy-first")]
        assert runs[0][0] == "True" and runs[0] == runs[1]

    def test_missing_wrapper_file_falls_back_to_scipy_linalg(self):
        from scipy.linalg import lapack
        module = _lapack._flapack("_no_such_module")
        assert module is lapack
        assert module.zgbtrf is _lapack.zgbtrf
