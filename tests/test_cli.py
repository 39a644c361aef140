"""End-to-end checks of the command-line driver.

Commands run in-process through cli.main so exit codes, stdout summaries,
and emitted files can all be asserted cheaply.  The heavier workflows
(coalescence map, loops) reuse the weak-field settings pinned down in the
engine test modules.
"""

import csv
import json
import xml.etree.ElementTree as ET

import pytest

import floqep
from floqep import loops
from floqep.cli import main
from floqep.errors import ConvergenceError
from floqep.ep import records_from_csv

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

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_non_positive_lambda_step_rejected(self, tmp_path, capsys, step):
        assert main(["levels", "--out", str(tmp_path),
                     "--lambda-min", "500", "--lambda-max", "600",
                     "--lambda-step", step]) == 2
        assert "--lambda-step must be positive" in capsys.readouterr().err
        assert not (tmp_path / "levels.json").exists()

    def test_curve_scan_and_svg(self, tmp_path):
        assert main(["levels", "--out", str(tmp_path),
                     "--lambda-min", "500", "--lambda-max", "600",
                     "--lambda-step", "50", "--vplus-max", "1"]) == 0
        rows = read_csv(tmp_path / "well_curves.csv")
        assert {r["lambda_nm"] for r in rows} == {"500", "550", "600"}
        assert all(int(r["v_plus"]) <= 1 for r in rows)
        ET.parse(tmp_path / "levels.svg")


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

    def test_missing_required_flags(self, tmp_path, capsys):
        assert main(["resonance", "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "missing required" in err and "--wavelength" in err


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


class TestLoopCommand:
    def test_weak_loop_outputs(self, tmp_path, capsys):
        eps = tmp_path / "eps.csv"
        eps.write_text("pair,lambda_nm,intensity_1e13Wcm2,gap_residual\n"
                       "12-13,500,0.01,1e-09\n")
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
