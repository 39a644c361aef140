"""The README's API quick start runs as written, its command lines parse,
and its model descriptors load."""

import pathlib
import re
import shlex

import pytest

from floqep import cli
from floqep.floquet import build_system
from floqep.molecule import FieldPoint, load_molecule

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def quick_start_blocks():
    """The ```python blocks of the "Quick start (API)" section, in order."""
    section = README.read_text().split("## Quick start (API)", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```python\n(.*?)```", section, re.S)


def test_quick_start_runs():
    blocks = quick_start_blocks()
    assert len(blocks) == 2
    namespace = {}
    for code in blocks:
        exec(compile(code, str(README), "exec"), namespace)
    assert (namespace["traj"].v_start, namespace["traj"].v_end) == (12, 13)


def command_lines():
    """The ``floqep`` lines of the README's ```sh blocks, with backslash
    continuations joined and ``#`` comments stripped."""
    lines = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        for line in block.replace("\\\n", " ").splitlines():
            line = line.split("#", 1)[0].strip()
            if line.startswith("floqep "):
                lines.append(line)
    return lines


def test_command_lines_parse():
    lines = command_lines()
    assert len(lines) == 8
    parser, _ = cli._build_parser()
    for line in lines:
        try:
            parser.parse_args(shlex.split(line)[1:])
        except SystemExit:
            pytest.fail(f"README command line does not parse: {line}")


def test_common_flags_exist_on_every_command():
    sentence = re.split(r"\.\s", README.read_text().split("Common flags:", 1)[1], 1)[0]
    flags = re.findall(r"`(--[\w.-]+)`", sentence)
    assert "--model" in flags and "--grid.ecs-angle" in flags
    _, subparsers = cli._build_parser()
    assert len(subparsers) == 7
    for name, sp in subparsers.items():
        missing = [f for f in flags if f not in sp._option_string_actions]
        assert not missing, f"{name} lacks common flag(s) {missing}"


def descriptor_examples():
    """The ```ini blocks of the "Model descriptors" section, in order."""
    section = README.read_text().split("## Model descriptors", 1)[1]
    section = section.split("\n## ", 1)[0]
    return re.findall(r"```ini\n(.*?)```", section, re.S)


def test_descriptor_examples_load(tmp_path):
    # the bundled tables stand in for the example's ground.tsv / upper.tsv
    data = pathlib.Path(cli.__file__).parent / "data"
    blocks = descriptor_examples()
    assert len(blocks) == 2
    names = []
    for i, text in enumerate(blocks):
        text = (text.replace("ground.tsv", str(data / "h2p_1ssg.tsv"))
                .replace("upper.tsv", str(data / "h2p_2psu.tsv")))
        path = tmp_path / f"example{i}.model"
        path.write_text(text)
        model = load_molecule(str(path))
        build_system(model, FieldPoint(600.0, 1e12))   # tails reach the corner
        names.append(model.name)
    assert names == ["mymol", "mymol-analytic"]
