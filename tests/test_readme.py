"""The README's API quick start runs as written."""

import pathlib
import re

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
