"""Every imported name is used: an import that nothing references is left
over from a refactor.  Parsed with ``ast``, so no linter is needed; an
import kept for its side effect says so with ``# noqa: F401``."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted([*(ROOT / "src" / "floqep").glob("*.py"), *(ROOT / "tests").glob("*.py")])


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that it never references;
    a name listed in ``__all__`` counts as referenced."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if getattr(node, "module", None) == "__future__":
                continue
            if "# noqa: F401" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("path", FILES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_a_leftover_import():
    source = ("from .floquet import build_system, extrapolate  # the walk\n"
              "from . import _lapack  # noqa: F401\n"
              "import os.path\n"
              "__all__ = ['helper']\n"
              "from .x import helper\n"
              "build_system(os.sep)\n")
    assert unused_imports(source) == ["extrapolate (line 1)"]
