"""Every private module-level name of the package is read in its own
module: a ``_CONSTANT``, ``_function`` or ``_Class`` that nothing there
reads is left over from a refactor.  Parsed with ``ast``, like the import
guard in test_imports.py."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted((ROOT / "src" / "floqep").glob("*.py"))


def unread_private_names(source: str) -> list[str]:
    """Private names that ``source`` binds at module level by an assignment,
    a ``def`` or a ``class`` and never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                bound.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [f"{name} (line {line})" for name, line in sorted(bound.items())
            if name not in read]


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.name)
def test_every_private_name_is_read(path):
    assert unread_private_names(path.read_text()) == []


def test_the_guard_sees_a_leftover_name():
    source = ("__all__ = ['step']\n"
              "_MAX_JUMP = 5e-4\n"
              "_ACCEPT_FLOOR: float = 1e-4\n"
              "_LO, _HI = 0.0, 1.0\n"
              "class _Box:\n"
              "    pass\n"
              "def _unused(jump=_Box):\n"
              "    return jump\n"
              "def step(x):\n"
              "    return _Box() if _LO < x < _ACCEPT_FLOOR else None\n")
    assert unread_private_names(source) == [
        "_HI (line 4)", "_MAX_JUMP (line 2)", "_unused (line 7)"]
