"""Packaging hygiene: every third-party module the tests import is declared
in pyproject.toml, every name a module exports resolves, and no module of
the package imports a name it never uses."""

import ast
import importlib
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "wavesym"


def _imported_modules(path: Path) -> set:
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            out.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            out.add(node.module.split(".")[0])
    return out


def test_test_extra_declares_the_test_imports():
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {
        re.match(r"[\w.-]+", req).group()
        for req in project["dependencies"] + project["optional-dependencies"]["test"]
    }
    tests = sorted((ROOT / "tests").glob("*.py"))
    local = {p.stem for p in tests} | {"wavesym"}
    imported = set().union(*map(_imported_modules, tests))
    third_party = imported - local - set(sys.stdlib_module_names)
    assert {"pytest", "hypothesis"} <= third_party
    assert third_party <= declared


def _exports(tree: ast.Module):
    """The literal ``__all__`` of a module, or None."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    return None


def test_every_exported_name_resolves():
    missing = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = _exports(ast.parse(path.read_text()))
        if names is not None:
            module = importlib.import_module(f"wavesym.{path.stem}")
            missing += [f"{path.stem}.{n}" for n in names if not hasattr(module, n)]
    assert missing == []


def test_no_module_imports_a_name_it_never_uses():
    # the package's __init__ imports names to re-export them
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        used.update(_exports(tree) or ())
        unused += [f"{path.stem}: {name}" for name in sorted(imported - used)]
    assert unused == []
