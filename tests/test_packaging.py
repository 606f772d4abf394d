"""Every third-party module the tests import is declared in pyproject.toml."""

import ast
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


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
