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


def test_no_module_imports_dataclasses_or_typing():
    # each costs every command start-up time: dataclasses loads inspect,
    # ast and dis; records are namedtuples or __slots__ classes instead
    offenders = [f"{path.stem}: {module}" for path in sorted(PACKAGE.glob("*.py"))
                 for module in sorted(_imported_modules(path) & {"dataclasses", "typing"})]
    assert offenders == []


def test_no_module_imports_ast_or_forks():
    # verify solves its ODEs in process, from closed forms and one RK4
    # loop; numpy imports ast itself, so the source is checked here
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if "ast" in _imported_modules(path):
            offenders.append(f"{path.stem}: imports ast")
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.attr if isinstance(node, ast.Attribute)
                    else node.name if isinstance(node, ast.alias) else None)
            if name in ("fork", "forkpty"):
                offenders.append(f"{path.stem}: {name}")
    assert offenders == []


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


# functions and methods of the package that nothing in src/ references, each
# with the reason it stays
UNREFERENCED = {
    "expr.eval_numeric": "perfbench/tracer.py times it (tests/test_bench_contract.py)",
    "detsys.on_shell": "perfbench/tracer.py times it (tests/test_bench_contract.py)",
    "detsys.split_u_dependence": "perfbench/tracer.py times it (tests/test_bench_contract.py)",
    "jet.prolong_coeff_second": "perfbench/tracer.py times it (tests/test_bench_contract.py)",
    "liealg.decompose_field": "perfbench/tracer.py times it (tests/test_bench_contract.py)",
    "detsys.invariance_residual": "the tests' reference for the ring residual",
    "detsys.check_reference_system": "the tests' check of the reference conditions",
    "jet.prolong_coeff_first": "the tests' reference for the first prolongation",
    "reference.rotation_field": "public API: the generator the reference omits",
    "liealg.FlowMap.at": "public API: a flow at a parameter value",
    "liealg.CommutatorTable.closed": "public API: whether the brackets close",
    "numverify.Trajectory.xs": "the benchmark tracer counts RK4 steps by it; the RK4 tests read it",
}


def _functions(tree: ast.Module):
    """(qualified name, name) of every function and method, nested ones too."""
    out = []

    def walk(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                out.append((prefix + child.name, child.name))
                walk(child, prefix + child.name + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, prefix + child.name + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return out


def test_every_function_is_referenced_in_the_package():
    # a reference is a name or an attribute with the function's name
    # anywhere in src/; an import or an __all__ entry is not one, and
    # special methods are called by the language
    functions, referenced = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        functions += [(f"{path.stem}.{q}", name) for q, name in _functions(tree)
                      if not (name.startswith("__") and name.endswith("__"))]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
    unreferenced = {q for q, name in functions if name not in referenced}
    assert sorted(unreferenced - UNREFERENCED.keys()) == []
    # a listed function that gained a reference, or was deleted, leaves the list
    assert sorted(UNREFERENCED.keys() - unreferenced) == []
