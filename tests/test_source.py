"""Static checks on the library source."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import shotpricer

_SOURCES = sorted(Path(shotpricer.__file__).parent.glob("*.py"))
_MODULES = [p for p in _SOURCES if p.name != "__init__.py"]
_TESTS = sorted(Path(__file__).parent.glob("*.py"))


def _imported_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
    return names


def _exported_names(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize(
    "path",
    _MODULES + _TESTS,
    ids=[p.name for p in _MODULES] + [f"tests/{p.name}" for p in _TESTS],
)
def test_no_unused_imports(path):
    # no linter is installed; an import that is neither used nor re-exported
    # through __all__ is dead, in the library and in its tests alike
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = _imported_names(tree) - used - _exported_names(tree)
    assert not unused, f"{path.name} imports {sorted(unused)} without using them"


def _environment_reads(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names |= {a.name for a in node.names if a.name in ("environ", "getenv")}
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            names.add(node.attr)
    return names


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_no_environment_switches(path):
    # the library has no hidden settings: behaviour follows from arguments
    # and config files, never from environment variables
    tree = ast.parse(path.read_text(), filename=str(path))
    found = _environment_reads(tree)
    assert not found, f"{path.name} reads os.{sorted(found)}"


def _private_definitions(node: ast.stmt) -> set[str]:
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = {node.name}
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = {t.id for t in targets if isinstance(t, ast.Name)}
    else:
        names = set()
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def _references(node: ast.AST) -> set[str]:
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.ImportFrom):
            names |= {alias.name for alias in sub.names}
    return names


def test_no_orphaned_private_names():
    # a private top-level name that nothing in the package reads, outside its
    # own definition, is a helper or constant left over from a refactor
    nodes = [(p.name, node) for p in _SOURCES for node in ast.parse(p.read_text()).body]
    refs = [_references(node) for _, node in nodes]
    orphans = [
        f"{module}: {name}"
        for i, (module, node) in enumerate(nodes)
        for name in _private_definitions(node)
        if not any(name in r for j, r in enumerate(refs) if j != i)
    ]
    assert not orphans, f"private names nothing reads: {orphans}"


def test_import_loads_no_heavy_scipy_modules():
    # importing the package and its CLI loads only scipy.special: a
    # scipy.integrate or scipy.stats import pulls in scipy.optimize and adds
    # about 0.2 s to every start-up
    code = (
        "import sys, shotpricer, shotpricer.cli; "
        "print(' '.join(m for m in sys.modules if m.startswith('scipy.')))"
    )
    src = str(Path(shotpricer.__file__).parent.parent)
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONPATH": src},
    ).stdout.split()
    public = {m.split(".")[1] for m in out if not m.split(".")[1].startswith("_")}
    assert public <= {"special", "version"}, f"import loads scipy modules {sorted(public)}"
