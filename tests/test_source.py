"""Static checks on the library source."""

import ast
from pathlib import Path

import pytest

import shotpricer

_MODULES = sorted(
    p for p in Path(shotpricer.__file__).parent.glob("*.py") if p.name != "__init__.py"
)


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


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_no_unused_imports(path):
    # no linter is installed; an import that is neither used nor re-exported
    # through __all__ is dead
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
