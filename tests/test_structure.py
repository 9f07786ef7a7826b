"""Import structure: the simulated detector is a leaf that only the CLI
imports, no import cycle is hidden behind TYPE_CHECKING, and the package
root re-exports nothing."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import roipack

PACKAGE = Path(roipack.__file__).parent


def parsed_modules() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def imported_modules(tree: ast.Module) -> set[str]:
    """Package modules a module imports; the package imports its own
    modules relatively."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            out.update([node.module] if node.module else [a.name for a in node.names])
    return out


def identifiers(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name


@pytest.mark.parametrize("module", ["formats", "evaluation", "stats", "pipeline", "costmodel"])
def test_core_modules_do_not_load_the_simulator(module):
    code = f"import sys, roipack.{module}; print('roipack.simdet' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    )
    assert result.stdout.strip() == "False"


def test_only_the_cli_imports_the_simulator():
    importers = {name for name, tree in parsed_modules().items() if "simdet" in imported_modules(tree)}
    assert importers == {"cli"}


def test_no_module_names_type_checking():
    naming = [name for name, tree in parsed_modules().items() if "TYPE_CHECKING" in identifiers(tree)]
    assert naming == []


def test_package_root_reexports_nothing():
    tree = parsed_modules()["__init__"]
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
