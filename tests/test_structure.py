"""Import structure: the simulated detector is a leaf that only the CLI
imports, no import cycle is hidden behind TYPE_CHECKING, the package root
re-exports nothing, no module imports a name it does not use, each run
result and packing plan is built only by the module that defines it, the
packer's fit test builds no rect, slot or plan, no command needs numpy,
and no command loads a module it does not use."""

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


def test_no_command_needs_numpy(tmp_path):
    ann = str(tmp_path / "ann.jsonl")
    commands = [
        ["gen", "--videos", "3", "--frames", "12", "--seed", "5", "--out", ann],
        ["run", ann, "--out", str(tmp_path / "r.jsonl")],
        ["stats", ann, "--out-dir", str(tmp_path / "stats")],
    ]
    # The commands run twice: first where numpy can be imported, so that
    # a fallback import would load it, then with a None entry in
    # sys.modules, which makes every import of numpy raise.
    code = (
        "import sys\n"
        "from roipack.cli import main\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
        "assert 'numpy' not in sys.modules\n"
        "sys.modules['numpy'] = None\n"
        f"for argv in {commands!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    # Under -X dev every warning shows; a DeprecationWarning, such as the one
    # Python 3.12 gives for forking a process that has started threads,
    # fails the run.
    result = subprocess.run(
        [sys.executable, "-X", "dev", "-W", "error::DeprecationWarning", "-c", code],
        capture_output=True, text=True, env=env,
    )
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "r.jsonl").stat().st_size > 0
    assert (tmp_path / "stats" / "stats_summary.json").is_file()


def test_commands_load_only_the_modules_they_use(tmp_path):
    ann = str(tmp_path / "ann.jsonl")
    commands = {
        "gen": ["gen", "--videos", "2", "--frames", "12", "--out", ann],
        "run": ["run", ann, "--out", str(tmp_path / "r.jsonl")],
        "stats": ["stats", ann, "--out-dir", str(tmp_path / "stats")],
    }
    # `dataclasses` would load `inspect`, `ast`, `dis` and `tokenize`, about
    # 1 MB of RSS, and `stats` with its `csv` serves one command. What
    # `site` loaded before the command is not counted.
    unwanted = {
        "gen": {"dataclasses", "inspect", "roipack.stats", "csv"},
        "run": {"dataclasses", "inspect", "roipack.stats", "csv"},
        "stats": {"dataclasses", "inspect"},
    }
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    for name, argv in commands.items():
        code = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "from roipack.cli import main\n"
            f"assert main({argv!r}) == 0\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        loaded = set(result.stdout.split())
        assert "roipack.cli" in loaded
        assert loaded & unwanted[name] == set(), name


def test_only_the_cli_imports_the_simulator():
    importers = {name for name, tree in parsed_modules().items() if "simdet" in imported_modules(tree)}
    assert importers == {"cli"}


def test_no_module_names_type_checking():
    naming = [name for name, tree in parsed_modules().items() if "TYPE_CHECKING" in identifiers(tree)]
    assert naming == []


def test_package_root_reexports_nothing():
    tree = parsed_modules()["__init__"]
    assert not [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]


def test_every_imported_name_is_used():
    unused = []
    for name, tree in parsed_modules().items():
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused.extend(f"{name}: {imported_name}" for imported_name in sorted(imported - used))
    assert unused == []


def called_names(tree: ast.AST) -> set[str]:
    return {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }


def test_run_results_are_built_only_where_they_are_defined():
    owners = {
        "EvalReport": "evaluation",
        "CostReport": "costmodel",
        "VideoRun": "pipeline",
        "PackPlan": "packing",
        "PackSlot": "packing",
    }
    builders = {
        (called, name)
        for name, tree in parsed_modules().items()
        for called in called_names(tree)
        if called in owners
    }
    assert builders == set(owners.items())


def test_the_fit_test_builds_no_rect_slot_or_plan():
    functions = {
        node.name: node
        for node in parsed_modules()["packing"].body
        if isinstance(node, ast.FunctionDef)
    }
    for name in ("place_and_fit", "_flush"):
        assert called_names(functions[name]) & {"Rect", "PackSlot", "PackPlan"} == set(), name
