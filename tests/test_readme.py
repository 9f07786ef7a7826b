import re
import shlex
from pathlib import Path

import pytest

from roipack.cli import main

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text()
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
QUICK_START = re.search(r"^## Quick start\n.*?^```\n(.*?)^```", TEXT, re.M | re.S).group(1)


def _transcript(block):
    """(argv, expected stdout lines) for each `$ roipack ...` command."""
    steps = []
    for line in block.splitlines():
        if line.startswith("$ "):
            command = shlex.split(line[2:])
            assert command[0] == "roipack"
            steps.append((command[1:], []))
        elif line:
            steps[-1][1].append(line)
    return steps


def test_readme_has_python_blocks():
    assert BLOCKS


@pytest.mark.parametrize("index", range(len(BLOCKS)))
def test_readme_python_block_runs(index, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    exec(compile(BLOCKS[index], f"README.md python block {index}", "exec"), {})


def test_readme_quick_start_transcript(tmp_path, monkeypatch, capsys):
    steps = _transcript(QUICK_START)
    assert [argv[0] for argv, _ in steps] == ["gen", "run", "stats"]
    monkeypatch.chdir(tmp_path)
    for argv, expected in steps:
        assert main(argv) == 0
        assert capsys.readouterr().out.splitlines() == expected, argv
