"""Pinned outputs of `roipack gen` and of `roipack run` on a small fixed
dataset.

A change that is meant to keep behaviour must keep these hashes. The
annotations path is relative because `run` copies it into the summary.
The fixture's own hash shows a change to `gen` as a change to `gen`, not
only through `run`'s outputs.
"""

import hashlib

import numpy as np
import pytest

from roipack.cli import main

GEN_ARGS = ["gen", "--videos", "6", "--frames", "30", "--seed", "7", "--out", "data.jsonl"]

DATA_SHA256 = "148801b9a2957d110d4e53f82ee68b2ee47a207b00a8142ffdae50759f10839a"

# (extra gen flags) -> data.jsonl sha256, with the motion jitter off. These
# outputs use every draw of `gen` but the jitter, so a change to the jitter
# draws alone must keep them.
GOLDEN_NO_JITTER = {
    (): "13d52a3d2a1371822c0d01e661823ee68cd70320f0ff4e0c8e61276467b2884f",
    ("--min-objects", "4", "--max-objects", "8", "--occupancy", "0.35"): (
        "4c4e009ecb8c21418ebe3c0842155820d9c836db71a430592960d7dc519a8df8"
    ),
}

# (extra run flags) -> (results.jsonl sha256, summary sha256)
GOLDEN = {
    ("--mode", "pad"): (
        "8e6a98d8f44b82e71107bbb2062928b7fde327c3f8b0114384031dbb977b663c",
        "7cb56790d7cc0bc6f23cad6a615302dcb00aa3b67e48639738259e5d60620a9f",
    ),
    ("--mode", "naive"): (
        "f850f182d2d70a81829eb2aa0bfe55a2fb2a4043195c29b3a248278d9f9a0154",
        "b556e854595f63d73b9ff07fa461658f691cf3051a7dcda23776c8d5d89282c8",
    ),
    ("--mode", "baseline"): (
        "860842a244c2271a9e54804685b6c3e48d7b1ee551ebfb3862400fbe2f372c54",
        "e3a0f8e7636e0003a6373c533672cb2c917f225b9dd39e3c866f6bdb8eab5bd9",
    ),
    ("--mode", "pad", "--noise-profile", "off"): (
        "5ea971c2f0b4283c6bdc04819945a447857328a5770236ddd021877bc08fb5ed",
        "ca603eaea6d763797906af17d81867f4d8f46fd4ec59869ace1c72a51994c063",
    ),
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main(GEN_ARGS) == 0
    return root


def test_fixture_matches_pinned_hash(dataset):
    assert _sha256(dataset / "data.jsonl") == DATA_SHA256


@pytest.mark.parametrize("flags", list(GOLDEN_NO_JITTER), ids=["default", "crowded"])
def test_gen_without_jitter_matches_pinned_hash(flags, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main([*GEN_ARGS, "--jitter", "0", *flags]) == 0
    capsys.readouterr()
    assert _sha256(tmp_path / "data.jsonl") == GOLDEN_NO_JITTER[flags]


@pytest.mark.parametrize("flags", list(GOLDEN), ids=lambda f: "-".join(f[1::2]))
def test_run_outputs_match_pinned_hashes(flags, dataset, monkeypatch, capsys):
    monkeypatch.chdir(dataset)
    assert main(["run", "data.jsonl", "--seed", "7", "--out", "out.jsonl", *flags]) == 0
    capsys.readouterr()
    got = (_sha256(dataset / "out.jsonl"), _sha256(dataset / "out.summary.json"))
    assert got == GOLDEN[flags], (
        f"golden output changed for run {' '.join(flags)} (numpy {np.__version__}); "
        "a different numpy can change the Generator stream without any code change"
    )
