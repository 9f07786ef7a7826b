"""Pinned outputs of `roipack run` on a small fixed dataset.

A change that is meant to keep behaviour must keep these hashes. The
annotations path is relative because `run` copies it into the summary.
"""

import hashlib

import numpy as np
import pytest

from roipack.cli import main

GEN_ARGS = ["gen", "--videos", "6", "--frames", "30", "--seed", "7", "--out", "data.jsonl"]

# (extra run flags) -> (results.jsonl sha256, summary sha256)
GOLDEN = {
    ("--mode", "pad"): (
        "3ccc40ff489b372463ccfe530684d07a1e63dfd3d803766d90ab7e1edb101cd6",
        "b2df295447ea18577a8869534c45d6128ae285d99aeeb31fbb8d8b2f5de87b45",
    ),
    ("--mode", "naive"): (
        "d8469c1f0cf595ea23b9c0b1c03baa89443bd18578299d83a34e99d2fcd5f2f3",
        "360c38d8d318716fb441e01e90e6af3865598ed01e5a7aa8763fed7414e74264",
    ),
    ("--mode", "baseline"): (
        "3b6350a106341a8607d3ffd42d0a0db2905a25a4c16c57f9bca2a6527fd2e700",
        "e3a0f8e7636e0003a6373c533672cb2c917f225b9dd39e3c866f6bdb8eab5bd9",
    ),
    ("--mode", "pad", "--noise-profile", "off"): (
        "41a88fe24e53428c4a088655943b43acd43f3098309d2bec24e08cd60e70e94a",
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
