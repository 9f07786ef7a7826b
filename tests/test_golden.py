"""Pinned outputs of `roipack gen` and of `roipack run` on a small fixed
dataset.

A change that is meant to keep behaviour must keep these hashes. The
annotations path is relative because `run` copies it into the summary.
The fixture's own hash shows a change to `gen` as a change to `gen`, not
only through `run`'s outputs.
"""

import hashlib

import pytest

from roipack.cli import main

GEN_ARGS = ["gen", "--videos", "6", "--frames", "30", "--seed", "7", "--out", "data.jsonl"]

DATA_SHA256 = "458f50f817fe7eb6c14e6878802606c96e240dceeb07394d96503e37c8f31761"

# (extra gen flags) -> data.jsonl sha256, with the motion jitter off. These
# outputs use every draw of `gen` but the jitter, so a change to the jitter
# draws alone must keep them.
GOLDEN_NO_JITTER = {
    (): "0448b6f950091ff6378972756919d7a1b4c705d52902b1f48889f745f3db863e",
    ("--min-objects", "4", "--max-objects", "8", "--occupancy", "0.35"): (
        "f42c7cfd3a3d96bb834664ddfcd4bf3a509cb21718fdc6e51e61df98c65f906f"
    ),
}

# (extra run flags) -> (results.jsonl sha256, summary sha256)
GOLDEN = {
    ("--mode", "pad"): (
        "b23a3d78436085b37d6b1e8bc0215e8949146000d0c4499bebdaab7a38f9ae09",
        "6704ac97f5a06b3e045e8794916e8fe5270c73127cdcf764903bd0cb96168bb2",
    ),
    ("--mode", "naive"): (
        "d6cb21cc0006c85ac3813da948ad563bd8c93b05f053349cec34293a68547590",
        "abb546882bd096eb070e9585208e442cc84d379495f5477130b8c1abe0faaeab",
    ),
    ("--mode", "baseline"): (
        "21e3b3b95aea9a73f252c3396fec78a03e2ccfeb03804f94e1d00a36eed6d36e",
        "e3a0f8e7636e0003a6373c533672cb2c917f225b9dd39e3c866f6bdb8eab5bd9",
    ),
    ("--mode", "pad", "--noise-profile", "off"): (
        "f5bff36e099c403e26c3bc2fc29a03ddcaeafb180eca664c1e59f4551de07639",
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
    assert got == GOLDEN[flags]
