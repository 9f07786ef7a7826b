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

DATA_SHA256 = "23e934aa303722e8d2dd50dcd84eb7c9756215fd2ac76a1d6809997103fd005e"

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
        "9178872ee6eff220e6ea7337e4f0fdd7d0744fea853885533c78fcd1b985a36e",
        "f04b4085d1d83c294d02fb21af50484aa7dcd29ae4705e8f8eb9e1921b7dc1e6",
    ),
    ("--mode", "naive"): (
        "b824853c10da97fc0a87d61eb6f39db8b39199d93c57d536ff0ee6922316c8b1",
        "e604387dd4c1c4b570a6a19a2ee6fe21ad91d912cb7aaff897fd354b3b3c90fb",
    ),
    ("--mode", "baseline"): (
        "4a99c7bb59eb89f29e49775580441f9ff8d9e130ab283832b20b2784d5fd0af8",
        "e3a0f8e7636e0003a6373c533672cb2c917f225b9dd39e3c866f6bdb8eab5bd9",
    ),
    ("--mode", "pad", "--noise-profile", "off"): (
        "4d086fb041ce63f829e7cb5bd9c3409297121e7f25cf99395ea35007b6d48887",
        "ca603eaea6d763797906af17d81867f4d8f46fd4ec59869ace1c72a51994c063",
    ),
}

# (extra run flags) -> (results.jsonl sha256, summary sha256) over the
# jitter-free fixture (`GEN_ARGS` with `--jitter 0`). With the noise off,
# `run` reads no normal draw, so a change to the normals alone must keep
# these as well as `GOLDEN_NO_JITTER`.
GOLDEN_NOISE_OFF = {
    ("--mode", "pad"): (
        "6e3cb7ef8035119a10eeb25d5b957243d0e4100e07f987100d4a1f33df08d71f",
        "ca603eaea6d763797906af17d81867f4d8f46fd4ec59869ace1c72a51994c063",
    ),
    ("--mode", "naive"): (
        "87dac52a681d2aff5795b93c25a7d955ea1f061bcb9ae72806a4ff476b6e7186",
        "80749c521f436e40fe008954604b72dd284963bbdf4501b3fb25cf6852b3d481",
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


@pytest.fixture(scope="module")
def still_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden-still")
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(root)
        assert main([*GEN_ARGS, "--jitter", "0"]) == 0
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


@pytest.mark.parametrize("flags", list(GOLDEN_NOISE_OFF), ids=lambda f: f[1])
def test_noise_off_run_without_jitter_matches_pinned_hashes(
    flags, still_dataset, monkeypatch, capsys
):
    monkeypatch.chdir(still_dataset)
    argv = ["run", "data.jsonl", "--seed", "7", "--out", "out.jsonl", "--noise-profile", "off"]
    assert main([*argv, *flags]) == 0
    capsys.readouterr()
    got = (_sha256(still_dataset / "out.jsonl"), _sha256(still_dataset / "out.summary.json"))
    assert got == GOLDEN_NOISE_OFF[flags]
