"""Byte-stability guard for the files the CLI writes: ``gen`` and
``preprocess`` datasets, ``run`` and ``sweep`` result files and ``report``
summaries.

Each case writes a small file and compares its SHA-256 digest with the
digest recorded here.  A refactor must
leave every digest unchanged.  A change that intentionally alters the draws
(the RNG stream layout, the noise calibration or the arithmetic of an
iteration) must update the affected digests and name the changed draws in
CHANGES.md.
"""

import hashlib

import numpy as np
import pytest
from click.testing import CliRunner

from dpem.cli import cli

DATASET = "818291cbd2223c1b310f362dd77c473798509db57ccb84254731374e9a029c4a"

# the other dataset layouts: mrm (x1..xd,y) and rmc with empty missing cells
GEN = {
    "mrm": (["--model", "mrm"],
            "a7f5f82b6bdcb4c7a6ae9428b3458e2c4eda77de6ba091829e3583a2b21a693a"),
    "rmc": (["--model", "rmc", "--p-m", "0.2"],
            "aaee5642d8e0f301dc5c94a12ee05994a6ef0d5cb96fc44b96163d6470637c4a"),
}

# every layout at 2500 rows: three blocks of gen's sampling and writing
GEN_BLOCKS = {
    "gmm": ([], "1cb08b31a70bd257ddfb466ec3b3086fd45df4ba09f1ed324b0cf0d849f2296a"),
    "mrm": (["--model", "mrm"],
            "0b1991f1abef5b06ff87ca13c7a0f0fcb5d8e6db7fb9b530cc26d5b9f2ff9746"),
    "rmc": (["--model", "rmc", "--p-m", "0.2"],
            "94ab320261216b2a12b6794edd6a26547d9b5827e589e7a14d6d05833e839135"),
}

# report of the pinned run files of these algorithms (em leaves eps, delta
# and C empty; clipped fills all three)
REPORTS = {
    "em": "368be6affbeed778c00a78d9ff6100f7868a9d755dfe096ab83323d8c57318a2",
    "clipped": "0f5109e025b4e55c5a41c145686d0a3431757356ae88a8713308a659a34eb233",
}

PREPROCESSED = "669d2396f2fe09160d1a646ea2a4474a99f27d20cf5ce882683b13c54c59d4fb"

RUNS = {
    "em": "ae12e9c61a691030ca0789699ac1910bcb991a74b9f8145fac3bc861e9290644",
    "clipped": "2841f43859ea9d6aeff54358e7089eb8e1a94297972590a628f7eddbcbacd549",
    "dpgem": "d91092e7405b05f5d0aae11c7c1300e9df98f4e7355da2bee277c7b26790d619",
    "dpem": "781e741d37d5f7440d2042b0cd446de8e0858a213930b6505df88a04e71bea8a",
}

# runs over the pinned rmc gen file, whose missing covariates are empty cells
RMC_RUNS = {
    "em": "a2e5b1a30339d4c97f2bfa7c52758e74ec21ce9775ae86e8c7464cd5e2067bbc",
    "clipped": "d041d02787a3a67ee07c43110eb641da59b6b7da050057b49a3b67e0936c4dc5",
}

SWEEPS = {
    "em-rmc": (
        ["--model", "rmc", "--p-m", "0.2", "--algorithm", "em", "--iters", "4"],
        "538e0f03949392cd1820c3f28d69badffe822330f396700ccdfe6dcb8fff91c4"),
    "clipped-mrm": (
        ["--model", "mrm", "--algorithm", "clipped", "--eps-list", "0.5,1",
         "--clip-list", "0.5,1", "--threads", "2"],
        "1fb90ce19a3a6e8e5aaf4defa6c624d48519e7552ce0c2859404beb0c085182d"),
    "dpgem-mrm": (
        ["--model", "mrm", "--algorithm", "dpgem", "--eps-list", "0.5,1",
         "--d-list", "2,3"],
        "7edd80ea2c95be691acb53dfc80edff6eaa363ee8ad22c5acf66341cd987bcfa"),
    "dpgem-gmm-no-noise": (
        ["--algorithm", "dpgem", "--eps-list", "1", "--unsafe-no-noise"],
        "715c8b8bee8e9c409ae53ebbee14f924f116e2e5a163eb07695b42e3cbc8f3e4"),
    "dpem-gmm": (
        ["--algorithm", "dpem", "--eps-list", "0.5", "--tau", "9", "--threads", "2"],
        "a4e399a7849c20c55e30e666f7f41e978a1bac5b9ab521706942df63d9f7f475"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(*args):
    result = CliRunner().invoke(cli, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("byte_stability") / "gmm.csv"
    invoke("gen", "--n", 150, "--d", 3, "--seed", 5, "--out", path)
    return path


def test_dataset_digest(dataset):
    assert sha256(dataset) == DATASET


@pytest.mark.parametrize("model", sorted(GEN))
def test_gen_digest(tmp_path, model):
    args, digest = GEN[model]
    out = tmp_path / f"{model}.csv"
    invoke("gen", "--n", 150, "--d", 3, "--seed", 5, *args, "--out", out)
    assert sha256(out) == digest


@pytest.mark.parametrize("model", sorted(GEN_BLOCKS))
def test_multi_block_gen_digest(tmp_path, model):
    args, digest = GEN_BLOCKS[model]
    out = tmp_path / f"{model}.csv"
    invoke("gen", "--n", 2500, "--d", 3, "--seed", 5, *args, "--out", out)
    assert sha256(out) == digest


def test_preprocess_digest(tmp_path):
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 2, size=60)
    feats = (2 * labels - 1)[:, None] * np.array([1.5, -0.5]) + rng.standard_normal((60, 2))
    labeled = tmp_path / "labeled.csv"
    labeled.write_text("f1,f2,label\n" + "".join(
        f"{a!r},{b!r},{lab}\n" for (a, b), lab in zip(feats.tolist(), labels.tolist())))
    out = tmp_path / "gmm.csv"
    invoke("preprocess", "--data", labeled, "--out", out)
    assert sha256(out) == PREPROCESSED


@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_run_digest(dataset, tmp_path, algorithm):
    out = tmp_path / "run.csv"
    invoke("run", "--algorithm", algorithm, "--data", dataset, "--seed", 3,
           "--n-seeds", 2, "--out", out)
    assert sha256(out) == RUNS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(RMC_RUNS))
def test_rmc_run_digest(tmp_path, algorithm):
    args, digest = GEN["rmc"]
    data, out = tmp_path / "rmc.csv", tmp_path / "run.csv"
    invoke("gen", "--n", 150, "--d", 3, "--seed", 5, *args, "--out", data)
    assert sha256(data) == digest
    invoke("run", "--algorithm", algorithm, "--data", data, "--seed", 3,
           "--n-seeds", 2, "--out", out)
    assert sha256(out) == RMC_RUNS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(REPORTS))
def test_report_digest(dataset, tmp_path, algorithm):
    runs, out = tmp_path / "run.csv", tmp_path / "summary.csv"
    invoke("run", "--algorithm", algorithm, "--data", dataset, "--seed", 3,
           "--n-seeds", 2, "--out", runs)
    assert sha256(runs) == RUNS[algorithm]
    invoke("report", "--data", runs, "--out", out)
    assert sha256(out) == REPORTS[algorithm]


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_digest(tmp_path, case):
    args, digest = SWEEPS[case]
    out = tmp_path / "sweep.csv"
    invoke("sweep", "--n-list", 200, "--n-seeds", 2, "--seed", 4, *args, "--out", out)
    assert sha256(out) == digest
