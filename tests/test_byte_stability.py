"""Byte-stability guard for the files the CLI writes: ``gen`` and
``preprocess`` datasets, ``run`` and ``sweep`` result files and ``report``
summaries.

Each case writes a small file and compares its SHA-256 digest with the
digest recorded here.  A refactor must
leave every digest unchanged.  A change that intentionally alters the draws
(the RNG stream layout, the noise calibration or the arithmetic of an
iteration) must update the affected digests and name the changed draws in
CHANGES.md.  The whole set is also computed in fresh interpreters under other
OpenBLAS kernels and at two BLAS threads, and must not move there.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

import dpem
from dpem.cli import cli

DATASET = "818291cbd2223c1b310f362dd77c473798509db57ccb84254731374e9a029c4a"

# the other dataset layouts: mrm (x1..xd,y) and rmc with empty missing cells
GEN = {
    "mrm": (["--model", "mrm"],
            "9a076cbf34b6d73ddeec9f60eaba40dd4af2676b55e2ffa7f03c12a17bf8c7ba"),
    "rmc": (["--model", "rmc", "--p-m", "0.2"],
            "9a7d8cecfe2272762c978192eda8a9635b9c502466869bdcc2d2b0cad5125e29"),
}

# every layout at 2500 rows: three blocks of gen's sampling and writing
GEN_BLOCKS = {
    "gmm": ([], "1cb08b31a70bd257ddfb466ec3b3086fd45df4ba09f1ed324b0cf0d849f2296a"),
    "mrm": (["--model", "mrm"],
            "d7566f5708c10a7aebbbb5c2b4b99ef77fd0a81d3c51fa9c2556ad9df00cf8d2"),
    "rmc": (["--model", "rmc", "--p-m", "0.2"],
            "41270da974c8638337e378af1090d5ab5886f4c68fe85c5500a0bfc143bc9f8e"),
}

# report of the pinned run files of these algorithms (em leaves eps, delta
# and C empty; clipped fills all three)
REPORTS = {
    "em": "caf36bc721a8a1374b1ecac6f0a27b3c11416e98df4411c73a1ca265428d2514",
    "clipped": "58513f475fa22e959dafd96819437f7afd38be79f306129801f7375e1a969946",
}

PREPROCESSED = "669d2396f2fe09160d1a646ea2a4474a99f27d20cf5ce882683b13c54c59d4fb"

RUNS = {
    "em": "21d04a070162dd6af80b38bbab23350886533cdd127547a37d0f22c2da582051",
    "clipped": "c54b75385bca22a40423d94ae2530f3ab09524af1c77c15eef5a77145610ec74",
    "dpgem": "d91092e7405b05f5d0aae11c7c1300e9df98f4e7355da2bee277c7b26790d619",
    "dpem": "781e741d37d5f7440d2042b0cd446de8e0858a213930b6505df88a04e71bea8a",
}

# runs over the pinned rmc gen file, whose missing covariates are empty cells
RMC_RUNS = {
    "em": "200ce491a2fbbb09fd85a531f40493a8d33afc0a97df7eda2e113884129c7845",
    "clipped": "2926c4d6fd11efc8394791dbdfe4ac63e3caf4c8e07fe949dfba64d7f309f1d1",
}

SWEEPS = {
    "em-rmc": (
        ["--model", "rmc", "--p-m", "0.2", "--algorithm", "em", "--iters", "4"],
        "f74369405cf98c7013b4f1a88ad50aa5fc89ee587f57164b38d881dce133727c"),
    "clipped-mrm": (
        ["--model", "mrm", "--algorithm", "clipped", "--eps-list", "0.5,1",
         "--clip-list", "0.5,1", "--threads", "2"],
        "d07c932d4cfac8c808385d8d243b94cab3ff54c7b671ac21f240e963bcca4722"),
    "dpgem-mrm": (
        ["--model", "mrm", "--algorithm", "dpgem", "--eps-list", "0.5,1",
         "--d-list", "2,3"],
        "d741b08f7160dfb1e25f8484872f742a62edc62757bbb6bc50db99e18ffd7943"),
    "dpgem-gmm-no-noise": (
        ["--algorithm", "dpgem", "--eps-list", "1", "--unsafe-no-noise"],
        "2fadfc492645a06db7fc697ab6e1ca810e70c96e98aefec243e6bfa959c40a64"),
    "dpem-gmm": (
        ["--algorithm", "dpem", "--eps-list", "0.5", "--tau", "9", "--threads", "2"],
        "ed6795532ac6d60fe3f7c706e0f9de833c47f77f0aff7ab1170e4ce61db48acd"),
}


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def invoke(*args):
    result = CliRunner().invoke(cli, [str(a) for a in args], catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return result


# Each case writes its file into a directory of its own and returns the file's
# digest, so that digest_set can run them all outside pytest.

def dataset_digest(root):
    invoke("gen", "--n", 150, "--d", 3, "--seed", 5, "--out", root / "gmm.csv")
    return sha256(root / "gmm.csv")


def gen_digest(root, model, n=150, cases=GEN):
    out = root / f"{model}.csv"
    invoke("gen", "--n", n, "--d", 3, "--seed", 5, *cases[model][0], "--out", out)
    return sha256(out)


def preprocess_digest(root):
    rng = np.random.default_rng(17)
    labels = rng.integers(0, 2, size=60)
    feats = (2 * labels - 1)[:, None] * np.array([1.5, -0.5]) + rng.standard_normal((60, 2))
    labeled = root / "labeled.csv"
    labeled.write_text("f1,f2,label\n" + "".join(
        f"{a!r},{b!r},{lab}\n" for (a, b), lab in zip(feats.tolist(), labels.tolist())))
    invoke("preprocess", "--data", labeled, "--out", root / "pre.csv")
    return sha256(root / "pre.csv")


def run_digest(root, data, algorithm):
    out = root / "run.csv"
    invoke("run", "--algorithm", algorithm, "--data", data, "--seed", 3,
           "--n-seeds", 2, "--out", out)
    return sha256(out)


def report_digest(root):
    invoke("report", "--data", root / "run.csv", "--out", root / "summary.csv")
    return sha256(root / "summary.csv")


def sweep_digest(root, case):
    out = root / "sweep.csv"
    invoke("sweep", "--n-list", 200, "--n-seeds", 2, "--seed", 4, *SWEEPS[case][0],
           "--out", out)
    return sha256(out)


def digest_set(root):
    """Every case's digest, keyed as the tests below name it; root is an
    empty directory."""

    def fresh(name):
        (root / name).mkdir()
        return root / name

    digests = {"test_dataset_digest": dataset_digest(root)}
    for model in GEN:
        digests[f"test_gen_digest[{model}]"] = gen_digest(fresh(f"gen-{model}"), model)
    for model in GEN_BLOCKS:
        digests[f"test_multi_block_gen_digest[{model}]"] = gen_digest(
            fresh(f"blocks-{model}"), model, 2500, GEN_BLOCKS)
    digests["test_preprocess_digest"] = preprocess_digest(fresh("pre"))
    for algorithm in RUNS:
        path = fresh(f"run-{algorithm}")
        digests[f"test_run_digest[{algorithm}]"] = run_digest(path, root / "gmm.csv",
                                                              algorithm)
        if algorithm in REPORTS:
            digests[f"test_report_digest[{algorithm}]"] = report_digest(path)
    for algorithm in RMC_RUNS:
        path = fresh(f"rmc-{algorithm}")
        gen_digest(path, "rmc")
        digests[f"test_rmc_run_digest[{algorithm}]"] = run_digest(path, path / "rmc.csv",
                                                                  algorithm)
    for case in SWEEPS:
        digests[f"test_sweep_digest[{case}]"] = sweep_digest(fresh(f"sweep-{case}"), case)
    return digests


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("byte_stability")
    dataset_digest(root)
    return root / "gmm.csv"


def test_dataset_digest(dataset):
    assert sha256(dataset) == DATASET


@pytest.mark.parametrize("model", sorted(GEN))
def test_gen_digest(tmp_path, model):
    assert gen_digest(tmp_path, model) == GEN[model][1]


@pytest.mark.parametrize("model", sorted(GEN_BLOCKS))
def test_multi_block_gen_digest(tmp_path, model):
    assert gen_digest(tmp_path, model, 2500, GEN_BLOCKS) == GEN_BLOCKS[model][1]


def test_preprocess_digest(tmp_path):
    assert preprocess_digest(tmp_path) == PREPROCESSED


@pytest.mark.parametrize("algorithm", sorted(RUNS))
def test_run_digest(dataset, tmp_path, algorithm):
    assert run_digest(tmp_path, dataset, algorithm) == RUNS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(RMC_RUNS))
def test_rmc_run_digest(tmp_path, algorithm):
    assert gen_digest(tmp_path, "rmc") == GEN["rmc"][1]
    assert run_digest(tmp_path, tmp_path / "rmc.csv", algorithm) == RMC_RUNS[algorithm]


@pytest.mark.parametrize("algorithm", sorted(REPORTS))
def test_report_digest(dataset, tmp_path, algorithm):
    assert run_digest(tmp_path, dataset, algorithm) == RUNS[algorithm]
    assert report_digest(tmp_path) == REPORTS[algorithm]


@pytest.mark.parametrize("case", sorted(SWEEPS))
def test_sweep_digest(tmp_path, case):
    assert sweep_digest(tmp_path, case) == SWEEPS[case][1]


# Prints digest_set's digests as JSON.  numpy is loaded before dpem.cli, as
# a library caller loads it, so the BLAS settings below take effect.
DIGESTS = """\
import json, pathlib, sys
import numpy
sys.path.insert(0, sys.argv[1])
from test_byte_stability import digest_set
print(json.dumps(digest_set(pathlib.Path.cwd())))
"""

# BLAS kernels sum dot products in different orders, and BLAS threads split
# them; no result path calls BLAS, so neither may move a byte.  numpy's own
# SIMD loops, which NPY_DISABLE_CPU_FEATURES selects, still may.
HOSTS = {
    "haswell": {"OPENBLAS_CORETYPE": "Haswell"},
    "sandybridge": {"OPENBLAS_CORETYPE": "Sandybridge"},
    "prescott": {"OPENBLAS_CORETYPE": "Prescott"},
    "two-threads": {"OPENBLAS_NUM_THREADS": "2"},
}


def fresh_digests(root, env):
    tests = str(Path(__file__).resolve().parent)
    source = str(Path(dpem.__file__).resolve().parent.parent)
    path = [source, *filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep))]
    clean = {k: v for k, v in os.environ.items()
             if not k.startswith(("OPENBLAS_", "OMP_", "MKL_"))}
    proc = subprocess.run([sys.executable, "-c", DIGESTS, tests], cwd=root, text=True,
                          env={**clean, **env, "PYTHONPATH": os.pathsep.join(path)},
                          capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_digests_do_not_depend_on_the_blas(tmp_path):
    (tmp_path / "default").mkdir()
    default = fresh_digests(tmp_path / "default", {})
    assert len(default) == 20
    for host, env in HOSTS.items():
        (tmp_path / host).mkdir()
        got = fresh_digests(tmp_path / host, env)
        assert got == default, (host, sorted(k for k in got if got[k] != default[k]))
