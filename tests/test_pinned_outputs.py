"""Every output file of the CLI, byte for byte, against pinned sha256 digests.

The digests were taken with numpy ``helpers.PINNED_NUMPY``.  Matmul results
depend on the numpy/BLAS build, so on any other version the tests skip.  A
change that means to move an output re-pins the digests its failure prints
and says why.
"""

import hashlib
import os
import subprocess
import sys

import numpy as np
import pytest

from ganbalance.cli import main
from helpers import PINNED_NUMPY, gaussian_blobs, write_dataset_csv

COMMON_FLAGS = [
    "--seed", "3",
    "--train-size", "200", "--test-size", "120",
    "--train-pos", "30", "--test-pos", "20",
    "--gan-epochs", "60", "--gan-batch", "16", "--gan-log-every", "7",
]

RUN_DIGESTS = {
    "gan_training_log.csv": "37a096a7db45cfed007a0b6840adb74ca63b72e4d8916d179ea88cfb64041a1b",
    "metrics.csv": "a7929754255fa29bf4f860889a6001120469df9b70efddae7ccdc7c1b65cdc25",
    "roc_gan_dt.csv": "97edd212fa65bce1eb8226ec76ec1dc278847b8095a6058f5b89c76a7405f48c",
    "roc_gan_logreg.csv": "6f0881315d151062de612b41cafc170a2c34cb2573d31ffa757525a98cd916fb",
    "roc_gan_mlp.csv": "5871b65e6d3958d5516aa2a9f2c7670ebc8941963b189395cb604eee99e06704",
    "roc_gan_svm.csv": "0efc0b051dcc7dcbcc4100063687633140fc954e37c79c9bb42e91e52995537b",
    "roc_oversample_dt.csv": "29e8be2af9b15d510987fd8d8c01c573ae72f3e92947d14b359391d7f1d2e9d6",
    "roc_oversample_logreg.csv": "ed9c820f68e4de288e83c88faef5638cd17d3e26c83925c65ddeda66d8b5c871",
    "roc_oversample_mlp.csv": "b097c0f43ea5b63eca345d358acf5d4a386e6d66079f0c9473c8406294068601",
    "roc_oversample_svm.csv": "ed9c820f68e4de288e83c88faef5638cd17d3e26c83925c65ddeda66d8b5c871",
    "roc_raw_dt.csv": "5afa997cd1c0fa9876ac6803b700381e2d1c74a7d3e259477072db0fe4a51ef5",
    "roc_raw_logreg.csv": "3f19b533d7877f6d878db58801dfbcf495a768119d8a70222c619bb35d67754c",
    "roc_raw_mlp.csv": "6e0be93d5fafae01e88bc8bd427cd886084938936a84be4bf9cc3a6af5b0c948",
    "roc_raw_svm.csv": "ed9c820f68e4de288e83c88faef5638cd17d3e26c83925c65ddeda66d8b5c871",
    "train_augmented_gan.csv": "bea66fcb8de10c08ff5baa54215acf774f1bb5e9ea5dc3025a841c8ba86312b0",
    "train_augmented_oversample.csv": "6bda9e07100ad14ade8db395685ab4c58d9aa340d3d00524e149f40d9e695519",
}

SYNTH_DIGESTS = {
    "gan_training_log.csv": "37a096a7db45cfed007a0b6840adb74ca63b72e4d8916d179ea88cfb64041a1b",
    "generated_samples.csv": "4b3468ee0d016eb1533106d80e4bd6167bfa29e4ed323bd6a30aa79aecd187f4",
}

pytestmark = pytest.mark.skipif(
    np.__version__ != PINNED_NUMPY,
    reason=f"digests are pinned for numpy {PINNED_NUMPY}, found {np.__version__}",
)


@pytest.fixture(scope="module")
def table(tmp_path_factory):
    dataset = gaussian_blobs(np.random.default_rng(2026), n_pos=60, n_neg=340, dim=5)
    path = tmp_path_factory.mktemp("pinned") / "data.csv"
    write_dataset_csv(dataset, path)
    return path


def _dynamic_arch_openblas() -> bool:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return "DYNAMIC_ARCH" in blas.get("openblas configuration", "")


RUN_FLAGS = ["--mlp-epochs", "5", "--dump-augmented", *COMMON_FLAGS]


def _digests(out_dir):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out_dir.iterdir())}


def test_run_outputs_match_pinned_digests(table, tmp_path):
    code = main(["run", "--data", str(table), "--out", str(tmp_path), *RUN_FLAGS])
    assert code == 0
    assert _digests(tmp_path) == RUN_DIGESTS


@pytest.mark.skipif(not _dynamic_arch_openblas(),
                    reason="needs an OpenBLAS built with DYNAMIC_ARCH to pick its kernels")
@pytest.mark.parametrize("core", ["Haswell", "Sandybridge"])
def test_run_outputs_match_pinned_digests_on_other_blas_kernels(table, tmp_path, core):
    # minibatches reach BLAS as row-offset views into one shuffled copy per
    # epoch; each core type's kernels must still give the pinned bytes
    subprocess.run([sys.executable, "-m", "ganbalance.cli", "run", "--data", str(table),
                    "--out", str(tmp_path), *RUN_FLAGS],
                   check=True, capture_output=True, env={**os.environ, "OPENBLAS_CORETYPE": core})
    assert _digests(tmp_path) == RUN_DIGESTS


def test_synth_outputs_match_pinned_digests(table, tmp_path):
    code = main(["synth", "--data", str(table), "--out", str(tmp_path), "--n", "200",
                 *COMMON_FLAGS])
    assert code == 0
    assert _digests(tmp_path) == SYNTH_DIGESTS
