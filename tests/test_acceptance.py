"""Acceptance gates for the whole package, one criterion per test.

Each test prints a single [PASS]/[FAIL] line with the measured values and the
pinned tolerance so the run log doubles as an acceptance report:

1. analytic gradients match central finite differences on 20 random networks
2. trapezoidal AUC matches pair-counting AUC on tie-heavy random instances
3. tree root splits match an exhaustive exact-rational Gini search
4. oversample and gan augmentation hit the exact balanced row counts
5. GAN training on a minority cluster shows the discriminator learning
6. desk-scale end-to-end run: GAN-balanced MLP F1 holds up against raw
7. optional real credit-card dataset reproduction (skips when absent)
8. same-seed desk-scale runs produce byte-identical metrics.csv
"""

import csv
import math
import os
import time
from pathlib import Path

import numpy as np
import pytest

from ganbalance import augment, gan, metrics, nn
from ganbalance.classifiers import TrainConfig, train_tree
from ganbalance.cli import main
from ganbalance.data import Dataset
from helpers import fresh_generator, gradient_arrays, network_loss, random_network_case
from oracles import (
    brute_force_best_split,
    finite_difference_gradients,
    max_relative_error,
    pair_count_auc,
)


def _report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}")
    assert ok, detail


def _read_metrics(path) -> dict:
    with open(path) as fh:
        return {(row["mode"], row["model"]): row for row in csv.DictReader(fh)}


# --- criterion 1: gradient oracle -------------------------------------------


def test_c1_gradients_match_finite_differences(capsys):
    rng = np.random.default_rng(2024)
    forced = [
        ("bce", ["relu", "batchnorm"]),
        ("bce", ["sigmoid", "dropout"]),
        ("categorical_ce", ["batchnorm", "dropout"]),
        ("categorical_ce", ["relu", "sigmoid"]),
    ]
    started = time.perf_counter()
    worst = 0.0
    kinds_seen = set()
    losses_seen = set()
    for case in range(20):
        if case < len(forced):
            loss_kind, hidden = forced[case]
        else:
            loss_kind = "bce" if case % 2 == 0 else "categorical_ce"
            hidden = None
        net, x, targets = random_network_case(rng, loss_kind, hidden)
        kinds_seen.update(layer.kind for layer in net.spec)
        losses_seen.add(loss_kind)

        _, cache = nn.forward(net, x, mode="train", rng=np.random.default_rng(case))
        nn.backward(cache, targets)

        def loss():
            return network_loss(net, x, targets, loss_kind, case)

        fd = finite_difference_gradients(loss, net.parameter_arrays(), h=1e-5)
        worst = max(worst, max_relative_error(gradient_arrays(net), fd))
    elapsed = time.perf_counter() - started

    assert kinds_seen == {"dense", "relu", "sigmoid", "softmax", "batchnorm", "dropout"}
    assert losses_seen == {"bce", "categorical_ce"}
    ok = worst < 1e-4 and elapsed < 30.0
    _report(
        capsys, 1,
        ok,
        f"20 networks, max relative gradient error {worst:.2e} "
        f"(tolerance 1e-4) in {elapsed:.1f}s (limit 30s)",
    )


# --- criterion 2: AUC oracle -------------------------------------------------


def test_c2_trapezoid_auc_equals_pair_counting(capsys):
    rng = np.random.default_rng(555)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 201))
        levels = int(rng.integers(1, 8))
        scores = rng.integers(0, levels + 1, size=n) / levels
        labels = rng.integers(0, 2, size=n)
        labels[0], labels[1] = 1, 0  # both classes always present
        _, auc = metrics.roc_auc(labels, scores)
        worst = max(worst, abs(auc - pair_count_auc(labels, scores)))
    _, small_auc = metrics.roc_auc(
        np.array([1, 0, 1, 0]), np.array([0.9, 0.8, 0.7, 0.1])
    )
    elapsed = time.perf_counter() - started

    ok = worst <= 1e-9 and small_auc == 0.75 and elapsed < 10.0
    _report(
        capsys, 2,
        ok,
        f"500 tie-heavy instances, max |trapezoid - pair count| {worst:.1e} "
        f"(tolerance 1e-9), 4-row AUC {small_auc} == 0.75, "
        f"in {elapsed:.1f}s (limit 10s)",
    )


# --- criterion 3: tree-split oracle ------------------------------------------


def test_c3_root_splits_match_exhaustive_gini(capsys):
    rng = np.random.default_rng(777)
    started = time.perf_counter()
    mismatches = 0
    for _ in range(200):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 5))
        x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        config = TrainConfig(max_depth=1, seed=0)
        root = train_tree(Dataset(x, y), config).root
        expected = None if len(np.unique(y)) < 2 else brute_force_best_split(x, y, 1)
        if expected is None:
            if not root.is_leaf:
                mismatches += 1
        else:
            _, feature, threshold = expected
            if root.is_leaf or root.feature != feature or root.threshold != threshold:
                mismatches += 1
    elapsed = time.perf_counter() - started

    ok = mismatches == 0 and elapsed < 10.0
    _report(
        capsys, 3,
        ok,
        f"200 instances (n<=16, d<=4): {200 - mismatches}/200 root splits equal "
        f"the exact-rational exhaustive search, in {elapsed:.1f}s (limit 10s)",
    )


# --- criterion 4: augmentation arithmetic ------------------------------------


def test_c4_balancing_hits_exact_row_counts(capsys):
    rng = np.random.default_rng(31)
    features = rng.random((10000, 8))
    labels = np.zeros(10000, dtype=np.int64)
    labels[rng.choice(10000, size=315, replace=False)] = 1
    train = Dataset(features, labels)

    over = augment.random_oversample(train, np.random.default_rng(1))
    generator = fresh_generator(8, seed=2)
    ganned = augment.gan_augment(train, generator, np.random.default_rng(3))

    counts = (
        over.positive_count, over.negative_count, len(over.labels),
        ganned.positive_count, ganned.negative_count, len(ganned.labels),
    )
    ok = counts == (9685, 9685, 19370, 9685, 9685, 19370)
    _report(
        capsys, 4,
        ok,
        "315/9685 training set balanced to exactly 9685 rows per class and "
        f"19370 total in both modes (got {counts})",
    )


# --- criterion 5: GAN direction check ----------------------------------------


def test_c5_discriminator_keeps_learning(capsys):
    rng = np.random.default_rng(42)
    cluster = np.clip(rng.normal(0.15, 0.05, size=(300, 5)), 0.0, 1.0)
    positives = Dataset(cluster, np.ones(300, dtype=np.int64))

    started = time.perf_counter()
    generator, log = gan.train_gan(
        positives,
        gan.GanTrainConfig(epochs=2000, learning_rate=1e-4, seed=7),
    )
    samples = np.vstack(list(gan.sample_blocks(generator, 1000, np.random.default_rng(9))))
    elapsed = time.perf_counter() - started

    acc = np.array([row[3] for row in log])
    window = len(acc) // 10
    first = float(acc[:window].mean())
    last = float(acc[-window:].mean())
    in_open_interval = bool(np.all((samples > 0.0) & (samples < 1.0)))

    ok = in_open_interval and last >= first and elapsed < 180.0
    _report(
        capsys, 5,
        ok,
        f"1000 generated rows strictly in (0,1): {in_open_interval}; "
        f"discriminator accuracy last-window mean {last:.3f} >= "
        f"first-window mean {first:.3f}; in {elapsed:.1f}s (limit 180s)",
    )


# --- criteria 6 and 8: desk-scale end-to-end run ------------------------------

DESK_ARGS = [
    "--seed", "0", "--gan-epochs", "2000",
    "--train-size", "10000", "--test-size", "5000",
    "--train-pos", "300", "--test-pos", "150",
]


@pytest.fixture(scope="module")
def desk_csv(tmp_path_factory):
    rng = np.random.default_rng(123)
    d = 10
    pos = np.clip(rng.normal(0.58, 0.13, size=(460, d)), 0.0, 1.0)
    neg = np.clip(rng.normal(0.42, 0.13, size=(14800, d)), 0.0, 1.0)
    features = np.vstack([pos, neg])
    labels = np.concatenate([np.ones(460, dtype=int), np.zeros(14800, dtype=int)])
    order = rng.permutation(len(labels))
    path = tmp_path_factory.mktemp("desk_data") / "desk.csv"
    with open(path, "w") as fh:
        fh.write(",".join(f"V{i}" for i in range(d)) + ",Class\n")
        for i in order:
            fh.write(",".join(f"{v:.8f}" for v in features[i]) + f",{labels[i]}\n")
    return path


@pytest.fixture(scope="module")
def desk_run(desk_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("desk_out_a")
    started = time.perf_counter()
    code = main(["run", "--data", str(desk_csv), "--out", str(out), *DESK_ARGS])
    elapsed = time.perf_counter() - started
    return {"code": code, "out": out, "elapsed": elapsed}


@pytest.mark.slow
def test_c6_gan_mlp_f1_holds_up_at_desk_scale(desk_run, capsys):
    rows = _read_metrics(desk_run["out"] / "metrics.csv")
    finite = desk_run["code"] == 0 and len(rows) == 12
    for row in rows.values():
        for col in ("recall", "precision", "f1", "specificity", "auc_roc"):
            finite = finite and math.isfinite(float(row[col]))
        finite = finite and math.isfinite(float(row["accuracy_pct"]))
    raw_f1 = float(rows[("raw", "mlp")]["f1"])
    gan_f1 = float(rows[("gan", "mlp")]["f1"])
    elapsed = desk_run["elapsed"]

    ok = finite and gan_f1 >= raw_f1 - 0.05 and elapsed < 600.0
    _report(
        capsys, 6,
        ok,
        f"12/12 runs finite: {finite}; gan MLP F1 {gan_f1:.3f} >= "
        f"raw MLP F1 {raw_f1:.3f} - 0.05; in {elapsed:.0f}s (limit 600s)",
    )


@pytest.mark.slow
def test_c8_same_seed_runs_are_byte_identical(desk_run, desk_csv,
                                              tmp_path_factory, capsys):
    out_b = tmp_path_factory.mktemp("desk_out_b")
    code = main(["run", "--data", str(desk_csv), "--out", str(out_b), *DESK_ARGS])
    bytes_a = (desk_run["out"] / "metrics.csv").read_bytes()
    bytes_b = (out_b / "metrics.csv").read_bytes()

    ok = code == 0 and bytes_a == bytes_b
    _report(
        capsys, 8,
        ok,
        f"two desk-scale runs with the same master seed wrote byte-identical "
        f"metrics.csv ({len(bytes_a)} bytes)",
    )


# --- criterion 7: optional real-dataset reproduction --------------------------


def _creditcard_path():
    env = os.environ.get("GANBALANCE_CREDITCARD_CSV")
    if env:
        return Path(env)
    return Path(__file__).resolve().parents[1] / "data" / "creditcard.csv"


def test_c7_creditcard_reproduction_when_available(tmp_path, capsys):
    path = _creditcard_path()
    if not path.exists():
        with capsys.disabled():
            print(
                "[SKIP] criterion 7: creditcard.csv not present (place it at "
                "data/creditcard.csv or set GANBALANCE_CREDITCARD_CSV)"
            )
        pytest.skip("creditcard.csv not available")

    started = time.perf_counter()
    code = main(
        ["run", "--data", str(path), "--out", str(tmp_path),
         "--seed", "0", "--gan-epochs", "10000"]
    )
    elapsed = time.perf_counter() - started
    rows = _read_metrics(tmp_path / "metrics.csv")
    gan_mlp_acc = float(rows[("gan", "mlp")]["accuracy_pct"])
    gan_mlp_f1 = float(rows[("gan", "mlp")]["f1"])
    gan_svm_prec = float(rows[("gan", "svm")]["precision"])
    over_svm_prec = float(rows[("oversample", "svm")]["precision"])

    ok = (
        code == 0
        and gan_mlp_acc >= 98.0
        and gan_mlp_f1 >= 0.6
        and gan_svm_prec >= over_svm_prec
        and elapsed < 3600.0
    )
    _report(
        capsys, 7,
        ok,
        f"gan MLP accuracy {gan_mlp_acc:.2f}% >= 98%, F1 {gan_mlp_f1:.3f} >= 0.6, "
        f"gan SVM precision {gan_svm_prec:.3f} >= oversample SVM precision "
        f"{over_svm_prec:.3f}; in {elapsed:.0f}s (limit 3600s)",
    )
