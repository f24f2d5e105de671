"""Balancing strategies: random duplication and generator-backed augmentation."""

import csv
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ganbalance import augment, experiment
from ganbalance.data import Dataset
from ganbalance.errors import NothingToBalanceError, PreconditionError
from helpers import fresh_generator, gaussian_blobs


def _imbalanced(n_pos, n_neg, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    return gaussian_blobs(rng, n_pos, n_neg, dim)


def test_oversample_balances_exactly():
    ds = _imbalanced(315, 9685, dim=3)
    out = augment.random_oversample(ds, np.random.default_rng(1))
    assert out.positive_count == out.negative_count == 9685
    assert len(out.labels) == 19370
    assert np.all(out.labels[len(ds.labels):] == 1)


def test_oversample_appended_rows_are_copies_of_original_positives():
    ds = _imbalanced(5, 20, dim=2)
    out = augment.random_oversample(ds, np.random.default_rng(2))
    original_pos = {tuple(r) for r in ds.features[ds.labels == 1]}
    appended = out.features[len(ds.labels):]
    assert len(appended) == 15
    for row in appended:
        assert tuple(row) in original_pos


def test_oversample_leaves_original_prefix_untouched():
    ds = _imbalanced(4, 10)
    out = augment.random_oversample(ds, np.random.default_rng(3))
    assert np.array_equal(out.features[: len(ds.labels)], ds.features)
    assert np.array_equal(out.labels[: len(ds.labels)], ds.labels)


def test_oversample_balanced_input_is_fixed_point():
    ds = _imbalanced(6, 6)
    out = augment.random_oversample(ds, np.random.default_rng(4))
    assert np.array_equal(out.features, ds.features)
    assert np.array_equal(out.labels, ds.labels)


def test_oversample_single_positive_forced_outcome():
    feats = np.array([[0.9, 0.9], [0.1, 0.1], [0.2, 0.2], [0.3, 0.3]])
    labels = np.array([1, 0, 0, 0], dtype=np.int64)
    out = augment.random_oversample(Dataset(feats, labels), np.random.default_rng(5))
    assert out.positive_count == out.negative_count == 3
    assert np.array_equal(out.features[4], [0.9, 0.9])
    assert np.array_equal(out.features[5], [0.9, 0.9])


def test_oversample_single_class_error():
    with pytest.raises(PreconditionError):
        augment.random_oversample(
            Dataset(np.zeros((3, 2)), np.zeros(3, dtype=np.int64)),
            np.random.default_rng(0),
        )


def test_oversample_deterministic():
    ds = _imbalanced(10, 50)
    a = augment.random_oversample(ds, np.random.default_rng(9))
    b = augment.random_oversample(ds, np.random.default_rng(9))
    assert np.array_equal(a.features, b.features)


def test_gan_augment_balances_exactly():
    ds = _imbalanced(30, 70, dim=5)
    out = augment.gan_augment(ds, fresh_generator(5), np.random.default_rng(6))
    assert out.positive_count == out.negative_count == 70
    assert len(out.labels) == 140
    generated = out.features[len(ds.labels):]
    assert generated.shape == (40, 5)
    assert np.all((generated > 0.0) & (generated < 1.0))
    assert np.all(out.labels[len(ds.labels):] == 1)


def test_gan_augment_boundary_single_row():
    ds = _imbalanced(9, 10, dim=3)
    out = augment.gan_augment(ds, fresh_generator(3), np.random.default_rng(7))
    assert len(out.labels) == len(ds.labels) + 1


def test_gan_augment_nothing_to_balance():
    ds = _imbalanced(6, 6)
    with pytest.raises(NothingToBalanceError):
        augment.gan_augment(ds, fresh_generator(4), np.random.default_rng(0))


def test_gan_augment_refuses_a_generator_of_another_width_before_sampling():
    ds = _imbalanced(12, 40, dim=3)
    rng = np.random.default_rng(5)
    state = rng.bit_generator.state
    with pytest.raises(PreconditionError, match="generator emits 4 features, train set has 3"):
        augment.gan_augment(ds, fresh_generator(4), rng)
    assert rng.bit_generator.state == state  # no noise was drawn


def test_gan_augment_deterministic():
    ds = _imbalanced(12, 40, dim=3)
    generator = fresh_generator(3, seed=2)
    a = augment.gan_augment(ds, generator, np.random.default_rng(8))
    b = augment.gan_augment(ds, generator, np.random.default_rng(8))
    assert np.array_equal(a.features, b.features)


def test_count_arithmetic_over_random_imbalances():
    rng = np.random.default_rng(10)
    for _ in range(20):
        n_pos = int(rng.integers(1, 30))
        n_neg = n_pos + int(rng.integers(1, 40))
        ds = _imbalanced(n_pos, n_neg, dim=2, seed=int(rng.integers(1 << 30)))
        out = augment.random_oversample(ds, rng)
        assert len(out.labels) == 2 * n_neg
        assert out.positive_count == out.negative_count == n_neg


@settings(max_examples=60, deadline=None)
@given(n_pos=st.integers(1, 40), n_neg=st.integers(1, 40), use_gan=st.booleans(),
       seed=st.integers(0, 2**32 - 1))
def test_balanced_set_is_the_input_then_minority_rows(n_pos, n_neg, use_gan, seed):
    ds = _imbalanced(n_pos, n_neg, dim=3, seed=seed)
    rng = np.random.default_rng(seed)
    if use_gan and n_pos < n_neg:
        out, tag = augment.gan_augment(ds, fresh_generator(3, seed=seed), rng), "generated"
    else:
        out, tag = augment.random_oversample(ds, rng), "duplicated"
    n = n_pos + n_neg
    assert np.array_equal(out.features[:n], ds.features)
    assert np.array_equal(out.labels[:n], ds.labels)
    assert out.positive_count == out.negative_count == max(n_pos, n_neg)
    assert np.all(out.labels[n:] == (1 if n_pos < n_neg else 0))

    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "augmented.csv"
        experiment._write_augmented_csv(out, n, tag, path)
        with open(path, newline="") as fh:
            provenance = [row[-1] for row in csv.reader(fh)][1:]
    assert provenance == ["original"] * n + [tag] * (len(out.labels) - n)
