"""Two ways to balance an imbalanced training set to 50/50.

Random oversampling duplicates minority rows; GAN augmentation appends
synthetic minority rows from a trained generator.  Both return a plain
``Dataset`` whose first rows are the input rows, untouched and in order, so
a row's provenance (original, or duplicated/generated) follows from its
index alone.
"""

from __future__ import annotations

import numpy as np

from ganbalance import gan, nn
from ganbalance.data import Dataset
from ganbalance.errors import (
    EmptyMinorityError,
    NothingToBalanceError,
    PreconditionError,
)


def isolate_positives(train: Dataset) -> Dataset:
    """Rows with label 1, order preserved; these train the generator."""
    mask = train.labels == 1
    if not mask.any():
        raise EmptyMinorityError("training set has no positive rows")
    return Dataset(train.features[mask].copy(), train.labels[mask].copy())


def random_oversample(train: Dataset, rng: np.random.Generator) -> Dataset:
    """Duplicate uniformly sampled minority rows until the classes are equal."""
    n_pos = train.positive_count
    n_neg = train.negative_count
    if n_pos == 0 or n_neg == 0:
        raise PreconditionError("oversampling needs both classes present")
    minority_label = 1 if n_pos < n_neg else 0
    deficit = abs(n_neg - n_pos)
    minority_rows = np.flatnonzero(train.labels == minority_label)
    picks = rng.integers(0, len(minority_rows), size=deficit)
    extra = train.features[minority_rows[picks]]
    features = np.vstack([train.features, extra])
    labels = np.concatenate([train.labels, np.full(deficit, minority_label, dtype=np.int64)])
    return Dataset(features, labels)


def gan_deficit(train: Dataset) -> int:
    """The number of generated rows that balance ``train``; raises
    NothingToBalanceError unless positives are the minority."""
    n_pos = train.positive_count
    n_neg = train.negative_count
    if n_pos >= n_neg:
        raise NothingToBalanceError(f"positives ({n_pos}) already >= negatives ({n_neg})")
    return n_neg - n_pos


def gan_augment(train: Dataset, network: nn.Network, rng: np.random.Generator) -> Dataset:
    """Append rows from the generator network until positives match negatives."""
    deficit = gan_deficit(train)
    synthetic = gan.generate(network, deficit, rng)
    if synthetic.shape[1] != train.features.shape[1]:
        raise PreconditionError(
            f"generator emits {synthetic.shape[1]} features, train set has "
            f"{train.features.shape[1]}"
        )
    features = np.vstack([train.features, synthetic])
    labels = np.concatenate([train.labels, np.ones(deficit, dtype=np.int64)])
    return Dataset(features, labels)
