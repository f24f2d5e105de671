"""Two ways to balance an imbalanced training set to 50/50.

Random oversampling duplicates minority rows; GAN augmentation appends
synthetic minority rows from a trained generator.  Both leave the original
rows untouched as a prefix and tag every row with its provenance so audits
can tell real, duplicated, and generated data apart.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ganbalance import gan
from ganbalance.data import Dataset
from ganbalance.errors import (
    EmptyMinorityError,
    NothingToBalanceError,
    PreconditionError,
)

PROVENANCE_ORIGINAL = "original"
PROVENANCE_DUPLICATED = "duplicated"
PROVENANCE_GENERATED = "generated"


@dataclass
class AugmentedDataset:
    features: np.ndarray
    labels: np.ndarray
    provenance: np.ndarray  # per-row tag: original | duplicated | generated

    @property
    def positive_count(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.labels == 0))

    def as_dataset(self) -> Dataset:
        return Dataset(self.features, self.labels)


def isolate_positives(train: Dataset) -> Dataset:
    """Rows with label 1, order preserved; these train the generator."""
    mask = train.labels == 1
    if not mask.any():
        raise EmptyMinorityError("training set has no positive rows")
    return Dataset(train.features[mask].copy(), train.labels[mask].copy())


def _provenance(n_original: int, n_appended: int, tag: str) -> np.ndarray:
    return np.array(
        [PROVENANCE_ORIGINAL] * n_original + [tag] * n_appended, dtype="<U10"
    )


def random_oversample(train: Dataset, rng: np.random.Generator) -> AugmentedDataset:
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
    labels = np.concatenate(
        [train.labels, np.full(deficit, minority_label, dtype=np.int64)]
    )
    return AugmentedDataset(
        features, labels, _provenance(len(train.labels), deficit, PROVENANCE_DUPLICATED)
    )


def gan_augment(
    train: Dataset,
    generator,
    rng: np.random.Generator,
    noise_distribution: str = "normal",
) -> AugmentedDataset:
    """Append generated minority rows until positives match negatives.

    ``noise_distribution`` must be the one the generator was trained on.
    """
    n_pos = train.positive_count
    n_neg = train.negative_count
    if n_pos >= n_neg:
        raise NothingToBalanceError(
            f"positives ({n_pos}) already >= negatives ({n_neg})"
        )
    deficit = n_neg - n_pos
    synthetic = gan.generate(generator, deficit, rng, noise_distribution)
    if synthetic.shape[1] != train.features.shape[1]:
        raise PreconditionError(
            f"generator emits {synthetic.shape[1]} features, train set has "
            f"{train.features.shape[1]}"
        )
    features = np.vstack([train.features, synthetic])
    labels = np.concatenate([train.labels, np.ones(deficit, dtype=np.int64)])
    return AugmentedDataset(
        features, labels, _provenance(len(train.labels), deficit, PROVENANCE_GENERATED)
    )
