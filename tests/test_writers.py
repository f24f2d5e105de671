"""The shared CSV row writer against the f-string writers it replaced, byte
for byte, on the values where printf and format-spec rendering could part and
on tables that span several write blocks."""

import numpy as np

from ganbalance import augment, data, experiment, gan, metrics
from ganbalance.data import Dataset
from helpers import fresh_generator
from oracles import (
    fstring_augmented_csv,
    fstring_log_csv,
    fstring_roc_csv,
    fstring_samples_csv,
)

EDGE_VALUES = [
    np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), -0.0, 5e-10, 1.5e-9, 1e300,
    np.nan, np.inf, -np.inf, 0.5, 1.0, 0.0,
]


def _edge_table(n_columns: int) -> np.ndarray:
    """Every edge value in every column, each column in a different order,
    then random rows: four write blocks' worth at this width, and 17 more."""
    values = np.array(EDGE_VALUES)
    edges = np.column_stack([np.roll(values, j) for j in range(n_columns)])
    extra = 4 * (data.WRITE_CELLS // n_columns) + 17
    return np.vstack([edges, np.random.default_rng(n_columns).random((extra, n_columns))])


def _same_bytes(tmp_path, write, reference, *args) -> bool:
    write(*args, tmp_path / "new.csv")
    reference(*args, tmp_path / "ref.csv")
    return (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_samples_csv_matches_fstring_writer(tmp_path):
    samples = np.vstack([
        _edge_table(4),
        *gan.sample_blocks(fresh_generator(4, seed=3), 50, np.random.default_rng(4)),
    ])

    def write_in_blocks(rows, path):  # unequal blocks, from an iterator
        gan.write_samples_csv(iter(np.array_split(rows, 3)), path)

    assert _same_bytes(tmp_path, write_in_blocks, fstring_samples_csv, samples)


def test_log_csv_matches_fstring_writer(tmp_path):
    positives = Dataset(np.random.default_rng(5).random((8, 3)), np.ones(8, dtype=np.int64))
    _, log = gan.train_gan(positives, gan.GanTrainConfig(epochs=6, seed=6, log_every=2))
    log += [(epoch, value, -value, float(value))
            for epoch, value in enumerate(_edge_table(1)[:, 0], start=7)]
    assert _same_bytes(tmp_path, gan.write_log_csv, fstring_log_csv, log)


def test_roc_csv_matches_fstring_writer(tmp_path):
    rng = np.random.default_rng(8)
    labels = np.array([0, 1] * 20, dtype=np.int64)
    curve, auc = metrics.roc_auc(labels, rng.random(40))
    points = np.vstack([curve, _edge_table(2)])
    report = metrics.compute_metrics(metrics.confusion(labels, labels), auc)
    result = experiment.RunResult("raw", "dt", report, 0.0, roc=points)
    experiment.emit_outputs([result], tmp_path)
    fstring_roc_csv(points, tmp_path / "ref.csv")
    assert (tmp_path / "roc_raw_dt.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def test_augmented_csv_matches_fstring_writer(tmp_path):
    rng = np.random.default_rng(9)
    features = _edge_table(3)
    train = Dataset(features, (np.arange(len(features)) % 5 == 0).astype(np.int64))
    over = augment.random_oversample(train, rng)
    ganned = augment.gan_augment(train, fresh_generator(3, seed=10), rng)

    def reference(balanced, n_original, tag, path):
        provenance = ["original"] * n_original + [tag] * (len(balanced.labels) - n_original)
        fstring_augmented_csv(balanced.features, balanced.labels, provenance, path)

    for balanced, tag in ((over, "duplicated"), (ganned, "generated")):
        assert balanced.labels.dtype == np.int64
        assert _same_bytes(tmp_path, experiment._write_augmented_csv, reference, balanced,
                           len(train.labels), tag)
