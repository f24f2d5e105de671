"""The benchmark's workloads: seeded input tables and the CLI arguments.

Each workload's input CSV is generated from the benchmark seed, so the same
seed gives byte-identical input.  Every table holds a known number of
planted duplicate rows: exact copies of unique base rows, which ``dedup``
must remove and nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Table:
    """Make-up of a generated input table."""

    name: str
    n_features: int
    positives: int  # label-1 rows in the file, planted copies included
    negatives: int
    dup_positives: int  # planted exact copies among the positives
    dup_negatives: int

    @property
    def n_rows(self) -> int:
        return self.positives + self.negatives

    @property
    def duplicates(self) -> int:
        return self.dup_positives + self.dup_negatives


@dataclass(frozen=True)
class Split:
    train_size: int
    test_size: int
    train_pos: int
    test_pos: int

    def argv(self) -> list:
        return [
            "--train-size", str(self.train_size), "--test-size", str(self.test_size),
            "--train-pos", str(self.train_pos), "--test-pos", str(self.test_pos),
        ]


@dataclass(frozen=True)
class Workload:
    name: str
    command: str  # "run" or "synth"
    table: Table
    split: Split
    gan_epochs: int | None
    modes: tuple = ()
    models: tuple = ()
    mlp_epochs: int | None = None
    synth_n: int = 0

    def argv(self, data_path: str, out_dir: str) -> list:
        args = [self.command, "--data", data_path, "--out", out_dir, "--seed", "0",
                *self.split.argv()]
        if self.gan_epochs is not None:
            args += ["--gan-epochs", str(self.gan_epochs)]
        if self.command == "run":
            args += ["--modes", ",".join(self.modes), "--models", ",".join(self.models)]
            if self.mlp_epochs is not None:
                args += ["--mlp-epochs", str(self.mlp_epochs)]
        else:
            args += ["--n", str(self.synth_n)]
        return args

    @property
    def pairs(self) -> list:
        return [(mode, model) for mode in self.modes for model in self.models]


# The ROADMAP desk table (tests/test_acceptance.py): 15,260 rows x 10
# features, 460 positives.  105 of its rows are planted copies, which still
# leaves the 450 positives and 14,550 negatives the desk split needs.
DESK_TABLE = Table("desk", 10, positives=460, negatives=14800,
                   dup_positives=5, dup_negatives=100)
DESK_SPLIT = Split(10000, 5000, 300, 150)

# Shaped like the credit-card fraud table: Time, V1..V28, Amount; 492 of
# 284,807 rows positive, 1,081 planted duplicates (the real file has 1,081).
WIDE_TABLE = Table("wide", 30, positives=492, negatives=284315,
                   dup_positives=19, dup_negatives=1062)
WIDE_SPLIT = Split(20000, 10000, 300, 150)

WORKLOADS = {
    "desk": Workload("desk", "run", DESK_TABLE, DESK_SPLIT, gan_epochs=2000,
                     modes=("raw", "oversample", "gan"),
                     models=("svm", "dt", "logreg", "mlp"), mlp_epochs=20),
    "synth": Workload("synth", "synth", DESK_TABLE, DESK_SPLIT, gan_epochs=3000,
                      synth_n=100000),
    "wide": Workload("wide", "run", WIDE_TABLE, WIDE_SPLIT, gan_epochs=None,
                     modes=("raw", "oversample"), models=("svm", "dt")),
}


def _plant_duplicates(rng, pos, neg, table: Table):
    """Stack unique rows plus planted copies; returns (rows, labels)."""
    copies_pos = pos[rng.choice(len(pos), table.dup_positives, replace=False)]
    copies_neg = neg[rng.choice(len(neg), table.dup_negatives, replace=False)]
    rows = np.vstack([pos, copies_pos, neg, copies_neg])
    labels = np.concatenate([np.ones(table.positives), np.zeros(table.negatives)])
    return rows, labels


def _require_unique(quantized: np.ndarray, what: str) -> None:
    """Base rows must differ once printed, or dedup would drop extra rows."""
    if len(np.unique(quantized, axis=0)) != len(quantized):
        raise RuntimeError(f"{what}: generated base rows collide after rounding")


def desk_rows(seed: int):
    """The desk table: two overlapping clipped Gaussian clusters in [0, 1]."""
    t = DESK_TABLE
    rng = np.random.default_rng(seed)
    n_pos = t.positives - t.dup_positives
    n_neg = t.negatives - t.dup_negatives
    pos = np.round(np.clip(rng.normal(0.58, 0.13, (n_pos, t.n_features)), 0, 1), 8)
    neg = np.round(np.clip(rng.normal(0.42, 0.13, (n_neg, t.n_features)), 0, 1), 8)
    _require_unique(np.rint(np.vstack([pos, neg]) * 1e8).astype(np.int64), "desk")
    rows, labels = _plant_duplicates(rng, pos, neg, t)
    order = rng.permutation(len(labels))
    header = [f"V{i}" for i in range(t.n_features)] + ["Class"]
    fmt = ["%.8f"] * t.n_features + ["%d"]
    return header, np.column_stack([rows, labels])[order], fmt


def wide_rows(seed: int):
    """The wide table: PCA-like V columns, a skewed Amount, rows in Time order.

    Every cell has a fixed width (signed V values, zero-padded Time and
    Amount).  With variable-width text the parser's heap layout, and so the
    CLI's peak RSS, changed with the seed: 398 or 466 MB for the same rows.
    """
    t = WIDE_TABLE
    rng = np.random.default_rng(seed)
    n_pos = t.positives - t.dup_positives
    n_neg = t.negatives - t.dup_negatives
    n_v = t.n_features - 2
    sd = np.linspace(1.96, 0.33, n_v)
    shift = np.zeros(n_v)
    shift[[2, 3, 9, 10, 11, 13, 16]] = [-1.0, 1.2, -1.2, 1.0, -1.4, -1.6, -1.2]

    def block(n, mean_shift):
        time = rng.integers(0, 172793, n).astype(np.float64)
        v = np.round(np.clip(rng.normal(mean_shift, sd, (n, n_v)), -9.999999, 9.999999), 6)
        amount = np.round(np.clip(np.exp(rng.normal(3.0, 1.5, n)), 0, 9999.99), 2)
        return np.column_stack([time, v, amount])

    pos = block(n_pos, shift)
    neg = block(n_neg, np.zeros(n_v))
    quantized = np.rint(np.vstack([pos, neg])[:, 1:4] * 1e6).astype(np.int64)
    _require_unique(quantized, "wide")
    rows, labels = _plant_duplicates(rng, pos, neg, t)
    order = rng.permutation(len(labels))
    order = order[np.argsort(rows[order, 0], kind="stable")]
    header = ["Time"] + [f"V{i}" for i in range(1, n_v + 1)] + ["Amount", "Class"]
    fmt = ["%06.0f"] + ["%+.6f"] * n_v + ["%07.2f", "%d"]
    return header, np.column_stack([rows, labels])[order], fmt


def write_input(workload: Workload, seed: int, path) -> None:
    """Write the workload's input CSV for ``seed`` to ``path``."""
    make = desk_rows if workload.table is DESK_TABLE else wide_rows
    header, matrix, fmt = make(seed)
    with open(path, "w") as fh:
        fh.write(",".join(header) + "\n")
        np.savetxt(fh, matrix, fmt=fmt, delimiter=",")
