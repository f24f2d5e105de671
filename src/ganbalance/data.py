"""CSV ingestion, deduplication, stratified splitting, feature scaling, the
one row writer behind every LF-terminated output CSV, and the opener that
writes every output file whole or not at all.

The preprocessing order is fixed: load -> dedup -> stratified split -> fit
standard scaler on train and apply to both sides -> fit min-max scaler on the
standardized train and apply to both sides.  After that every feature value
lies in [0, 1] (test rows are clamped), which matches the sigmoid output range
of the sample generator downstream.
"""

from __future__ import annotations

import contextlib
import csv
import math
import os
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ganbalance.errors import CapacityError, CsvParseError, SchemaError


@dataclass
class RawTable:
    """Parsed CSV: named feature columns plus a binary label column."""

    feature_names: list
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in {0, 1}

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]


@dataclass
class Dataset:
    features: np.ndarray  # (n, d) float64
    labels: np.ndarray  # (n,) int64 in {0, 1}

    @property
    def positive_count(self) -> int:
        return int(np.sum(self.labels == 1))

    @property
    def negative_count(self) -> int:
        return int(np.sum(self.labels == 0))


@dataclass(frozen=True)
class SplitSpec:
    """Exact per-class row counts for the train/test partition."""

    train_size: int = 10000
    test_size: int = 5000
    train_positives: int = 315
    test_positives: int = 158

    def __post_init__(self):
        for name in ("train_size", "test_size"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} (--{name.replace('_', '-')}) must be >= 1")
        for side in ("train", "test"):
            size, positives = getattr(self, f"{side}_size"), getattr(self, f"{side}_positives")
            if not 0 <= positives <= size:
                raise ValueError(f"{side}_positives (--{side}-pos) is {positives}, must lie "
                                 f"between 0 and {side}_size (--{side}-size), {size}")


DEGENERATE_EPS = 1e-12
WRITE_CELLS = 2048  # most values write_csv formats in one operation


def load_csv(path, label_column: str = "Class") -> RawTable:
    """Parse a headered CSV of numeric features plus a 0/1 label column.

    Every body cell must be a finite number (see ``_cell_value``).  Raises
    CsvParseError with 1-based file row/column positions for malformed or
    non-finite cells, blank lines and ragged rows, and SchemaError for a
    label column that is missing or named twice, a header with no feature
    column, or non-binary labels.
    """
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        header = [name.strip() for name in header]
        columns = [i + 1 for i, name in enumerate(header) if name == label_column]
        if not columns:
            raise SchemaError(f"{path}: no {label_column!r} column among {header}")
        if len(columns) > 1:
            raise SchemaError(f"{path}: the label {label_column!r} names columns "
                              f"{', '.join(map(str, columns))}; it must name one")
        if len(header) == 1:
            raise SchemaError(f"{path}: no feature column besides {label_column!r}")
        label_idx = columns[0] - 1
        feature_names = [h for i, h in enumerate(header) if i != label_idx]
        values = _read_body(fh, len(header))

    if (
        values is None
        or not np.isfinite(values).all()
        or not np.isin(values[:, label_idx], (0.0, 1.0)).all()
    ):
        _raise_first_bad_cell(path, len(header), label_idx)
        raise SchemaError(f"{path}: the numeric reader rejected the file, "
                          "but no cell breaks the input rules")
    labels = values[:, label_idx].astype(np.int64)
    return RawTable(feature_names, np.delete(values, label_idx, axis=1), labels)


class _CountedLines:
    """Iterates a text handle's lines, counts them, and notes whether any
    holds a character the C reader strips but ``_cell_value`` rejects:
    non-ASCII text or an ASCII separator control, \\x1c to \\x1f."""

    def __init__(self, fh):
        self.fh = fh
        self.count = 0
        self.suspect = False

    def __iter__(self):
        for line in self.fh:
            self.count += 1
            if not line.isascii() or "\x1c" in line or "\x1d" in line \
                    or "\x1e" in line or "\x1f" in line:
                self.suspect = True
            yield line


def _read_body(fh, n_columns: int):
    """The remaining lines of fh parsed as an (n, n_columns) float64 array
    by numpy's C reader, or None when it fails, its shape disagrees with
    the file (it skips blank lines silently, so every line must give a row)
    or a line holds a character it would strip."""
    lines = _CountedLines(fh)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # warns on an empty body
            values = np.loadtxt(lines, delimiter=",", dtype=np.float64, ndmin=2,
                                comments=None, quotechar='"')
    except ValueError:
        return None
    if lines.count == 0:
        return np.empty((0, n_columns))
    if lines.suspect or values.shape != (lines.count, n_columns):
        return None
    return values


def _cell_value(cell: str, row: int, column: int) -> float:
    """The rule every body cell follows: ASCII text that ``float`` reads,
    with no underscore or line break, holding a finite value."""
    try:
        if not cell.isascii() or any(c in cell for c in "_\r\n"):
            raise ValueError(cell)
        value = float(cell)
    except ValueError:
        raise CsvParseError(f"non-numeric cell {cell!r}", row=row, column=column) from None
    if not math.isfinite(value):
        raise CsvParseError(f"non-finite cell {cell!r}", row=row, column=column)
    return value


def _raise_first_bad_cell(path, n_columns: int, label_idx: int) -> None:
    """Re-read the file cell by cell and raise the error of the first row or
    cell, in file order, that breaks the input rules.  Returns only when
    every row follows them."""
    with open(path, newline="", encoding="utf-8-sig", errors="surrogateescape") as fh:
        reader = csv.reader(fh)
        next(reader)
        for row_pos, row in enumerate(reader, start=2):
            if len(row) != n_columns:
                raise CsvParseError(
                    f"expected {n_columns} cells, found {len(row)}",
                    row=row_pos,
                    column=min(len(row) + 1, n_columns),
                )
            for col_pos, cell in enumerate(row, start=1):
                value = _cell_value(cell, row_pos, col_pos)
                if col_pos == label_idx + 1 and value not in (0.0, 1.0):
                    raise SchemaError(
                        f"label must be 0 or 1, found {cell!r} "
                        f"(row {row_pos}, column {col_pos})"
                    )


def dedup(table: RawTable) -> RawTable:
    """Drop rows identical across all features and the label, keeping the
    first occurrence and the survivors' relative order.

    Rows compare as floats, as in ``np.unique(..., axis=0)``: -0.0 equals
    0.0 and a row holding NaN equals no other row.
    """
    features = np.ascontiguousarray(table.features)
    n, d = features.shape
    # equal rows sort next to each other, earliest file position first
    rows = features.view([(f"f{j}", features.dtype) for j in range(d)]).ravel()
    order = np.argsort(rows, kind="stable")
    order = order[np.argsort(table.labels[order], kind="stable")]
    # candidate pairs of sort neighbours, narrowed one column at a time
    later, earlier = order[1:], order[:-1]
    same = table.labels[later] == table.labels[earlier]
    later, earlier = later[same], earlier[same]
    for j in range(d):
        column = features[:, j]
        same = column[later] == column[earlier]
        later, earlier = later[same], earlier[same]
    keep = np.ones(n, dtype=bool)
    keep[later] = False
    return RawTable(list(table.feature_names), features[keep], table.labels[keep])


def stratified_split(
    table: RawTable, spec: SplitSpec, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Partition into train/test with exact per-class counts.

    Positives are assigned to the two sides uniformly at random without
    replacement; negatives fill the remaining slots the same way.  Rows left
    over (when the table is larger than the requested sizes) are dropped.
    """
    train_parts, test_parts = [], []
    for label, name, n_train, n_test in (
        (1, "positive", spec.train_positives, spec.test_positives),
        (0, "negative", spec.train_size - spec.train_positives,
         spec.test_size - spec.test_positives),
    ):
        idx = np.flatnonzero(table.labels == label)
        need = n_train + n_test
        if len(idx) < need:
            raise CapacityError(f"need {need} {name} rows, only {len(idx)} available")
        perm = rng.permutation(idx)
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:need])
    # keep the original file order inside each side
    train_rows = np.sort(np.concatenate(train_parts))
    test_rows = np.sort(np.concatenate(test_parts))
    return (Dataset(table.features[train_rows], table.labels[train_rows]),
            Dataset(table.features[test_rows], table.labels[test_rows]))


def scale_train_test(
    train: Dataset, test: Dataset, feature_names: list
) -> tuple[Dataset, Dataset]:
    """Standardize both sides by the train mean and population standard
    deviation, then min-max scale them by the standardized train range and
    clip to [0, 1]; returns (train_scaled, test_scaled).  A column whose train
    deviation is below DEGENERATE_EPS is only centred; one whose standardized
    train range is below it maps to 0.

    Raises SchemaError naming the first column whose train mean or standard
    deviation overflows float64.  With both finite every standardized train
    value is finite; a test value may still overflow to +-inf, which the
    min-max stage clamps to 1 or 0 like any value outside the train range.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        mean = train.features.mean(axis=0)
        std = train.features.std(axis=0)  # ddof=0, population convention
    finite = np.isfinite(mean) & np.isfinite(std)
    if not finite.all():
        name = feature_names[int(np.argmin(finite))]
        raise SchemaError(f"column {name!r}: its train mean or standard deviation "
                          "overflows float64, so it cannot be standardized")
    divisor = np.where(std < DEGENERATE_EPS, 1.0, std)
    train_std = (train.features - mean) / divisor
    with np.errstate(over="ignore"):
        test_std = (test.features - mean) / divisor
    low = train_std.min(axis=0)
    span = train_std.max(axis=0) - low
    degenerate = span < DEGENERATE_EPS
    width = np.where(degenerate, 1.0, span)

    def to_unit(features, labels):
        scaled = (features - low) / width
        scaled[:, degenerate] = 0.0
        return Dataset(np.clip(scaled, 0.0, 1.0), labels.copy())

    return to_unit(train_std, train.labels), to_unit(test_std, test.labels)


@contextlib.contextmanager
def open_whole(path):
    """Open ``<path>.partial`` for text writing and move it onto ``path`` once
    the block ends; on an exception remove it and re-raise, so ``path`` is
    written whole or not at all."""
    partial = Path(f"{path}.partial")
    try:
        with open(partial, "w", newline="") as fh:
            yield fh
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_csv(path, header, parts) -> None:
    """Write the comma-joined ``header`` names, then every ``(rows,
    row_format)`` part in turn: ``row_format % tuple(row)`` for each row of the
    2-D array ``rows``, with ``row_format`` ending in its own newline.  Each
    ``%`` formats a block of at most WRITE_CELLS values (one row, if a row
    holds more), so no array is turned into text whole; ``parts`` may be an
    iterator, and each part is written before the next is drawn."""
    with open_whole(path) as fh:
        fh.write(",".join(header) + "\n")
        for rows, row_format in parts:
            step = max(1, WRITE_CELLS // rows.shape[1])
            for start in range(0, len(rows), step):
                block = rows[start:start + step]
                fh.write((row_format * len(block)) % tuple(block.ravel().tolist()))
