"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own code paths: gradients come from
central finite differences, AUC from explicit pair counting, tree splits
from exhaustive enumeration, the split scan from a plain loop, CSV cells
from one ``float()`` call each and trees from an argsort at every node, so a
shared bug cannot hide in both routes.
"""

from __future__ import annotations

import csv
from fractions import Fraction

import numpy as np

from ganbalance import kernels
from ganbalance.classifiers import TreeNode
from ganbalance.errors import CsvParseError, SchemaError


def finite_difference_gradients(loss_fn, arrays, h: float = 1e-5):
    """Central-difference gradient of loss_fn() for each array, in place.

    loss_fn takes no arguments and must read the arrays each call; entries
    are perturbed one at a time and restored afterwards.
    """
    grads = []
    for arr in arrays:
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            original = flat[i]
            flat[i] = original + h
            plus = loss_fn()
            flat[i] = original - h
            minus = loss_fn()
            flat[i] = original
            gflat[i] = (plus - minus) / (2.0 * h)
        grads.append(g)
    return grads


def max_relative_error(analytic, reference, floor: float = 1e-6) -> float:
    """Worst elementwise |a - r| / max(|a|, |r|, floor) over array pairs."""
    worst = 0.0
    for a, r in zip(analytic, reference):
        denom = np.maximum(np.maximum(np.abs(a), np.abs(r)), floor)
        worst = max(worst, float(np.max(np.abs(a - r) / denom)))
    return worst


def pair_count_auc(y_true, scores) -> float:
    """Mann-Whitney AUC: (concordant + 0.5 * tied) / (positives * negatives)."""
    y = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    pos = s[y == 1]
    neg = s[y == 0]
    if len(pos) == 0 or len(neg) == 0:
        raise ValueError("need both classes")
    total = 0.0
    for p in pos:
        total += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return float(total) / (len(pos) * len(neg))


def gini(labels) -> float:
    y = np.asarray(labels)
    n = len(y)
    if n == 0:
        return 0.0
    p1 = np.sum(y == 1) / n
    return 1.0 - p1 * p1 - (1.0 - p1) * (1.0 - p1)


def _gini_fraction(labels) -> Fraction:
    y = np.asarray(labels)
    n = len(y)
    if n == 0:
        return Fraction(0)
    pos = int(np.sum(y == 1))
    neg = n - pos
    return 1 - Fraction(pos * pos + neg * neg, n * n)


def brute_force_best_split(x, y, min_leaf: int = 1):
    """Exhaustive search over (feature, midpoint) candidates.

    Gains are exact rationals, so ties are exact and the documented rule
    ("lowest feature index, then lowest threshold"; a strictly larger gain
    replaces) is unambiguous.  Returns (gain: Fraction, feature, threshold)
    or None when no candidate satisfies min_leaf.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y)
    n, d = x.shape
    parent = _gini_fraction(y)
    best = None
    for j in range(d):
        distinct = np.unique(x[:, j])
        for a, b in zip(distinct[:-1], distinct[1:]):
            thr = (a + b) / 2.0
            mask = x[:, j] <= thr
            nl = int(mask.sum())
            nr = n - nl
            if nl < min_leaf or nr < min_leaf:
                continue
            gain = (
                parent
                - Fraction(nl, n) * _gini_fraction(y[mask])
                - Fraction(nr, n) * _gini_fraction(y[~mask])
            )
            if best is None or gain > best[0]:
                best = (gain, j, thr)
    return best


def split_scan_loop(values, labels, min_leaf):
    """The split scan as one pass over the sorted column, in plain Python.

    Scores each boundary between distinct values with the same single
    division as the kernel; a strictly larger score replaces the best, so
    the lowest threshold wins a tie.  Returns (score, threshold, found).
    """
    n = values.shape[0]
    if n < 2:
        return -1.0, 0.0, False
    total_pos = 0
    for i in range(n):
        total_pos += int(labels[i])
    best_score = -1.0
    best_thr = 0.0
    found = False
    pos = 0
    for i in range(n - 1):
        pos += int(labels[i])
        if values[i] == values[i + 1]:
            continue
        nl = i + 1
        nr = n - nl
        if nl < min_leaf or nr < min_leaf:
            continue
        pl = pos
        ql = nl - pl
        pr = total_pos - pos
        qr = nr - pr
        num = (pl * pl + ql * ql) * nr + (pr * pr + qr * qr) * nl
        score = num / (nl * nr)
        if score > best_score:
            best_score = score
            best_thr = float((values[i] + values[i + 1]) / 2.0)
            found = True
    return best_score, best_thr, found


def per_cell_load_csv(path, label_column: str = "Class", parse_cell=float):
    """Parse a headered numeric CSV with ``csv`` and one ``float()`` per cell.

    Returns (feature_names, features, labels).  Raises CsvParseError with
    1-based row/column for ragged rows and cells parse_cell rejects with
    ValueError, and SchemaError for a missing label column or a label other
    than 0/1.  With the default float(), underscores, nan and inf get through.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{path}: file is empty, expected a header row") from None
        header = [name.strip() for name in header]
        if label_column not in header:
            raise SchemaError(f"{path}: no {label_column!r} column among {header}")
        label_idx = header.index(label_column)
        feature_names = [h for i, h in enumerate(header) if i != label_idx]

        feature_rows = []
        labels = []
        for row_pos, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise CsvParseError(
                    f"expected {len(header)} cells, found {len(row)}",
                    row=row_pos,
                    column=min(len(row) + 1, len(header)),
                )
            parsed = []
            for col_pos, cell in enumerate(row):
                try:
                    value = parse_cell(cell)
                except ValueError:
                    raise CsvParseError(
                        f"non-numeric cell {cell!r}", row=row_pos, column=col_pos + 1
                    ) from None
                if col_pos == label_idx:
                    if value not in (0.0, 1.0):
                        raise SchemaError(
                            f"label must be 0 or 1, found {cell!r} "
                            f"(row {row_pos}, column {col_pos + 1})"
                        )
                    labels.append(int(value))
                else:
                    parsed.append(value)
            feature_rows.append(parsed)

    features = np.array(feature_rows, dtype=np.float64).reshape(len(feature_rows), len(feature_names))
    return feature_names, features, np.asarray(labels, dtype=np.int64)


def per_node_argsort_tree(x, y, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    """CART grown by stable-argsorting every column at every node and
    copying each child's rows, with the library's split scan."""
    n = len(y)
    n_pos = int(np.sum(y))
    prob = n_pos / n
    if n_pos in (0, n) or depth >= max_depth or n < 2 * min_leaf:
        return TreeNode(prob=prob, count=n)
    best_score, best_feature, best_threshold = -1.0, -1, 0.0
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        score, threshold, found = kernels.split_scan(
            np.ascontiguousarray(x[order, j]), np.ascontiguousarray(y[order]), min_leaf
        )
        if found and score > best_score:
            best_score, best_feature, best_threshold = score, j, float(threshold)
    if best_feature < 0:
        return TreeNode(prob=prob, count=n)
    go_left = x[:, best_feature] <= best_threshold
    return TreeNode(
        prob=prob,
        count=n,
        feature=best_feature,
        threshold=best_threshold,
        left=per_node_argsort_tree(x[go_left], y[go_left], depth + 1, max_depth, min_leaf),
        right=per_node_argsort_tree(x[~go_left], y[~go_left], depth + 1, max_depth, min_leaf),
    )
