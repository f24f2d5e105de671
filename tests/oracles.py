"""Independent reference implementations used to cross-check the library.

These deliberately avoid the library's own code paths: gradients come from
central finite differences, AUC from explicit pair counting, tree splits
from exhaustive enumeration, the split scan from a plain loop, Adam from one
update per parameter array, CSV cells from one ``float()`` call each and
trees from an argsort at every node, so a shared bug cannot hide in both
routes.  The backward walk and the SVM loop are also kept here in their
allocating form, to pin the in-place library versions to them bit for bit.
The SVM and network training loops gather each minibatch's rows by index,
to pin the library's slices of one shuffled copy per epoch to them.  The
output CSVs are written by one f-string per value, to pin the shared
printf-style row writer to them byte for byte.
"""

from __future__ import annotations

import csv
from fractions import Fraction

import numpy as np

from ganbalance import nn
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


def per_array_adam_step(params, grads, first_moments, second_moments, step_count,
                        learning_rate, beta1=0.9, beta2=0.999, epsilon=1e-8):
    """Adam with one update per parameter array, in place.

    This is the update as it ran before parameters shared one vector: a loop
    over the arrays, each updated on its own.  The kernel's arithmetic is
    written out here in its operation order, so reordering the kernel's
    floating-point operations changes its bits against this reference.
    ``step_count`` is the step being taken (1 for the first).
    """
    c1 = 1.0 - beta1**step_count
    c2 = 1.0 - beta2**step_count
    for p, g, m, v in zip(params, grads, first_moments, second_moments):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        p -= learning_rate * (m / c1) / (np.sqrt(v / c2) + epsilon)


def reference_loss_delta(last_kind, predicted, targets):
    """(prediction - target) over the element count after a sigmoid, over
    the row count after a softmax."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    return (p - t) / (p.size if last_kind == "sigmoid" else p.shape[0])


def _copy_into(flat, end, first, second):
    """Copy first then second into the slice of flat ending at end; return
    where that slice starts."""
    mid = end - second.size
    flat[mid - first.size : mid] = first.ravel()
    flat[mid:end] = second
    return mid - first.size


def reference_backward(net, cache, delta, start, bn_eps=1e-5):
    """The backward walk with every array newly allocated.

    Walks from layer ``start`` down to the input of a training forward's
    cache, copies each layer's gradients into a new flat vector laid out as
    ``net.flat``, and computes layer 0's input gradient too.  Each
    operation is written out in the library's order.  Returns (flat
    gradient, d/d(input)).
    """
    flat = np.empty_like(net.flat)
    end = flat.size
    for i in range(start, -1, -1):
        kind = net.spec[i].kind
        entry = cache.layer_data[i]
        if kind == "dense":
            delta = np.ascontiguousarray(delta)
            d_w = np.dot(np.ascontiguousarray(entry.T), delta)
            d_b = np.sum(delta, axis=0)
            delta = np.dot(delta, np.ascontiguousarray(net.layers[i].weights.T))
            end = _copy_into(flat, end, d_w, d_b)
        elif kind == "relu":
            delta = np.where(entry > 0.0, delta, 0.0)
        elif kind == "sigmoid":
            delta = delta * entry * (1.0 - entry)
        elif kind == "softmax":
            y = entry
            delta = y * (delta - np.sum(delta * y, axis=1, keepdims=True))
        elif kind == "batchnorm":
            delta = np.ascontiguousarray(delta)
            (xhat, var), gamma = entry, net.layers[i].gamma
            n = delta.shape[0]
            d_gamma = np.sum(delta * xhat, axis=0)
            d_beta = np.sum(delta, axis=0)
            inv_std = 1.0 / np.sqrt(var + bn_eps)
            delta = (gamma * inv_std) * (
                delta - np.sum(delta, axis=0) / n - xhat * (np.sum(delta * xhat, axis=0) / n)
            )
            end = _copy_into(flat, end, d_gamma, d_beta)
        elif kind == "dropout":
            delta = delta * entry
    return flat, delta


def reference_svm(features, labels, epochs, batch_size, learning_rate, regularization, seed):
    """Minibatch subgradient descent on lambda*|w|^2 + mean hinge, in the
    library's operation and rng order.  Returns (w, b, the number of
    minibatches that had no margin violator)."""
    x = np.ascontiguousarray(features, dtype=np.float64)
    y = np.where(labels == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(x.shape[1])
    b = 0.0
    quiet = 0
    for _ in range(epochs):
        order = rng.permutation(len(y))
        for start in range(0, len(y), batch_size):
            idx = order[start : start + batch_size]
            xb = x[idx]
            yb = y[idx]
            violating = yb * (xb @ w + b) < 1.0
            grad_w = 2.0 * regularization * w
            if violating.any():
                grad_w = grad_w - (yb[violating] @ xb[violating]) / len(idx)
                grad_b = -float(np.sum(yb[violating])) / len(idx)
            else:
                grad_b = 0.0
                quiet += 1
            w -= learning_rate * grad_w
            b -= learning_rate * grad_b
    return w, b, quiet


def reference_train_network(spec, x, targets, epochs, batch_size, learning_rate, seed):
    """Adam on minibatches of (x, targets), each gathered by index from one
    rng.permutation per epoch, in the library's rng order.  Returns the
    trained network."""
    rng = np.random.default_rng(seed)
    net = nn.init_network(spec, rng, learning_rate)
    for _ in range(epochs):
        order = rng.permutation(len(targets))
        for start in range(0, len(targets), batch_size):
            idx = order[start : start + batch_size]
            _, cache = nn.forward(net, x[idx])
            nn.backward(cache, targets[idx])
            nn.adam_step(net)
    return net


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


def reference_stratified_split(features, labels, spec, rng):
    """The split on separate feature and label arrays of the rows in play:
    per class (1, then 0) one ``rng.permutation`` of its positions, the first
    rows to train and the next to test, each side gathered in file order.
    Returns ((train_x, train_y), (test_x, test_y))."""
    train_parts, test_parts = [], []
    for label, n_train, n_test in (
        (1, spec.train_positives, spec.test_positives),
        (0, spec.train_size - spec.train_positives, spec.test_size - spec.test_positives),
    ):
        perm = rng.permutation(np.flatnonzero(labels == label))
        train_parts.append(perm[:n_train])
        test_parts.append(perm[n_train:n_train + n_test])
    sides = [np.sort(np.concatenate(parts)) for parts in (train_parts, test_parts)]
    return tuple((features[rows], labels[rows]) for rows in sides)


def per_node_argsort_tree(x, y, depth: int, max_depth: int, min_leaf: int) -> TreeNode:
    """CART grown by stable-argsorting every column at every node and
    copying each child's rows, with ``split_scan_loop``."""
    n = len(y)
    n_pos = int(np.sum(y))
    prob = n_pos / n
    if n_pos in (0, n) or depth >= max_depth or n < 2 * min_leaf:
        return TreeNode(prob=prob)
    best_score, best_feature, best_threshold = -1.0, -1, 0.0
    for j in range(x.shape[1]):
        order = np.argsort(x[:, j], kind="stable")
        score, threshold, found = split_scan_loop(x[order, j], y[order], min_leaf)
        if found and score > best_score:
            best_score, best_feature, best_threshold = score, j, float(threshold)
    if best_feature < 0:
        return TreeNode(prob=prob)
    go_left = x[:, best_feature] <= best_threshold
    return TreeNode(
        prob=prob,
        feature=best_feature,
        threshold=best_threshold,
        left=per_node_argsort_tree(x[go_left], y[go_left], depth + 1, max_depth, min_leaf),
        right=per_node_argsort_tree(x[~go_left], y[~go_left], depth + 1, max_depth, min_leaf),
    )


def fstring_samples_csv(samples, path) -> None:
    header = ",".join(f"f{i}" for i in range(samples.shape[1]))
    with open(path, "w", newline="") as fh:
        fh.write(header + "\n")
        for row in samples:
            fh.write(",".join(f"{v:.9f}" for v in row) + "\n")


def fstring_log_csv(log, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("epoch,gen_loss,disc_loss,disc_acc\n")
        for e, g, d, a in log:
            fh.write(f"{e},{g:.6f},{d:.6f},{a:.6f}\n")


def fstring_roc_csv(points, path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write("fpr,tpr\n")
        for fpr, tpr in points:
            fh.write(f"{fpr:.9f},{tpr:.9f}\n")


def fstring_augmented_csv(features, labels, provenance, path) -> None:
    d = features.shape[1]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f"f{i}" for i in range(d)) + ",label,provenance\n")
        for row, label, tag in zip(features, labels, provenance):
            cells = ",".join(f"{v:.9f}" for v in row)
            fh.write(f"{cells},{label},{tag}\n")
