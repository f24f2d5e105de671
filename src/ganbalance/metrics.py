"""Scores at THRESHOLD and ROC/AUC for binary classifiers.

Ratio metrics use the 0/0 -> 0 convention so reports stay total even for
degenerate predictions.  The ROC curve sweeps unique score values as
thresholds (descending), which makes it independent of row order, and the
trapezoidal AUC then coincides with the Mann-Whitney pair statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ganbalance.errors import PreconditionError, ShapeError, UndefinedAucError

THRESHOLD = 0.5  # a row is labelled 1 iff its score is strictly above it


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    recall: float
    precision: float
    f1: float
    specificity: float
    auc_roc: float


def _labels_and_scores(y_true, scores) -> tuple[np.ndarray, np.ndarray]:
    """``y_true`` as an array of 0/1 labels and ``scores`` as float64, both
    1-D and of one shape."""
    t = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ShapeError(f"labels/scores must match: {t.shape} vs {s.shape}")
    if not np.all((t == 0) | (t == 1)):
        raise PreconditionError("y_true must contain only 0 and 1")
    return t, s


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(y_true, scores, auc: float) -> MetricsReport:
    """Accuracy, recall, precision, F1 and specificity of labelling each row
    1 iff its score is strictly above THRESHOLD, against the 0/1 truth
    ``y_true``; ``auc`` is passed through."""
    t, s = _labels_and_scores(y_true, scores)
    predicted = s > THRESHOLD
    if t.size == 0:
        raise PreconditionError("no rows to score")
    actual = t == 1
    tp = int(np.sum(actual & predicted))
    fp = int(np.sum(predicted)) - tp
    fn = int(np.sum(actual)) - tp
    tn = t.size - tp - fp - fn
    recall = _ratio(tp, tp + fn)
    precision = _ratio(tp, tp + fp)
    return MetricsReport(
        accuracy=(tp + tn) / t.size,
        recall=recall,
        precision=precision,
        f1=_ratio(2.0 * precision * recall, precision + recall),
        specificity=_ratio(tn, tn + fp),
        auc_roc=float(auc),
    )


def roc_auc(y_true, scores) -> tuple[np.ndarray, float]:
    """ROC curve, (k, 2) (fpr, tpr) rows from (0,0) to (1,1) non-decreasing in
    both, and trapezoidal AUC; raises when truth has a single class."""
    t, s = _labels_and_scores(y_true, scores)
    n_pos = int(np.sum(t == 1))
    n_neg = int(np.sum(t == 0))
    if n_pos == 0 or n_neg == 0:
        raise UndefinedAucError(
            f"AUC needs both classes, got {n_pos} positives / {n_neg} negatives"
        )

    pos_sorted = np.sort(s[t == 1])
    neg_sorted = np.sort(s[t == 0])
    thresholds = np.unique(s)[::-1]
    # predicted positive iff score >= threshold
    tpr = (n_pos - np.searchsorted(pos_sorted, thresholds, side="left")) / n_pos
    fpr = (n_neg - np.searchsorted(neg_sorted, thresholds, side="left")) / n_neg
    fpr = np.concatenate([[0.0], fpr])
    tpr = np.concatenate([[0.0], tpr])
    auc = float(np.trapezoid(tpr, fpr))
    return np.column_stack([fpr, tpr]), auc
