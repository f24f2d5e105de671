"""Confusion-matrix scores and ROC/AUC for binary classifiers.

Ratio metrics use the 0/0 -> 0 convention so reports stay total even for
degenerate predictions.  The ROC curve sweeps unique score values as
thresholds (descending), which makes it independent of row order, and the
trapezoidal AUC then coincides with the Mann-Whitney pair statistic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ganbalance.errors import PreconditionError, ShapeError, UndefinedAucError


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    recall: float
    precision: float
    f1: float
    specificity: float
    auc_roc: float


def _check_binary(name: str, values: np.ndarray) -> None:
    if not np.all((values == 0) | (values == 1)):
        raise PreconditionError(f"{name} must contain only 0 and 1")


def confusion(y_true, y_pred) -> ConfusionMatrix:
    t = np.asarray(y_true)
    p = np.asarray(y_pred)
    if t.shape != p.shape or t.ndim != 1:
        raise ShapeError(f"label vectors must match: {t.shape} vs {p.shape}")
    _check_binary("y_true", t)
    _check_binary("y_pred", p)
    tp = int(np.sum((t == 1) & (p == 1)))
    fp = int(np.sum((t == 0) & (p == 1)))
    tn = int(np.sum((t == 0) & (p == 0)))
    fn = int(np.sum((t == 1) & (p == 0)))
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def compute_metrics(cm: ConfusionMatrix, auc: float) -> MetricsReport:
    if cm.total <= 0:
        raise PreconditionError("confusion matrix is empty")
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    return MetricsReport(
        accuracy=(cm.tp + cm.tn) / cm.total,
        recall=recall,
        precision=precision,
        f1=_ratio(2.0 * precision * recall, precision + recall),
        specificity=_ratio(cm.tn, cm.tn + cm.fp),
        auc_roc=float(auc),
    )


def roc_auc(y_true, scores) -> tuple[np.ndarray, float]:
    """ROC curve, (k, 2) (fpr, tpr) rows from (0,0) to (1,1) non-decreasing in
    both, and trapezoidal AUC; raises when truth has a single class."""
    t = np.asarray(y_true)
    s = np.asarray(scores, dtype=np.float64)
    if t.shape != s.shape or t.ndim != 1:
        raise ShapeError(f"labels/scores must match: {t.shape} vs {s.shape}")
    _check_binary("y_true", t)
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
