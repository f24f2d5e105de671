"""Threshold scores and ROC/AUC against a pair-counting oracle."""

import numpy as np
import pytest

from ganbalance import metrics
from ganbalance.errors import PreconditionError, ShapeError, UndefinedAucError
from oracles import pair_count_auc


def _scored(tp=0, fp=0, tn=0, fn=0):
    """Truth and scores whose labels at THRESHOLD give these four counts."""
    counts = [tp, fp, tn, fn]
    return np.repeat([1, 0, 0, 1], counts), np.repeat([0.9, 0.9, 0.1, 0.1], counts)


def test_confusion_perfect():
    rep = metrics.compute_metrics([1, 0], [0.7, 0.2], auc=1.0)
    assert (rep.accuracy, rep.recall, rep.specificity) == (1.0, 1.0, 1.0)


def test_confusion_total_confusion():
    rep = metrics.compute_metrics([1, 1, 0, 0], [0.2, 0.4, 0.6, 0.8], auc=0.0)
    assert (rep.accuracy, rep.recall, rep.precision, rep.specificity) == (0.0, 0.0, 0.0, 0.0)


def test_confusion_hand_count():
    # predicted [1, 1, 0, 0, 0]: a score equal to THRESHOLD labels its row 0
    scores = [0.9, 0.6, metrics.THRESHOLD, 0.1, metrics.THRESHOLD]
    rep = metrics.compute_metrics([1, 0, 1, 0, 0], scores, auc=0.5)
    # tp=1 fp=1 fn=1 tn=2
    assert (rep.accuracy, rep.recall, rep.precision) == (3 / 5, 1 / 2, 1 / 2)
    assert rep.specificity == 2 / 3


def test_confusion_validates_inputs():
    with pytest.raises(ShapeError):
        metrics.compute_metrics([1, 0], [0.9], auc=0.5)
    with pytest.raises(PreconditionError):
        metrics.compute_metrics([1, 2], [0.9, 0.1], auc=0.5)
    with pytest.raises(ShapeError):
        metrics.roc_auc([1, 0], [0.9])
    with pytest.raises(PreconditionError):
        metrics.roc_auc([1, 2], [0.9, 0.1])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_are_refused_by_index(bad):
    # unchecked, a NaN score gives AUC 0.5 and accuracy, recall and precision 1.0
    scores = [0.1, 0.2, bad, 0.8, bad]
    with pytest.raises(PreconditionError, match="^score 2 is not finite$"):
        metrics.roc_auc([0, 0, 1, 1, 1], scores)
    with pytest.raises(PreconditionError, match="^score 2 is not finite$"):
        metrics.compute_metrics([0, 0, 1, 1, 1], scores, auc=0.5)


def test_compute_metrics_perfect():
    rep = metrics.compute_metrics(*_scored(tp=1, tn=1), auc=1.0)
    assert rep.accuracy == rep.recall == rep.precision == rep.f1 == rep.specificity == 1.0


def test_compute_metrics_degenerate_zero_convention():
    # no predicted positives and no true positives: precision = recall = 0
    rep = metrics.compute_metrics(*_scored(tp=0, fp=0, tn=3, fn=2), auc=0.5)
    assert rep.precision == 0.0
    assert rep.recall == 0.0
    assert rep.f1 == 0.0


def test_compute_metrics_empty_matrix():
    with pytest.raises(PreconditionError):
        metrics.compute_metrics([], [], auc=0.5)


def test_compute_metrics_fraud_sized_example():
    # 5000-row test set: 125 caught frauds, 33 missed, 3 false alarms
    rep = metrics.compute_metrics(*_scored(tp=125, fn=33, fp=3, tn=4839), auc=0.89)
    assert abs(rep.accuracy - 0.9928) < 1e-12
    assert abs(rep.recall - 125 / 158) < 1e-12
    assert abs(rep.precision - 125 / 128) < 1e-12
    assert abs(rep.f1 - 0.8741) < 5e-4
    assert abs(rep.specificity - 4839 / 4842) < 1e-12


def test_metrics_bounds():
    rng = np.random.default_rng(5)
    for _ in range(50):
        counts = rng.integers(0, 40, size=4)
        if counts.sum() == 0:
            continue
        rep = metrics.compute_metrics(*_scored(*map(int, counts)), auc=float(rng.random()))
        for value in (rep.accuracy, rep.recall, rep.precision, rep.f1,
                      rep.specificity, rep.auc_roc):
            assert 0.0 <= value <= 1.0


def test_roc_perfect_and_inverted():
    _, auc = metrics.roc_auc([1, 1, 0, 0], [0.9, 0.8, 0.2, 0.1])
    assert auc == 1.0
    _, auc = metrics.roc_auc([1, 1, 0, 0], [0.1, 0.2, 0.8, 0.9])
    assert auc == 0.0


def test_roc_hand_example():
    curve, auc = metrics.roc_auc([1, 0, 1, 0], [0.9, 0.8, 0.7, 0.1])
    assert auc == 0.75
    assert tuple(curve[0]) == (0.0, 0.0)
    assert tuple(curve[-1]) == (1.0, 1.0)


def test_roc_curve_is_monotone():
    rng = np.random.default_rng(9)
    for _ in range(30):
        n = int(rng.integers(5, 60))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        scores = np.round(rng.random(n), 2)  # rounding forces ties
        curve, _ = metrics.roc_auc(y, scores)
        diffs = np.diff(curve, axis=0)
        assert np.all(diffs >= 0.0)


def test_trapezoid_auc_equals_pair_counting():
    rng = np.random.default_rng(21)
    for _ in range(200):
        n = int(rng.integers(4, 200))
        y = rng.integers(0, 2, size=n)
        if y.min() == y.max():
            continue
        # quantized scores produce plenty of exact ties
        scores = np.round(rng.random(n), 1)
        _, auc = metrics.roc_auc(y, scores)
        assert abs(auc - pair_count_auc(y, scores)) < 1e-9


def test_auc_invariant_under_monotone_transform():
    rng = np.random.default_rng(33)
    y = rng.integers(0, 2, size=80)
    y[:3] = [0, 1, 0]  # both classes guaranteed
    scores = rng.random(80)
    curve_a, auc_a = metrics.roc_auc(y, scores)
    curve_b, auc_b = metrics.roc_auc(y, np.exp(3.0 * scores) + 7.0)
    assert abs(auc_a - auc_b) < 1e-12
    assert np.allclose(curve_a, curve_b)


def test_auc_single_class_is_undefined():
    with pytest.raises(UndefinedAucError):
        metrics.roc_auc([1, 1, 1], [0.1, 0.5, 0.9])
    with pytest.raises(UndefinedAucError):
        metrics.roc_auc([0, 0], [0.1, 0.5])
