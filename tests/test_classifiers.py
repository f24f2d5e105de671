"""The four classifier trainers and the shared scoring interface."""

import tracemalloc

import numpy as np
import pytest

from ganbalance import classifiers as cl
from ganbalance import nn
from ganbalance.data import Dataset
from ganbalance.errors import DegenerateDataError, PreconditionError, ShapeError
from helpers import gaussian_blobs, parameter_arrays
from oracles import (
    brute_force_best_split,
    per_node_argsort_tree,
    reference_svm,
    reference_train_network,
)


def _separable_1d(n=60, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    neg = rng.uniform(-3.0, -margin, size=n // 2)
    pos = rng.uniform(margin, 3.0, size=n - n // 2)
    x = np.concatenate([neg, pos]).reshape(-1, 1)
    y = np.array([0] * (n // 2) + [1] * (n - n // 2), dtype=np.int64)
    order = rng.permutation(n)
    return Dataset(x[order], y[order])


def _label_free(n=400, dim=3, seed=1):
    # labels independent of features: best constant model predicts 0.5
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = np.array([0, 1] * (n // 2), dtype=np.int64)
    return Dataset(x, rng.permutation(y))


def test_logreg_separable_reaches_full_accuracy(monkeypatch):
    monkeypatch.setattr(cl, "LOGREG_LR", 0.05)
    ds = _separable_1d()
    model = cl.train_logreg(ds, cl.TrainConfig(epochs=300, seed=2))
    predicted = cl.predict_score(model, ds.features) > 0.5
    assert np.array_equal(predicted, ds.labels)


def test_logreg_label_free_data_predicts_half():
    ds = _label_free()
    model = cl.train_logreg(ds, cl.TrainConfig(epochs=100, seed=3))
    mean_score = float(np.mean(cl.predict_score(model, ds.features)))
    assert abs(mean_score - 0.5) < 0.05


def test_logreg_deterministic():
    ds = _separable_1d(seed=4)
    a = cl.train_logreg(ds, cl.TrainConfig(seed=5))
    b = cl.train_logreg(ds, cl.TrainConfig(seed=5))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


def test_logreg_single_class_error():
    ds = Dataset(np.zeros((4, 2)), np.ones(4, dtype=np.int64))
    with pytest.raises(DegenerateDataError):
        cl.train_logreg(ds, cl.TrainConfig())


def test_svm_separable_classifies_training_set(monkeypatch):
    monkeypatch.setattr(cl, "SVM_LR", 0.05)
    ds = _separable_1d(seed=6)
    model = cl.train_svm(ds, cl.TrainConfig(epochs=300, seed=7))
    margins = ds.features @ model.weights + model.bias
    signs = np.where(margins > 0.0, 1, 0)
    assert np.array_equal(signs, ds.labels)


def test_svm_deterministic():
    ds = _separable_1d(seed=10)
    a = cl.train_svm(ds, cl.TrainConfig(seed=11))
    b = cl.train_svm(ds, cl.TrainConfig(seed=11))
    assert np.array_equal(a.weights, b.weights) and a.bias == b.bias


@pytest.mark.parametrize("dim", [10, 30])
@pytest.mark.parametrize("learning_rate", [cl.SVM_LR, 0.5])
def test_svm_matches_reference_loop_bit_for_bit(dim, learning_rate, monkeypatch):
    ds = gaussian_blobs(np.random.default_rng(dim), n_pos=60, n_neg=340, dim=dim,
                        pos_mean=0.7, neg_mean=0.3, sd=0.08)
    monkeypatch.setattr(cl, "SVM_LR", learning_rate)
    config = cl.TrainConfig(epochs=40, seed=5)
    model = cl.train_svm(ds, config)
    w, b, quiet = reference_svm(ds.features, ds.labels, 40, config.batch_size,
                                learning_rate, cl.SVM_LAMBDA, 5)
    assert np.array_equal(model.weights, w)
    assert model.bias == b
    if learning_rate == 0.5:
        assert quiet > 0  # the branch without margin violators ran too


@pytest.mark.parametrize("dim", [10, 30])
def test_network_trainers_match_reference_loop_bit_for_bit(dim, monkeypatch):
    # 400 rows in batches of 64: every epoch ends on a 16-row batch
    ds = gaussian_blobs(np.random.default_rng(dim), n_pos=60, n_neg=340, dim=dim)
    monkeypatch.setattr(cl, "LOGREG_LR", 1e-2)
    monkeypatch.setattr(cl, "MLP_LR", 1e-2)
    config = cl.TrainConfig(epochs=20, seed=5)
    args = (20, config.batch_size, 1e-2, 5)
    logreg = cl.train_logreg(ds, config)
    reference = reference_train_network([nn.dense(dim, 1), nn.sigmoid(1)], ds.features,
                                        ds.labels.astype(np.float64).reshape(-1, 1), *args)
    assert np.array_equal(logreg.weights, reference.layers[0].weights[:, 0])
    assert logreg.bias == reference.layers[0].bias[0]
    mlp = cl.train_mlp(ds, config)
    reference = reference_train_network(cl.mlp_spec(dim), ds.features, np.eye(2)[ds.labels],
                                        *args)
    assert np.array_equal(mlp.flat, reference.flat)


@pytest.mark.parametrize("trainer, bound", [
    pytest.param(trainer, bound, id=trainer.__name__)
    for trainer, bound in ((cl.train_svm, 1.6), (cl.train_logreg, 1.6), (cl.train_mlp, 1.6),
                           (cl.train_tree, 3.0))])
def test_fit_memory_peak_holds_one_epoch_buffer(trainer, bound):
    # network and SVM fits: one row buffer per fit, refilled in each epoch's
    # order, about 1.1-1.4x the feature matrix; a second live copy at an epoch
    # boundary passes 2x.  The tree: one (d, n) index buffer partitioned in
    # place plus a split's transient halves, about 2.3x; an index copy per
    # node kept alive along the recursion path passes 3x
    ds = gaussian_blobs(np.random.default_rng(31), n_pos=4000, n_neg=16000, dim=30)
    tracemalloc.start()
    try:
        trainer(ds, cl.TrainConfig(epochs=5, seed=1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < bound * ds.features.nbytes


@pytest.mark.parametrize("trainer", [cl.train_logreg, cl.train_svm, cl.train_tree, cl.train_mlp])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_trainers_refuse_a_non_finite_feature_by_row_and_column(trainer, bad):
    # unchecked, a NaN cell gives NaN scores (logreg, MLP) or is fitted as data (SVM, tree)
    ds = _label_free(n=200)
    ds.features[150, 2] = bad
    ds.features[170, 0] = bad
    with pytest.raises(PreconditionError, match="^feature at row 150, column 2 is not finite$"):
        trainer(ds, cl.TrainConfig(epochs=1))


def test_svm_single_class_error():
    ds = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(DegenerateDataError):
        cl.train_svm(ds, cl.TrainConfig())


def test_train_config_validation():
    for bad in (dict(epochs=0), dict(batch_size=0)):
        with pytest.raises(ValueError, match=f"{next(iter(bad))} must be >= 1"):
            cl.TrainConfig(**bad)


def test_tree_needs_a_row():
    with pytest.raises(ValueError, match="at least one row"):
        cl.train_tree(Dataset(np.zeros((0, 2)), np.zeros(0, dtype=np.int64)), cl.TrainConfig())


def test_tree_pure_data_single_leaf():
    ds = Dataset(np.random.default_rng(0).normal(size=(10, 3)), np.ones(10, dtype=np.int64))
    model = cl.train_tree(ds, cl.TrainConfig())
    assert model.root.is_leaf
    assert model.root.prob == 1.0
    assert np.array_equal(cl.predict_score(model, ds.features), np.ones(10))


def test_tree_solves_xor_at_depth_two(monkeypatch):
    monkeypatch.setattr(cl, "TREE_MAX_DEPTH", 2)
    x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    y = np.array([0, 1, 1, 0], dtype=np.int64)
    model = cl.train_tree(Dataset(x, y), cl.TrainConfig())
    assert np.array_equal(cl.predict_score(model, x) > 0.5, y)


def test_tree_root_split_matches_exhaustive_search(monkeypatch):
    monkeypatch.setattr(cl, "TREE_MAX_DEPTH", 1)
    rng = np.random.default_rng(13)
    for trial in range(60):
        n = int(rng.integers(2, 17))
        d = int(rng.integers(1, 5))
        x = rng.integers(0, 4, size=(n, d)).astype(np.float64)
        y = rng.integers(0, 2, size=n).astype(np.int64)
        model = cl.train_tree(Dataset(x, y), cl.TrainConfig())
        oracle = brute_force_best_split(x, y, min_leaf=1)
        pure = y.min() == y.max()
        if oracle is None or pure:
            assert model.root.is_leaf, f"trial {trial}: expected leaf"
        else:
            _, feature, threshold = oracle
            assert not model.root.is_leaf, f"trial {trial}: expected split"
            assert model.root.feature == feature, f"trial {trial}"
            assert model.root.threshold == threshold, f"trial {trial}"


def test_tree_equals_per_node_argsort_tree_under_heavy_ties(monkeypatch):
    # one sort per column at the root must grow the same tree, thresholds
    # and all, as a stable argsort of each node's rows
    rng = np.random.default_rng(16)
    for trial in range(30):
        n = int(rng.integers(2, 300))
        d = int(rng.integers(1, 6))
        x = rng.integers(0, int(rng.integers(2, 6)), size=(n, d)) / 4.0
        y = rng.integers(0, 2, size=n).astype(np.int64)
        max_depth = int(rng.integers(1, 7))
        monkeypatch.setattr(cl, "TREE_MAX_DEPTH", max_depth)
        model = cl.train_tree(Dataset(x, y), cl.TrainConfig())
        expected = per_node_argsort_tree(x, y, 0, max_depth, min_leaf=1)
        assert model.root == expected, f"trial {trial}"


def test_tree_respects_max_depth(monkeypatch):
    monkeypatch.setattr(cl, "TREE_MAX_DEPTH", 3)
    rng = np.random.default_rng(14)
    x = rng.normal(size=(200, 3))
    y = rng.integers(0, 2, size=200).astype(np.int64)
    model = cl.train_tree(Dataset(x, y), cl.TrainConfig())

    def depth(node):
        if node.is_leaf:
            return 0
        return 1 + max(depth(node.left), depth(node.right))

    assert depth(model.root) <= 3


def test_mlp_separable_reaches_high_accuracy(monkeypatch):
    monkeypatch.setattr(cl, "MLP_LR", 1e-2)
    ds = _separable_1d(n=80, seed=16)
    config = cl.TrainConfig(epochs=400, seed=17)
    model = cl.train_mlp(ds, config)
    accuracy = float(np.mean((cl.predict_score(model, ds.features) > 0.5) == ds.labels))
    assert accuracy >= 0.95


def test_mlp_untrained_outputs_near_uniform():
    rng = np.random.default_rng(18)
    from ganbalance import nn

    model = nn.init_network(cl.mlp_spec(4), rng, cl.MLP_LR)
    scores = cl.predict_score(model, rng.normal(size=(50, 4)) * 0.1)
    assert np.all(np.abs(scores - 0.5) < 0.2)


def test_mlp_deterministic():
    ds = _separable_1d(seed=19)
    config = cl.TrainConfig(epochs=20, seed=20)
    a = cl.train_mlp(ds, config)
    b = cl.train_mlp(ds, config)
    for pa, pb in zip(parameter_arrays(a), parameter_arrays(b)):
        assert np.array_equal(pa, pb)


def test_mlp_single_class_error():
    ds = Dataset(np.zeros((4, 2)), np.zeros(4, dtype=np.int64))
    with pytest.raises(DegenerateDataError):
        cl.train_mlp(ds, cl.TrainConfig())


def test_mlp_label_agrees_with_argmax():
    ds = _separable_1d(n=40, seed=21)
    model = cl.train_mlp(ds, cl.TrainConfig(epochs=30, seed=22))
    from ganbalance import nn

    probs = nn.predict(model, ds.features)
    argmax = probs.argmax(axis=1)
    labels = cl.predict_score(model, ds.features) > 0.5
    assert np.array_equal(labels, argmax)


def test_predict_score_trivial_values():
    linear = cl.LinearModel(np.zeros(3), 0.0)
    assert np.array_equal(cl.predict_score(linear, np.ones((2, 3))), [0.5, 0.5])

    leaf = cl.TreeNode(prob=0.25)
    tree = cl.DecisionTreeModel(leaf, 2)
    assert np.array_equal(cl.predict_score(tree, np.zeros((3, 2))), [0.25] * 3)


def test_predict_score_shape_error():
    model = cl.LinearModel(np.zeros(3), 0.0)
    with pytest.raises(ShapeError):
        cl.predict_score(model, np.ones((2, 4)))
    with pytest.raises(ShapeError, match="must be 2-D"):
        cl.predict_score(model, np.ones(3))


def test_predict_score_unknown_model_type():
    with pytest.raises(TypeError, match="unknown model type str"):
        cl.predict_score("svm", np.ones((2, 3)))


def test_score_monotone_in_margin():
    rng = np.random.default_rng(23)
    model = cl.LinearModel(rng.normal(size=4), 0.3)
    x = rng.normal(size=(30, 4))
    margins = x @ model.weights + model.bias
    scores = cl.predict_score(model, x)
    order_m = np.argsort(margins)
    order_s = np.argsort(scores)
    assert np.array_equal(order_m, order_s)
