"""The four downstream classifiers: logistic regression, linear SVM, CART
decision tree, and a small MLP.

All four expose the same scoring interface: predict_score returns a class-1
score in [0,1] per row (sigmoid of the margin for the linear models, leaf
class-1 fraction for the tree, softmax probability for the MLP).  The
pipeline labels a row 1 iff its score is strictly above
``metrics.THRESHOLD``.
Iterative trainers shuffle minibatches with a seeded generator each epoch,
so equal seeds give bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ganbalance import kernels, nn
from ganbalance.data import Dataset
from ganbalance.errors import DegenerateDataError, ShapeError

LOGREG_LR = 1e-2
LOGREG_EPOCHS = 200
SVM_LR = 1e-2
SVM_EPOCHS = 200
SVM_LAMBDA = 1e-4
MLP_LR = 1e-5
MLP_EPOCHS = 500
MLP_HIDDEN = 30
TREE_MAX_DEPTH = 8


@dataclass
class TrainConfig:
    """Shared trainer settings; epochs None means the model's default."""

    epochs: int | None = None
    batch_size: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs is not None and self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


@dataclass
class LinearModel:
    """What logistic regression and the linear SVM both learn."""

    weights: np.ndarray  # (d,)
    bias: float


@dataclass
class TreeNode:
    prob: float  # class-1 fraction of the training rows that reached here
    feature: int = -1  # -1 marks a leaf
    threshold: float = 0.0
    left: "TreeNode | None" = None
    right: "TreeNode | None" = None

    @property
    def is_leaf(self) -> bool:
        return self.feature < 0


@dataclass
class DecisionTreeModel:
    root: TreeNode
    n_features: int


def mlp_spec(input_dim: int):
    """Two hidden layers (relu, then sigmoid) into a 2-way softmax."""
    hidden = MLP_HIDDEN
    return [
        nn.dense(input_dim, hidden),
        nn.relu(hidden),
        nn.dense(hidden, hidden),
        nn.sigmoid(hidden),
        nn.dense(hidden, 2),
        nn.softmax(2),
    ]


def _require_two_classes(labels: np.ndarray, what: str) -> None:
    if len(np.unique(labels)) < 2:
        raise DegenerateDataError(f"{what} needs both classes in the training data")


def _minibatches(x, targets, epochs: int, batch_size: int, rng: np.random.Generator):
    """Every epoch's minibatches of (x, targets), each epoch in a fresh random
    row order.  One row buffer and one target buffer, refilled each epoch in
    the permutation's order, serve the whole fit, so a batch is valid until the
    next epoch.  mode="clip" lets np.take write into ``out`` directly ("raise"
    buffers it); a permutation's indices never need clipping."""
    x_epoch, t_epoch = np.empty_like(x), np.empty_like(targets)
    for _ in range(epochs):
        order = rng.permutation(len(targets))
        np.take(x, order, axis=0, out=x_epoch, mode="clip")
        np.take(targets, order, axis=0, out=t_epoch, mode="clip")
        for start in range(0, len(order), batch_size):
            yield x_epoch[start : start + batch_size], t_epoch[start : start + batch_size]


def _train_network(spec, x, targets, config: TrainConfig, learning_rate, default_epochs):
    """Adam on minibatches of (x, targets), reshuffled every epoch; the loss
    follows from the spec's last layer."""
    rng = np.random.default_rng(config.seed)
    net = nn.init_network(spec, rng, learning_rate)
    epochs = config.epochs or default_epochs
    for xb, tb in _minibatches(x, targets, epochs, config.batch_size, rng):
        _, cache = nn.forward(net, xb)
        nn.backward(cache, tb)
        nn.adam_step(net)
    return net


def train_logreg(data: Dataset, config: TrainConfig) -> LinearModel:
    """Adam on mean binary cross-entropy of sigmoid(w.x + b)."""
    _require_two_classes(data.labels, "logistic regression")
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    y = data.labels.astype(np.float64).reshape(-1, 1)
    spec = [nn.dense(x.shape[1], 1), nn.sigmoid(1)]
    params = _train_network(spec, x, y, config, LOGREG_LR, LOGREG_EPOCHS).layers[0]
    return LinearModel(params.weights[:, 0].copy(), float(params.bias[0]))


def train_svm(data: Dataset, config: TrainConfig) -> LinearModel:
    """Primal soft-margin SVM: subgradient descent on SVM_LAMBDA*|w|^2 + hinge."""
    _require_two_classes(data.labels, "SVM")
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    y = np.where(data.labels == 1, 1.0, -1.0)
    rng = np.random.default_rng(config.seed)
    w = np.zeros(x.shape[1])
    b = 0.0
    for xb, yb in _minibatches(x, y, config.epochs or SVM_EPOCHS, config.batch_size, rng):
        violating = yb * (xb @ w + b) < 1.0
        y_violating = yb[violating]
        # with no violators the hinge terms are +0.0 and -0.0: no bit changes (b is never -0.0)
        grad_w = 2.0 * SVM_LAMBDA * w - (y_violating @ xb[violating]) / len(yb)
        grad_b = -float(np.add.reduce(y_violating)) / len(yb)
        w -= SVM_LR * grad_w
        b -= SVM_LR * grad_b
    return LinearModel(w, b)


def _grow_tree(x: np.ndarray, y: np.ndarray, sorted_rows: np.ndarray, depth: int) -> TreeNode:
    """Grow the subtree over the rows in sorted_rows.

    sorted_rows[j] lists the node's row indices ordered by column j, ties in
    ascending row index: the order a stable argsort of the node's rows in
    file order gives.  A split partitions each list in place, stably, left
    rows first: children grow over views, and no column is sorted twice.
    """
    n = sorted_rows.shape[1]
    n_pos = int(np.sum(y[sorted_rows[0]]))
    prob = n_pos / n
    if n_pos in (0, n) or depth >= TREE_MAX_DEPTH:
        return TreeNode(prob=prob)

    # best split over features in ascending index order; strict > keeps the
    # lowest feature index, and the scan itself keeps the lowest threshold
    best_score = -1.0
    best_feature = -1
    best_threshold = 0.0
    for j in range(x.shape[1]):
        rows = sorted_rows[j]
        score, threshold, found = kernels.split_scan(x[rows, j], y[rows])
        if found and score > best_score:
            best_score = score
            best_feature = j
            best_threshold = float(threshold)
    if best_feature < 0:
        return TreeNode(prob=prob)

    rows = sorted_rows[best_feature]
    go_left = np.zeros(len(y), dtype=bool)
    go_left[rows] = x[rows, best_feature] <= best_threshold
    left = go_left[sorted_rows]
    n_left = int(np.sum(go_left))
    sorted_rows[:, :n_left], sorted_rows[:, n_left:] = (
        sorted_rows[left].reshape(-1, n_left), sorted_rows[~left].reshape(-1, n - n_left))
    del go_left, left  # no ancestor keeps a mask alive while its subtree grows
    return TreeNode(
        prob=prob,
        feature=best_feature,
        threshold=best_threshold,
        left=_grow_tree(x, y, sorted_rows[:, :n_left], depth + 1),
        right=_grow_tree(x, y, sorted_rows[:, n_left:], depth + 1),
    )


def train_tree(data: Dataset, config: TrainConfig) -> DecisionTreeModel:
    """Greedy CART with Gini impurity and midpoint thresholds.

    Candidate splits sit halfway between consecutive distinct sorted values;
    a node splits on the candidate with the largest impurity decrease (even a
    zero decrease, so patterns like XOR still separate), stopping at purity
    or TREE_MAX_DEPTH; ``config`` is not read.  Each column is sorted once, at
    the root, into one (d, n) index buffer that the whole tree grows inside.
    """
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    y = data.labels.astype(np.int64)
    if len(y) < 1:
        raise ValueError("decision tree needs at least one row")
    root = _grow_tree(x, y, np.argsort(x.T, axis=1, kind="stable"), 0)
    return DecisionTreeModel(root, x.shape[1])


def train_mlp(data: Dataset, config: TrainConfig) -> nn.Network:
    """Adam on categorical cross-entropy of the 2-way softmax output."""
    _require_two_classes(data.labels, "MLP")
    x = np.ascontiguousarray(data.features, dtype=np.float64)
    n = x.shape[0]
    onehot = np.zeros((n, 2))
    onehot[np.arange(n), data.labels] = 1.0
    return _train_network(mlp_spec(x.shape[1]), x, onehot, config, MLP_LR, MLP_EPOCHS)


def _tree_scores(node: TreeNode, x: np.ndarray, idx: np.ndarray, out: np.ndarray):
    if node.is_leaf:
        out[idx] = node.prob
        return
    go_left = x[idx, node.feature] <= node.threshold
    _tree_scores(node.left, x, idx[go_left], out)
    _tree_scores(node.right, x, idx[~go_left], out)


def _check_width(x: np.ndarray, expected: int) -> None:
    if x.shape[1] != expected:
        raise ShapeError(f"model expects {expected} features, input has {x.shape[1]}")


def predict_score(model, X) -> np.ndarray:
    """Class-1 score in [0,1] per row, suitable for ROC/AUC."""
    x = np.ascontiguousarray(X, dtype=np.float64)
    if x.ndim != 2:
        raise ShapeError(f"input must be 2-D, got shape {x.shape}")
    if isinstance(model, LinearModel):
        _check_width(x, len(model.weights))
        return kernels.sigmoid_forward(x @ model.weights + model.bias)
    if isinstance(model, DecisionTreeModel):
        _check_width(x, model.n_features)
        out = np.empty(x.shape[0])
        _tree_scores(model.root, x, np.arange(x.shape[0]), out)
        return out
    if isinstance(model, nn.Network):
        return nn.predict(model, x)[:, 1]
    raise TypeError(f"unknown model type {type(model).__name__}")
