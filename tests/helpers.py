"""Shared builders for the test suite: random networks for gradient checks
and synthetic imbalanced datasets for pipeline tests."""

from __future__ import annotations

import numpy as np

from ganbalance import gan, nn
from ganbalance.data import Dataset, RawTable

HIDDEN_KINDS = ("relu", "sigmoid", "batchnorm", "dropout")
# the numpy release whose output digests the tests pin (other releases may round differently)
PINNED_NUMPY = "2.4.6"


def parameter_arrays(net) -> list:
    """The network's Adam-trained arrays (dense weights and bias, batchnorm
    gamma and beta), in spec order: views into ``net.flat``."""
    out = []
    for entry in net.layers:
        if isinstance(entry, nn.DenseParams):
            out.extend((entry.weights, entry.bias))
        elif isinstance(entry, nn.BatchNormParams):
            out.extend((entry.gamma, entry.beta))
    return out


def gradient_arrays(net) -> list:
    """The network's gradient views, in :func:`parameter_arrays` order."""
    return [g for pair in net.grad_layers if pair is not None for g in pair]


def network_loss(net, x, targets, dropout_seed=0):
    """Training forward + :func:`nn.loss` with a reproducible dropout mask.

    The fixed seed makes the loss a deterministic function of the parameters,
    which finite differencing requires.
    """
    rng = np.random.default_rng(dropout_seed)
    out, _ = nn.forward(net, x, rng=rng)
    return nn.loss(net, out, targets)


def random_network_case(rng: np.random.Generator, loss_kind: str, hidden_kinds=None):
    """Random small network ending in the activation its loss requires.

    Returns (network, x, targets).  Batchnorm is only placed when the
    batch has >= 2 rows; dropout layers use a modest rate so gradients stay
    informative.
    """
    batch = int(rng.integers(2, 6))
    width = int(rng.integers(2, 5))
    in_dim = int(rng.integers(2, 5))
    spec = [nn.dense(in_dim, width)]
    if hidden_kinds is None:
        hidden_kinds = rng.choice(HIDDEN_KINDS, size=int(rng.integers(1, 4)))
    for kind in hidden_kinds:
        if kind == "relu":
            spec.append(nn.relu(width))
        elif kind == "sigmoid":
            spec.append(nn.sigmoid(width))
        elif kind == "batchnorm":
            spec.append(nn.batchnorm(width))
        elif kind == "dropout":
            spec.append(nn.dropout(width, 0.25))
    if loss_kind == "bce":
        out_dim = int(rng.integers(1, 4))
        spec += [nn.dense(width, out_dim), nn.sigmoid(out_dim)]
        targets = rng.integers(0, 2, size=(batch, out_dim)).astype(np.float64)
    else:
        classes = int(rng.integers(2, 4))
        spec += [nn.dense(width, classes), nn.softmax(classes)]
        targets = np.zeros((batch, classes))
        targets[np.arange(batch), rng.integers(0, classes, size=batch)] = 1.0
    net = nn.init_network(spec, rng, learning_rate=0.01)
    x = rng.normal(size=(batch, in_dim))
    return net, x, targets


def linear_network(weights, bias) -> nn.Network:
    """The one-layer sigmoid network that logistic regression and the linear
    SVM return, holding the weight vector ``weights`` and the scalar ``bias``."""
    weights = np.asarray(weights, dtype=np.float64)
    net = nn.init_network([nn.dense(len(weights), 1), nn.sigmoid(1)],
                          np.random.default_rng(0), learning_rate=1e-2)
    net.layers[0].weights[:, 0], net.layers[0].bias[0] = weights, bias
    return net


def fresh_generator(feature_dim: int, seed: int = 0) -> nn.Network:
    """An untrained generator network with Glorot weights drawn from ``seed``."""
    return nn.init_network(
        gan.generator_spec(feature_dim), np.random.default_rng(seed), learning_rate=1e-5
    )


def gaussian_blobs(
    rng: np.random.Generator,
    n_pos: int,
    n_neg: int,
    dim: int,
    pos_mean: float = 0.62,
    neg_mean: float = 0.42,
    sd: float = 0.1,
) -> Dataset:
    """Two overlapping Gaussian clusters clipped to [0,1], shuffled."""
    pos = np.clip(rng.normal(pos_mean, sd, size=(n_pos, dim)), 0.0, 1.0)
    neg = np.clip(rng.normal(neg_mean, sd, size=(n_neg, dim)), 0.0, 1.0)
    features = np.vstack([pos, neg])
    labels = np.concatenate(
        [np.ones(n_pos, dtype=np.int64), np.zeros(n_neg, dtype=np.int64)]
    )
    order = rng.permutation(len(labels))
    return Dataset(features[order], labels[order])


def raw_table(names, features, labels, label_index=None) -> RawTable:
    """The table ``load_csv`` returns for a file of these feature columns with
    the label column inserted at ``label_index`` (default: last), every row in
    play."""
    features = np.asarray(features, dtype=np.float64)
    if label_index is None:
        label_index = features.shape[1]
    cells = np.insert(features, label_index, labels, axis=1)
    return RawTable(list(names), cells, label_index, np.arange(len(cells)))


def write_dataset_csv(dataset: Dataset, path, label_column: str = "Class") -> None:
    dim = dataset.features.shape[1]
    with open(path, "w") as fh:
        fh.write(",".join(f"V{i}" for i in range(dim)) + f",{label_column}\n")
        for row, label in zip(dataset.features, dataset.labels):
            fh.write(",".join(f"{v:.8f}" for v in row) + f",{label}\n")
