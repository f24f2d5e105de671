"""Minimal dense-network engine: forward/backward passes, losses, Adam.

A network is described by a flat list of :class:`LayerSpec` entries (dense,
relu, sigmoid, softmax, batchnorm, dropout) and held as one :class:`Network`
value: the validated spec, the learned parameters mirroring it
layer-for-layer, their gradients and the Adam state.  One training step is
``forward(net, x)``, whose cache records ``net``; then ``backward(cache,
targets)``, which writes the gradients into ``net``; then ``adam_step(net)``,
which applies them.  ``predict(net, x)`` runs a trained network.  Everything
runs in float64; training is deterministic given the caller's seeded
generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ganbalance import kernels
from ganbalance.errors import ConsistencyError, PreconditionError, ShapeError

LAYER_KINDS = ("dense", "relu", "sigmoid", "softmax", "batchnorm", "dropout")

LOG_CLIP_EPS = 1e-7
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.99
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Each activation's kernels, by layer kind.  The backward kernel reads the
# activation's output, which the training pass records.  The values are the
# kernels themselves, as perfbench/traced_cli.py swaps dict values to trace them.
_ACTIVATIONS = {"relu": kernels.relu_forward, "sigmoid": kernels.sigmoid_forward,
                "softmax": kernels.softmax_forward}
_ACTIVATION_GRADS = {"relu": kernels.relu_backward, "sigmoid": kernels.sigmoid_backward,
                     "softmax": kernels.softmax_backward}


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a feed-forward stack; non-dense layers preserve width."""

    kind: str
    input_dim: int
    output_dim: int
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise ValueError(f"unknown layer kind {self.kind!r}")
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("layer dimensions must be >= 1")
        if self.kind != "dense" and self.input_dim != self.output_dim:
            raise ValueError(f"{self.kind} layers must preserve dimension")
        if self.kind == "dropout" and not 0.0 <= self.rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")


def dense(input_dim: int, output_dim: int) -> LayerSpec:
    return LayerSpec("dense", input_dim, output_dim)


def relu(dim: int) -> LayerSpec:
    return LayerSpec("relu", dim, dim)


def sigmoid(dim: int) -> LayerSpec:
    return LayerSpec("sigmoid", dim, dim)


def softmax(dim: int) -> LayerSpec:
    return LayerSpec("softmax", dim, dim)


def batchnorm(dim: int) -> LayerSpec:
    return LayerSpec("batchnorm", dim, dim)


def dropout(dim: int, rate: float) -> LayerSpec:
    return LayerSpec("dropout", dim, dim, rate=rate)


@dataclass(frozen=True)
class DenseParams:
    weights: np.ndarray  # (input_dim, output_dim)
    bias: np.ndarray  # (output_dim,)


@dataclass(frozen=True)
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray


@dataclass(eq=False)
class Network:
    """One trainable network: its spec, its parameters, their gradients and
    its Adam state.

    ``layers`` holds one entry per spec layer (None for stateless layers).
    Every Adam-trained array (dense weights/bias, batchnorm gamma/beta) is a
    view into ``flat``, one float64 vector in spec order.
    ``grads`` is laid out as ``flat``: :func:`backward` and
    :func:`backward_from` overwrite it through ``grad_layers``, one pair of
    views per trained layer (None elsewhere), and :func:`adam_step` reads it.
    The Adam moments and scratch are the same size.  Build it with
    :func:`init_network`, which validates the spec.
    """

    spec: tuple
    layers: tuple
    flat: np.ndarray
    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    has_dropout: bool
    grads: np.ndarray
    grad_layers: tuple
    adam_scratch: tuple
    step_count: int = 0


def _trained_size(layer: LayerSpec) -> int:
    sizes = {"dense": (layer.input_dim + 1) * layer.output_dim, "batchnorm": 2 * layer.input_dim}
    return sizes.get(layer.kind, 0)


def _views(flat, end, shape, size) -> tuple[np.ndarray, np.ndarray]:
    """The slice of ``flat`` ending at ``end`` as an array of ``shape`` then a
    vector of ``size``: the layout of parameters and gradients alike."""
    mid = end - size
    return flat[mid - math.prod(shape) : mid].reshape(shape), flat[mid:end]


def init_network(spec, rng: np.random.Generator, learning_rate: float) -> Network:
    """Glorot-uniform dense weights, zero biases, identity batchnorm and zero
    Adam moments; ``learning_rate`` is the step size of :func:`adam_step`.
    The spec must be non-empty and each layer's width its successor's input."""
    spec = tuple(spec)
    if not spec:
        raise ValueError("network spec is empty")
    for prev, cur in zip(spec, spec[1:]):
        if prev.output_dim != cur.input_dim:
            raise ShapeError(f"layer dims do not chain: {prev.kind}({prev.output_dim}) -> "
                             f"{cur.kind}({cur.input_dim})")
    flat = np.empty(sum(_trained_size(layer) for layer in spec))
    grads = np.zeros_like(flat)
    layers, grad_layers, end = [], [], 0
    for layer in spec:
        end += _trained_size(layer)
        if layer.kind == "dense":
            shape = (layer.input_dim, layer.output_dim)
            weights, bias = _views(flat, end, shape, layer.output_dim)
            limit = np.sqrt(6.0 / (layer.input_dim + layer.output_dim))
            weights[...], bias[...] = rng.uniform(-limit, limit, size=shape), 0.0
            layers.append(DenseParams(weights, bias))
            grad_layers.append(_views(grads, end, shape, layer.output_dim))
        elif layer.kind == "batchnorm":
            d = layer.input_dim
            gamma, beta = _views(flat, end, (d,), d)
            gamma[...], beta[...] = 1.0, 0.0
            layers.append(BatchNormParams(gamma, beta, np.zeros(d), np.ones(d)))
            grad_layers.append(_views(grads, end, (d,), d))
        else:
            layers.append(None)
            grad_layers.append(None)
    has_dropout = any(layer.kind == "dropout" for layer in spec)
    return Network(spec, tuple(layers), flat, learning_rate,
                   np.zeros_like(flat), np.zeros_like(flat), has_dropout,
                   grads, tuple(grad_layers), (np.empty_like(flat), np.empty_like(flat)))


@dataclass
class ForwardCache:
    network: Network
    layer_data: list
    output: np.ndarray


def _input(net: Network, x) -> np.ndarray:
    h = np.ascontiguousarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"input must be 2-D, got shape {h.shape}")
    if h.shape[1] != net.spec[0].input_dim:
        raise ShapeError(f"input has {h.shape[1]} columns, first layer expects "
                         f"{net.spec[0].input_dim}")
    return h


def forward(net: Network, x, rng=None) -> tuple[np.ndarray, ForwardCache]:
    """The training pass over a (batch, features) matrix: dropout draws its
    masks from the numpy Generator ``rng`` (required when the spec has
    dropout) and batchnorm uses batch statistics, updating its running
    averages in place.  The cache records what :func:`backward` reads."""
    h = _input(net, x)
    if rng is None and net.has_dropout:
        raise PreconditionError("training with dropout layers requires an rng")
    layer_data = []
    for layer, params in zip(net.spec, net.layers):
        if layer.kind == "dense":
            layer_data.append(("dense", h))
            h = kernels.dense_forward(h, params.weights, params.bias)
        elif layer.kind in _ACTIVATIONS:
            h = _ACTIVATIONS[layer.kind](h)
            layer_data.append((layer.kind, h))
        elif layer.kind == "batchnorm":
            h, xhat, mean, var = kernels.batchnorm_train_forward(h, params.gamma, params.beta,
                                                                 BATCHNORM_EPS)
            m = BATCHNORM_MOMENTUM
            params.running_mean[...] = m * params.running_mean + (1.0 - m) * mean
            params.running_var[...] = m * params.running_var + (1.0 - m) * var
            layer_data.append(("batchnorm", xhat, var))
        elif layer.kind == "dropout":
            mult = (rng.random(h.shape) >= layer.rate) / (1.0 - layer.rate)
            h = h * mult
            layer_data.append(("dropout", mult))
    return h, ForwardCache(net, layer_data, h)


def predict(net: Network, x) -> np.ndarray:
    """The inference pass: batchnorm uses its running statistics, dropout is
    the identity, and nothing is recorded, so each activation is freed once
    the next layer has read it.  Deterministic given ``net``."""
    h = _input(net, x)
    for layer, params in zip(net.spec, net.layers):
        if layer.kind == "dense":
            h = kernels.dense_forward(h, params.weights, params.bias)
        elif layer.kind == "relu":  # in place, unless h may still be the caller's x
            h = kernels.relu_forward(h, out=None if np.may_share_memory(h, x) else h)
        elif layer.kind in _ACTIVATIONS:
            h = _ACTIVATIONS[layer.kind](h)
        elif layer.kind == "batchnorm":
            h = kernels.batchnorm_infer_forward(h, params.gamma, params.beta, params.running_mean,
                                                params.running_var, BATCHNORM_EPS)
    return h


def _loss_terms(net: Network, predicted, targets):
    """The last layer's kind, which picks the loss (binary cross-entropy after
    a sigmoid, categorical cross-entropy after a softmax), and the predictions
    and targets as float64: 2-D rows of one shape."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(targets, dtype=np.float64)
    if p.ndim != 2 or p.shape != t.shape:
        raise ShapeError(f"predictions must be 2-D rows shaped as the targets: "
                         f"{p.shape} != {t.shape}")
    last = net.spec[-1].kind
    if last not in ("sigmoid", "softmax"):
        raise ConsistencyError(f"a loss needs a final sigmoid or softmax layer, not {last!r}")
    return last, p, t


def loss(net: Network, predicted, targets) -> float:
    """Mean loss of ``net``'s output rows ``predicted`` against ``targets``,
    the loss that :func:`backward` differentiates; predictions are clipped
    away from 0 and 1.  Binary cross-entropy averages over every entry,
    categorical cross-entropy (one-hot targets) over rows."""
    last, p, t = _loss_terms(net, predicted, targets)
    p = np.clip(p, LOG_CLIP_EPS, 1.0 - LOG_CLIP_EPS)
    if last == "sigmoid":
        return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log1p(-p))))
    return float(np.mean(-np.sum(t * np.log(p), axis=1)))


def _walk_backward(cache: ForwardCache, delta, start, fill: bool):
    """Backpropagate ``delta`` from layer ``start`` to the input.  With
    ``fill``, write every parameter gradient into the network's
    ``grad_layers`` and skip layer 0's input gradient; without, return only
    the input gradient."""
    net = cache.network
    for i in range(start, -1, -1):
        layer = net.spec[i]
        entry = cache.layer_data[i]
        out = net.grad_layers[i] if fill else (None, None)
        if layer.kind == "dense":
            delta = kernels.dense_backward(
                entry[1], np.ascontiguousarray(delta), net.layers[i].weights,
                *out, not fill or i > 0,
            )
        elif layer.kind in _ACTIVATION_GRADS:
            delta = _ACTIVATION_GRADS[layer.kind](entry[1], delta)
        elif layer.kind == "batchnorm":
            delta = kernels.batchnorm_backward(
                np.ascontiguousarray(delta), entry[1], net.layers[i].gamma, entry[2],
                BATCHNORM_EPS, *out,
            )
        elif layer.kind == "dropout":
            delta = delta * entry[1]
    return delta


def _loss_delta(cache: ForwardCache, targets) -> np.ndarray:
    """d(mean loss)/d(input of the last layer), the loss as :func:`loss` defines it."""
    last, p, t = _loss_terms(cache.network, cache.output, targets)
    return (p - t) / (p.size if last == "sigmoid" else p.shape[0])


def backward(cache: ForwardCache, targets) -> None:
    """Gradients of the mean :func:`loss` for every parameter of the network
    that made ``cache``, written into its ``grads``.

    The loss and the last layer's activation are folded into the numerically
    stable (prediction - target) form.  ``grads`` holds the result until the
    next :func:`backward` or :func:`backward_from` on that network.
    """
    _walk_backward(cache, _loss_delta(cache, targets), len(cache.network.spec) - 2, True)


def backward_from(cache: ForwardCache, grad_output) -> None:
    """Backpropagate an upstream gradient (chains networks, e.g. GAN G<-D)
    into the network's ``grads``, as :func:`backward` does."""
    delta = np.asarray(grad_output, dtype=np.float64)
    if delta.shape != cache.output.shape:
        raise ShapeError(
            f"upstream gradient shape {delta.shape} != output shape {cache.output.shape}"
        )
    _walk_backward(cache, delta, len(cache.network.spec) - 1, True)


def input_gradient(cache: ForwardCache, targets) -> np.ndarray:
    """d(mean loss)/d(input), the loss as in :func:`backward`.  Computes no
    parameter gradient and leaves the network's ``grads`` untouched."""
    return _walk_backward(cache, _loss_delta(cache, targets), len(cache.network.spec) - 2,
                          False)


def adam_step(net: Network) -> None:
    """Apply one bias-corrected Adam update of ``net.grads`` to ``net``'s
    parameters in place.

    The whole parameter vector is updated by a single kernel call.
    """
    net.step_count += 1
    c1 = 1.0 - ADAM_BETA1**net.step_count
    c2 = 1.0 - ADAM_BETA2**net.step_count
    kernels.adam_update(
        net.flat, net.grads, net.first_moment, net.second_moment, *net.adam_scratch,
        c1, c2, net.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
    )
