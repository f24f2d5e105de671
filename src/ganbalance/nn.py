"""Minimal dense-network engine: forward/backward passes, losses, Adam.

A network is described by a flat list of :class:`LayerSpec` entries (dense,
relu, sigmoid, softmax, batchnorm, dropout) and held as one :class:`Network`
value: the validated spec, the learned parameters mirroring it
layer-for-layer, and the Adam state.  Everything runs in float64; training is
deterministic given the caller's seeded generator.
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


def validate_spec(spec) -> None:
    """Check the stack is non-empty and adjacent dimensions agree."""
    if not spec:
        raise ValueError("network spec is empty")
    for prev, cur in zip(spec, spec[1:]):
        if prev.output_dim != cur.input_dim:
            raise ShapeError(
                f"layer dims do not chain: {prev.kind}({prev.output_dim}) -> "
                f"{cur.kind}({cur.input_dim})"
            )


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


@dataclass(frozen=True)
class DenseGrads:
    weights: np.ndarray
    bias: np.ndarray


@dataclass(frozen=True)
class BatchNormGrads:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class Gradients:
    """Per-parameter gradients mirroring a Network, as views into ``flat``
    laid out as the network's.  Each network owns one, which :func:`backward`
    and :func:`backward_from` overwrite and return."""

    layers: list
    flat: np.ndarray

    def parameter_arrays(self) -> list[np.ndarray]:
        return _parameter_arrays(self.layers)


def _parameter_arrays(entries) -> list[np.ndarray]:
    out = []
    for entry in entries:
        if isinstance(entry, (DenseParams, DenseGrads)):
            out.extend((entry.weights, entry.bias))
        elif isinstance(entry, (BatchNormParams, BatchNormGrads)):
            out.extend((entry.gamma, entry.beta))
    return out


@dataclass(eq=False)
class Network:
    """One trainable network: its spec, its parameters and its Adam state.

    ``layers`` holds one entry per spec layer (None for stateless layers).
    Every Adam-trained array (dense weights/bias, batchnorm gamma/beta) is a
    view into ``flat``, one float64 vector in ``parameter_arrays()`` order;
    the Adam moments, gradient buffer and Adam scratch are the same size.
    Build it with :func:`init_network`, which validates the spec.
    """

    spec: tuple
    layers: tuple
    flat: np.ndarray
    learning_rate: float
    first_moment: np.ndarray
    second_moment: np.ndarray
    has_dropout: bool
    grads: Gradients
    adam_scratch: tuple
    step_count: int = 0

    def parameter_arrays(self) -> list[np.ndarray]:
        return _parameter_arrays(self.layers)


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
    Adam moments; ``learning_rate`` is the step size of :func:`adam_step`."""
    spec = tuple(spec)
    validate_spec(spec)
    flat = np.empty(sum(_trained_size(layer) for layer in spec))
    grads = Gradients([], np.zeros_like(flat))
    layers, end = [], 0
    for layer in spec:
        end += _trained_size(layer)
        if layer.kind == "dense":
            shape = (layer.input_dim, layer.output_dim)
            weights, bias = _views(flat, end, shape, layer.output_dim)
            limit = np.sqrt(6.0 / (layer.input_dim + layer.output_dim))
            weights[...], bias[...] = rng.uniform(-limit, limit, size=shape), 0.0
            layers.append(DenseParams(weights, bias))
            grads.layers.append(DenseGrads(*_views(grads.flat, end, shape, layer.output_dim)))
        elif layer.kind == "batchnorm":
            d = layer.input_dim
            gamma, beta = _views(flat, end, (d,), d)
            gamma[...], beta[...] = 1.0, 0.0
            layers.append(BatchNormParams(gamma, beta, np.zeros(d), np.ones(d)))
            grads.layers.append(BatchNormGrads(*_views(grads.flat, end, (d,), d)))
        else:
            layers.append(None)
            grads.layers.append(None)
    has_dropout = any(layer.kind == "dropout" for layer in spec)
    return Network(spec, tuple(layers), flat, learning_rate,
                   np.zeros_like(flat), np.zeros_like(flat), has_dropout,
                   grads, (np.empty_like(flat), np.empty_like(flat)))


@dataclass
class ForwardCache:
    network: Network
    mode: str
    layer_data: list
    output: np.ndarray


def forward(
    net: Network,
    x,
    mode: str = "train",
    rng: np.random.Generator | None = None,
) -> tuple[np.ndarray, ForwardCache]:
    """Run the stack on a (batch, features) matrix.

    Train mode applies dropout (needs ``rng``) and batch statistics, updating
    batchnorm running averages in place; infer mode is deterministic and uses
    the running statistics.
    """
    if mode not in ("train", "infer"):
        raise PreconditionError(f"mode must be 'train' or 'infer', got {mode!r}")
    h = np.ascontiguousarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"input must be 2-D, got shape {h.shape}")
    if h.shape[1] != net.spec[0].input_dim:
        raise ShapeError(
            f"input has {h.shape[1]} columns, first layer expects {net.spec[0].input_dim}"
        )
    if mode == "train" and rng is None and net.has_dropout:
        raise PreconditionError("training with dropout layers requires an rng")

    layer_data = []
    for layer, params in zip(net.spec, net.layers):
        if layer.kind == "dense":
            layer_data.append(("dense", h))
            h = kernels.dense_forward(h, params.weights, params.bias)
        elif layer.kind == "relu":
            layer_data.append(("relu", h))
            h = kernels.relu_forward(h)
        elif layer.kind == "sigmoid":
            h = kernels.sigmoid_forward(h)
            layer_data.append(("sigmoid", h))
        elif layer.kind == "softmax":
            h = kernels.softmax_forward(h)
            layer_data.append(("softmax", h))
        elif layer.kind == "batchnorm":
            if mode == "train":
                h, xhat, mean, var = kernels.batchnorm_train_forward(
                    h, params.gamma, params.beta, BATCHNORM_EPS
                )
                m = BATCHNORM_MOMENTUM
                params.running_mean[...] = m * params.running_mean + (1.0 - m) * mean
                params.running_var[...] = m * params.running_var + (1.0 - m) * var
                layer_data.append(("batchnorm", xhat, var))
            else:
                h = kernels.batchnorm_infer_forward(
                    h,
                    params.gamma,
                    params.beta,
                    params.running_mean,
                    params.running_var,
                    BATCHNORM_EPS,
                )
                layer_data.append(("batchnorm",))
        elif layer.kind == "dropout":
            if mode == "train":
                mult = (rng.random(h.shape) >= layer.rate) / (1.0 - layer.rate)
                h = h * mult
                layer_data.append(("dropout", mult))
            else:
                layer_data.append(("dropout",))
    return h, ForwardCache(net, mode, layer_data, h)


def loss_bce(predicted, target) -> float:
    """Mean binary cross-entropy with predictions clipped away from 0/1."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {t.shape}")
    p = np.clip(p, LOG_CLIP_EPS, 1.0 - LOG_CLIP_EPS)
    return float(np.mean(-(t * np.log(p) + (1.0 - t) * np.log1p(-p))))


def loss_categorical_ce(predicted, target) -> float:
    """Mean over rows of the cross-entropy against one-hot targets."""
    p = np.asarray(predicted, dtype=np.float64)
    t = np.asarray(target, dtype=np.float64)
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {t.shape}")
    if p.ndim != 2:
        raise ShapeError("categorical cross-entropy expects 2-D row distributions")
    p = np.clip(p, LOG_CLIP_EPS, 1.0 - LOG_CLIP_EPS)
    return float(np.mean(-np.sum(t * np.log(p), axis=1)))


def _softmax_backward(y: np.ndarray, delta: np.ndarray) -> np.ndarray:
    inner = np.sum(delta * y, axis=1, keepdims=True)
    return y * (delta - inner)


def _check_cache(net: Network, cache: ForwardCache) -> None:
    if cache.mode != "train":
        raise ConsistencyError("backward requires a cache from a train-mode forward")
    if cache.network is not net:
        raise ConsistencyError("cache was made by another network's forward")


def _walk_backward(net: Network, cache: ForwardCache, delta, start, grads):
    """Backpropagate ``delta`` from layer ``start`` to the input.  With
    ``grads``, write every parameter gradient into it, skip layer 0's input
    gradient and return it; with None, return only the input gradient."""
    for i in range(start, -1, -1):
        layer = net.spec[i]
        entry = cache.layer_data[i]
        out = None if grads is None else grads.layers[i]
        if layer.kind == "dense":
            d_w, d_b = (None, None) if out is None else (out.weights, out.bias)
            delta = kernels.dense_backward(
                entry[1], np.ascontiguousarray(delta), net.layers[i].weights,
                d_w, d_b, out is None or i > 0,
            )
        elif layer.kind == "relu":
            delta = kernels.relu_backward(entry[1], delta)
        elif layer.kind == "sigmoid":
            delta = kernels.sigmoid_backward(entry[1], delta)
        elif layer.kind == "softmax":
            delta = _softmax_backward(entry[1], delta)
        elif layer.kind == "batchnorm":
            d_gamma, d_beta = (None, None) if out is None else (out.gamma, out.beta)
            delta, _, _ = kernels.batchnorm_backward(
                np.ascontiguousarray(delta), entry[1], net.layers[i].gamma, entry[2],
                BATCHNORM_EPS, d_gamma, d_beta,
            )
        elif layer.kind == "dropout":
            delta = delta * entry[1]
    return delta if grads is None else grads


def _loss_delta(net: Network, cache: ForwardCache, targets) -> np.ndarray:
    """d(mean loss)/d(input of the last layer), as :func:`backward` defines the loss."""
    _check_cache(net, cache)
    t = np.asarray(targets, dtype=np.float64)
    p = cache.output
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {t.shape}")
    last = net.spec[-1].kind
    if last == "sigmoid":
        return (p - t) / p.size
    if last == "softmax":
        return (p - t) / p.shape[0]
    raise ConsistencyError(f"backward needs a final sigmoid or softmax layer, not {last!r}")


def backward(net: Network, cache: ForwardCache, targets) -> Gradients:
    """Gradients of the mean loss for every parameter.

    The loss follows from the last layer: binary cross-entropy after a
    sigmoid, categorical cross-entropy after a softmax.  Either pair is folded
    into the numerically stable (prediction - target) form.  Returns
    ``net.grads``, overwritten in place: the result is valid until the next
    :func:`backward` or :func:`backward_from` on ``net``.
    """
    return _walk_backward(net, cache, _loss_delta(net, cache, targets), len(net.spec) - 2,
                          net.grads)


def backward_from(net: Network, cache: ForwardCache, grad_output) -> Gradients:
    """Backpropagate an upstream gradient (chains networks, e.g. GAN G<-D);
    returns ``net.grads`` as :func:`backward` does."""
    _check_cache(net, cache)
    delta = np.asarray(grad_output, dtype=np.float64)
    if delta.shape != cache.output.shape:
        raise ShapeError(
            f"upstream gradient shape {delta.shape} != output shape {cache.output.shape}"
        )
    return _walk_backward(net, cache, delta, len(net.spec) - 1, net.grads)


def input_gradient(net: Network, cache: ForwardCache, targets) -> np.ndarray:
    """d(mean loss)/d(input), the loss as in :func:`backward`.  Computes no
    parameter gradient and leaves ``net.grads`` untouched."""
    return _walk_backward(net, cache, _loss_delta(net, cache, targets), len(net.spec) - 2, None)


def adam_step(net: Network, grads: Gradients) -> None:
    """Apply one bias-corrected Adam update to ``net``'s parameters in place.

    The whole parameter vector is updated by a single kernel call.
    """
    if grads.flat.size != net.flat.size:
        raise ShapeError(f"gradient size {grads.flat.size} != parameter size {net.flat.size}")
    net.step_count += 1
    c1 = 1.0 - ADAM_BETA1**net.step_count
    c2 = 1.0 - ADAM_BETA2**net.step_count
    kernels.adam_update(
        net.flat, grads.flat, net.first_moment, net.second_moment, *net.adam_scratch,
        c1, c2, net.learning_rate, ADAM_BETA1, ADAM_BETA2, ADAM_EPS,
    )
