"""Minimal dense-network engine: forward/backward passes, losses, Adam.

Networks are described by a flat list of :class:`LayerSpec` entries (dense,
relu, sigmoid, softmax, batchnorm, dropout) with learned parameters held in a
:class:`NetworkState` that mirrors the spec layer-for-layer.  Everything runs
in float64; training is deterministic given the caller's seeded generator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ganbalance import kernels
from ganbalance.errors import ConsistencyError, PreconditionError, ShapeError

LAYER_KINDS = ("dense", "relu", "sigmoid", "softmax", "batchnorm", "dropout")

LOG_CLIP_EPS = 1e-7
BATCHNORM_EPS = 1e-5
BATCHNORM_MOMENTUM = 0.99


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


def validate_spec(spec: list[LayerSpec]) -> None:
    """Check the stack is non-empty and adjacent dimensions agree."""
    if not spec:
        raise ValueError("network spec is empty")
    for prev, cur in zip(spec, spec[1:]):
        if prev.output_dim != cur.input_dim:
            raise ShapeError(
                f"layer dims do not chain: {prev.kind}({prev.output_dim}) -> "
                f"{cur.kind}({cur.input_dim})"
            )


@dataclass
class DenseParams:
    weights: np.ndarray  # (input_dim, output_dim)
    bias: np.ndarray  # (output_dim,)


@dataclass
class BatchNormParams:
    gamma: np.ndarray
    beta: np.ndarray
    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = BATCHNORM_MOMENTUM
    epsilon: float = BATCHNORM_EPS


@dataclass
class NetworkState:
    """Learned parameters, one entry per spec layer (None for stateless)."""

    layers: list

    def parameter_arrays(self) -> list[np.ndarray]:
        out = []
        for entry in self.layers:
            if isinstance(entry, DenseParams):
                out.extend((entry.weights, entry.bias))
            elif isinstance(entry, BatchNormParams):
                out.extend((entry.gamma, entry.beta))
        return out

    def copy(self) -> NetworkState:
        copied = []
        for entry in self.layers:
            if isinstance(entry, DenseParams):
                copied.append(DenseParams(entry.weights.copy(), entry.bias.copy()))
            elif isinstance(entry, BatchNormParams):
                copied.append(
                    BatchNormParams(
                        entry.gamma.copy(),
                        entry.beta.copy(),
                        entry.running_mean.copy(),
                        entry.running_var.copy(),
                        entry.momentum,
                        entry.epsilon,
                    )
                )
            else:
                copied.append(None)
        return NetworkState(copied)


def init_state(spec: list[LayerSpec], rng: np.random.Generator) -> NetworkState:
    """Glorot-uniform dense weights, zero biases, identity batchnorm."""
    validate_spec(spec)
    layers = []
    for layer in spec:
        if layer.kind == "dense":
            limit = np.sqrt(6.0 / (layer.input_dim + layer.output_dim))
            weights = rng.uniform(-limit, limit, size=(layer.input_dim, layer.output_dim))
            layers.append(DenseParams(weights, np.zeros(layer.output_dim)))
        elif layer.kind == "batchnorm":
            d = layer.input_dim
            layers.append(
                BatchNormParams(np.ones(d), np.zeros(d), np.zeros(d), np.ones(d))
            )
        else:
            layers.append(None)
    return NetworkState(layers)


@dataclass
class ForwardCache:
    mode: str
    layer_data: list
    output: np.ndarray


def activation(kind: str, x) -> np.ndarray:
    """Apply relu/sigmoid elementwise or softmax row-wise (max-shifted)."""
    arr = np.asarray(x, dtype=np.float64)
    if kind == "relu":
        return kernels.relu_forward(arr)
    if kind == "sigmoid":
        return kernels.sigmoid_forward(arr)
    if kind == "softmax":
        out = kernels.softmax_forward(np.atleast_2d(arr))
        return out[0] if arr.ndim == 1 else out
    raise ValueError(f"unknown activation kind {kind!r}")


def forward(
    spec: list[LayerSpec],
    state: NetworkState,
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
    validate_spec(spec)
    if len(state.layers) != len(spec):
        raise ConsistencyError("state does not have one entry per spec layer")
    h = np.ascontiguousarray(x, dtype=np.float64)
    if h.ndim != 2:
        raise ShapeError(f"input must be 2-D, got shape {h.shape}")
    if h.shape[1] != spec[0].input_dim:
        raise ShapeError(
            f"input has {h.shape[1]} columns, first layer expects {spec[0].input_dim}"
        )
    if (
        mode == "train"
        and rng is None
        and any(layer.kind == "dropout" and layer.rate > 0 for layer in spec)
    ):
        raise PreconditionError("training with dropout layers requires an rng")

    layer_data = []
    for i, layer in enumerate(spec):
        params = state.layers[i]
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
                    h, params.gamma, params.beta, params.epsilon
                )
                m = params.momentum
                params.running_mean = m * params.running_mean + (1.0 - m) * mean
                params.running_var = m * params.running_var + (1.0 - m) * var
                layer_data.append(("batchnorm", xhat, var))
            else:
                h = kernels.batchnorm_infer_forward(
                    h,
                    params.gamma,
                    params.beta,
                    params.running_mean,
                    params.running_var,
                    params.epsilon,
                )
                layer_data.append(("batchnorm",))
        elif layer.kind == "dropout":
            if mode == "train":
                mult = (rng.random(h.shape) >= layer.rate) / (1.0 - layer.rate)
                h = h * mult
                layer_data.append(("dropout", mult))
            else:
                layer_data.append(("dropout",))
    return h, ForwardCache(mode=mode, layer_data=layer_data, output=h)


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


@dataclass
class DenseGrads:
    weights: np.ndarray
    bias: np.ndarray


@dataclass
class BatchNormGrads:
    gamma: np.ndarray
    beta: np.ndarray


@dataclass
class Gradients:
    """Per-parameter gradients mirroring NetworkState, plus d(loss)/d(input)."""

    layers: list
    wrt_input: np.ndarray | None = None

    def parameter_arrays(self) -> list[np.ndarray]:
        out = []
        for entry in self.layers:
            if isinstance(entry, DenseGrads):
                out.extend((entry.weights, entry.bias))
            elif isinstance(entry, BatchNormGrads):
                out.extend((entry.gamma, entry.beta))
        return out


def _softmax_backward(y: np.ndarray, delta: np.ndarray) -> np.ndarray:
    inner = np.sum(delta * y, axis=1, keepdims=True)
    return y * (delta - inner)


def _check_cache(spec, cache: ForwardCache) -> None:
    if cache.mode != "train":
        raise ConsistencyError("backward requires a cache from a train-mode forward")
    if len(cache.layer_data) != len(spec):
        raise ConsistencyError("cache does not match the network spec")
    for layer, entry in zip(spec, cache.layer_data):
        if entry[0] != layer.kind:
            raise ConsistencyError(
                f"cache entry {entry[0]!r} does not match layer kind {layer.kind!r}"
            )


def _walk_backward(spec, state, cache, delta, start) -> Gradients:
    grads = [None] * len(spec)
    for i in range(start, -1, -1):
        layer = spec[i]
        entry = cache.layer_data[i]
        if layer.kind == "dense":
            d_w, d_b, delta = kernels.dense_backward(
                entry[1], np.ascontiguousarray(delta), state.layers[i].weights
            )
            grads[i] = DenseGrads(d_w, d_b)
        elif layer.kind == "relu":
            delta = kernels.relu_backward(entry[1], delta)
        elif layer.kind == "sigmoid":
            delta = kernels.sigmoid_backward(entry[1], delta)
        elif layer.kind == "softmax":
            delta = _softmax_backward(entry[1], delta)
        elif layer.kind == "batchnorm":
            params = state.layers[i]
            delta, d_gamma, d_beta = kernels.batchnorm_backward(
                np.ascontiguousarray(delta), entry[1], params.gamma, entry[2], params.epsilon
            )
            grads[i] = BatchNormGrads(d_gamma, d_beta)
        elif layer.kind == "dropout":
            delta = delta * entry[1]
    return Gradients(layers=grads, wrt_input=delta)


def backward(spec, state, cache: ForwardCache, loss_kind: str, targets) -> Gradients:
    """Gradients of the mean loss for every parameter.

    The final sigmoid+BCE or softmax+CE pair is folded into the numerically
    stable (prediction - target) form, so the spec's last layer must be the
    activation matching ``loss_kind``.
    """
    _check_cache(spec, cache)
    t = np.asarray(targets, dtype=np.float64)
    p = cache.output
    if p.shape != t.shape:
        raise ShapeError(f"prediction shape {p.shape} != target shape {t.shape}")
    last = spec[-1].kind
    if loss_kind == "bce":
        if last != "sigmoid":
            raise ConsistencyError("bce backward requires a final sigmoid layer")
        delta = (p - t) / p.size
    elif loss_kind == "categorical_ce":
        if last != "softmax":
            raise ConsistencyError("categorical_ce backward requires a final softmax layer")
        delta = (p - t) / p.shape[0]
    else:
        raise ValueError(f"unknown loss kind {loss_kind!r}")
    return _walk_backward(spec, state, cache, delta, len(spec) - 2)


def backward_from(spec, state, cache: ForwardCache, grad_output) -> Gradients:
    """Backpropagate an upstream gradient (chains networks, e.g. GAN G<-D)."""
    _check_cache(spec, cache)
    delta = np.asarray(grad_output, dtype=np.float64)
    if delta.shape != cache.output.shape:
        raise ShapeError(
            f"upstream gradient shape {delta.shape} != output shape {cache.output.shape}"
        )
    return _walk_backward(spec, state, cache, delta, len(spec) - 1)


@dataclass
class AdamState:
    """Adam moments for a fixed list of parameter arrays."""

    first_moment: list
    second_moment: list
    step_count: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    learning_rate: float = 1e-3
    shapes: list = field(default_factory=list)


def _as_param_arrays(obj) -> list[np.ndarray]:
    if isinstance(obj, (list, tuple)):
        return list(obj)
    return obj.parameter_arrays()


def init_adam(
    params,
    learning_rate: float,
    beta1: float = 0.9,
    beta2: float = 0.999,
    epsilon: float = 1e-8,
) -> AdamState:
    arrays = _as_param_arrays(params)
    return AdamState(
        first_moment=[np.zeros_like(a) for a in arrays],
        second_moment=[np.zeros_like(a) for a in arrays],
        beta1=beta1,
        beta2=beta2,
        epsilon=epsilon,
        learning_rate=learning_rate,
        shapes=[a.shape for a in arrays],
    )


def adam_step(state, grads, opt: AdamState):
    """Apply one bias-corrected Adam update in place; returns (state, opt).

    Parameter arrays must be C-contiguous (as produced by init_state), since
    the update writes through flat views.
    """
    params = _as_param_arrays(state)
    gradients = _as_param_arrays(grads)
    if len(params) != len(gradients) or len(params) != len(opt.first_moment):
        raise ShapeError("parameter / gradient / moment counts do not match")
    for p, g in zip(params, gradients):
        if p.shape != g.shape:
            raise ShapeError(f"gradient shape {g.shape} != parameter shape {p.shape}")
    opt.step_count += 1
    c1 = 1.0 - opt.beta1**opt.step_count
    c2 = 1.0 - opt.beta2**opt.step_count
    for p, g, m, v in zip(params, gradients, opt.first_moment, opt.second_moment):
        kernels.adam_update(
            p.reshape(-1),
            np.ascontiguousarray(g, dtype=np.float64).reshape(-1),
            m.reshape(-1),
            v.reshape(-1),
            c1,
            c2,
            opt.learning_rate,
            opt.beta1,
            opt.beta2,
            opt.epsilon,
        )
    return state, opt
