"""Dense-network engine: forward examples, losses, gradients, Adam."""

import dataclasses

import numpy as np
import pytest

from ganbalance import classifiers, gan, kernels, nn
from ganbalance.errors import ConsistencyError, PreconditionError, ShapeError
from helpers import gradient_arrays, network_loss, parameter_arrays, random_network_case
from oracles import (
    finite_difference_gradients,
    max_relative_error,
    per_array_adam_step,
    reference_backward,
    reference_loss_delta,
)


def _network_for(spec, seed=0, learning_rate=0.01):
    return nn.init_network(spec, np.random.default_rng(seed), learning_rate)


def _adam_step_with(net, gradient):
    """One adam_step on ``net`` with its gradient buffer set to ``gradient``."""
    net.grads[:] = gradient
    nn.adam_step(net)


def test_layerspec_validation():
    with pytest.raises(ValueError):
        nn.LayerSpec("conv", 3, 3)
    with pytest.raises(ValueError):
        nn.dense(0, 3)
    with pytest.raises(ValueError):
        nn.LayerSpec("relu", 3, 4)
    with pytest.raises(ValueError):
        nn.dropout(3, 1.0)
    with pytest.raises(ShapeError):
        _network_for([nn.dense(2, 3), nn.relu(4)])
    with pytest.raises(ValueError, match="empty"):
        _network_for([])


def test_forward_identity_dense():
    net = _network_for([nn.dense(3, 3)])
    net.layers[0].weights[...] = np.eye(3)
    net.layers[0].bias[...] = 0.0
    out = nn.predict(net, [[1.0, 2.0, 3.0]])
    assert np.array_equal(out, [[1.0, 2.0, 3.0]])


def test_forward_zero_input_isolates_bias():
    net = _network_for([nn.dense(4, 2)], seed=3)
    net.layers[0].bias[...] = [0.5, -1.5]
    out = nn.predict(net, np.zeros((1, 4)))
    assert np.array_equal(out[0], [0.5, -1.5])


def test_forward_hand_product():
    net = _network_for([nn.dense(2, 1)])
    net.layers[0].weights[...] = [[2.0], [3.0]]
    net.layers[0].bias[...] = 1.0
    out = nn.predict(net, [[1.0, 1.0]])
    assert out[0, 0] == 6.0


def test_forward_shape_errors():
    net = _network_for([nn.dense(3, 2)])
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros((2, 4)))
    with pytest.raises(ShapeError):
        nn.forward(net, np.zeros(3))


def test_forward_dropout_needs_rng_in_train_mode():
    net = _network_for([nn.dense(2, 2), nn.dropout(2, 0.5)])
    with pytest.raises(PreconditionError):
        nn.forward(net, np.zeros((1, 2)))
    # inference never needs one
    nn.predict(net, np.zeros((1, 2)))


def test_infer_forward_keeps_no_activations_and_spares_the_callers_input():
    # predict rectifies in place, but never in the memory the caller passed,
    # even through a subclass that it converts to a plain ndarray view
    class Subclass(np.ndarray):
        pass

    for spec in ([nn.relu(2)], [nn.dropout(2, 0.5), nn.relu(2)], [nn.relu(2), nn.relu(2)]):
        for x in (np.array([[-1.0, 2.0], [3.0, -4.0]]),
                  np.array([[-1.0, 2.0], [3.0, -4.0]]).view(Subclass)):
            out = nn.predict(_network_for(spec), x)
            assert type(out) is np.ndarray
            assert np.array_equal(x, [[-1.0, 2.0], [3.0, -4.0]])
            assert np.array_equal(out, [[0.0, 2.0], [3.0, 0.0]])
    net = _network_for([nn.dense(3, 4), nn.relu(4), nn.dense(4, 4), nn.relu(4)], seed=5)
    x = np.random.default_rng(6).standard_normal((7, 3))
    x_before = x.copy()
    infer = nn.predict(net, x)
    train, cache = nn.forward(net, x)
    assert type(infer) is np.ndarray
    assert infer.tobytes() == train.tobytes()
    assert np.array_equal(x, x_before)
    # one plain entry per spec layer; the last relu's is the array forward returned
    assert len(cache.layer_data) == len(net.spec)
    assert cache.layer_data[-1] is train


def test_activation_examples():
    assert np.array_equal(kernels.relu_forward(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])
    assert kernels.sigmoid_forward(np.float64(0.0)) == 0.5
    assert np.allclose(kernels.softmax_forward(np.zeros((1, 2))), [[0.5, 0.5]])


def test_softmax_rows_sum_to_one_for_large_inputs():
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.uniform(-1e3, 1e3, size=(rng.integers(1, 8), rng.integers(2, 6)))
        out = kernels.softmax_forward(x)
        assert np.all(np.abs(out.sum(axis=1) - 1.0) <= 1e-12)
        assert np.all(out >= 0.0)


_BCE_NET = _network_for([nn.dense(1, 1), nn.sigmoid(1)])
_CCE_NET = _network_for([nn.dense(2, 2), nn.softmax(2)])


def test_loss_bce_examples():
    assert abs(nn.loss(_BCE_NET, [[0.5]], [[1.0]]) - np.log(2.0)) < 1e-12
    assert nn.loss(_BCE_NET, [[1.0 - 1e-7]], [[1.0]]) < 1e-6
    assert abs(nn.loss(_BCE_NET, [[0.9], [0.1]], [[1.0], [0.0]]) - (-np.log(0.9))) < 1e-12


def test_loss_bce_shape_error():
    # predictions must be 2-D rows shaped as the targets, for a loss and a gradient alike
    for predicted, targets in (([[0.5], [0.5]], [[1.0]]), ([0.5, 0.5], [1.0, 0.0])):
        with pytest.raises(ShapeError):
            nn.loss(_BCE_NET, predicted, targets)
    _, cache = nn.forward(_BCE_NET, np.zeros((2, 1)))
    with pytest.raises(ShapeError):
        nn.backward(cache, [1.0, 0.0])


def test_loss_categorical_ce_examples():
    eps = 1e-7
    assert nn.loss(_CCE_NET, [[1.0 - eps, eps]], [[1.0, 0.0]]) < 1e-6
    assert abs(nn.loss(_CCE_NET, [[0.5, 0.5]], [[0.0, 1.0]]) - np.log(2.0)) < 1e-12
    got = nn.loss(_CCE_NET, [[0.8, 0.2], [0.3, 0.7]], [[1.0, 0.0], [0.0, 1.0]])
    assert abs(got - (-np.log(0.8) - np.log(0.7)) / 2.0) < 1e-12
    assert abs(got - 0.28990) < 1e-4


def test_dropout_train_statistics():
    rate = 0.3
    net = _network_for([nn.dense(1, 1), nn.dropout(1, rate)])
    net.layers[0].weights[...] = 1.0
    n = 100_000
    x = np.ones((n, 1))
    out, _ = nn.forward(net, x, rng=np.random.default_rng(5))
    dropped = np.sum(out == 0.0) / n
    sigma = np.sqrt(rate * (1.0 - rate) / n)
    assert abs(dropped - rate) <= 3.0 * sigma
    survivors = out[out != 0.0]
    assert np.allclose(survivors, 1.0 / (1.0 - rate))


def test_dropout_infer_is_identity():
    net = _network_for([nn.dense(3, 3), nn.dropout(3, 0.4)], seed=9)
    x = np.random.default_rng(1).normal(size=(5, 3))
    out = nn.predict(net, x)
    dense_net = _network_for([nn.dense(3, 3)], seed=9)  # the same Glorot draw
    assert np.array_equal(dense_net.flat, net.flat)
    dense_only = nn.predict(dense_net, x)
    assert np.array_equal(out, dense_only)


def test_batchnorm_train_normalizes_batch():
    net = _network_for([nn.batchnorm(4)])
    rng = np.random.default_rng(2)
    # variance ~100 so the epsilon in the denominator is negligible
    x = rng.normal(0.0, 10.0, size=(64, 4))
    out, _ = nn.forward(net, x)
    assert np.all(np.abs(out.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(out.var(axis=0) - 1.0) < 1e-6)


def test_batchnorm_running_stats_and_infer():
    net = _network_for([nn.batchnorm(2)])
    params = net.layers[0]
    x = np.array([[1.0, 10.0], [3.0, 30.0]])
    nn.forward(net, x)
    batch_mean = x.mean(axis=0)
    batch_var = x.var(axis=0)
    assert np.allclose(params.running_mean, 0.01 * batch_mean)
    assert np.allclose(params.running_var, 0.99 * 1.0 + 0.01 * batch_var)

    frozen_mean = params.running_mean.copy()
    frozen_var = params.running_var.copy()
    y = np.array([[2.0, 20.0]])
    out = nn.predict(net, y)
    expected = (y - frozen_mean) / np.sqrt(frozen_var + nn.BATCHNORM_EPS)
    assert np.allclose(out, expected)
    assert np.array_equal(params.running_mean, frozen_mean)  # predict never updates


def test_backward_zero_loss_gives_zero_gradients():
    net = _network_for([nn.dense(1, 1), nn.sigmoid(1)])
    net.flat[...] = 0.0
    out, cache = nn.forward(net, [[1.0]])
    assert out[0, 0] == 0.5
    nn.backward(cache, [[0.5]])
    for g in gradient_arrays(net):
        assert np.array_equal(g, np.zeros_like(g))


def test_backward_fused_hand_value():
    net = _network_for([nn.dense(1, 1), nn.sigmoid(1)])
    net.layers[0].weights[...] = 0.0
    net.layers[0].bias[...] = 0.0
    _, cache = nn.forward(net, [[1.0]])
    nn.backward(cache, [[1.0]])
    d_weights, d_bias = net.grad_layers[0]
    assert d_weights[0, 0] == -0.5
    assert d_bias[0] == -0.5


def test_backward_loss_activation_mismatch():
    # the loss follows from the last layer; a relu ending has none
    net = _network_for([nn.dense(2, 2), nn.relu(2)])
    _, cache = nn.forward(net, np.zeros((1, 2)))
    with pytest.raises(ConsistencyError):
        nn.backward(cache, [[1.0, 0.0]])
    with pytest.raises(ConsistencyError):
        nn.loss(net, cache.output, [[1.0, 0.0]])
    nn.backward_from(cache, [[1.0, 0.0]])  # an upstream gradient needs no loss
    with pytest.raises(ShapeError, match="upstream gradient shape"):
        nn.backward_from(cache, [1.0, 0.0])


def test_parameter_fields_cannot_be_rebound():
    net = _network_for([nn.dense(2, 2), nn.batchnorm(2)])
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[0].weights = np.zeros((2, 2))
    with pytest.raises(dataclasses.FrozenInstanceError):
        net.layers[1].running_mean = np.zeros(2)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(123)
    for trial in range(8):
        loss_kind = "bce" if trial % 2 == 0 else "categorical_ce"
        net, x, targets = random_network_case(rng, loss_kind)
        dropout_seed = trial

        out, cache = nn.forward(net, x, rng=np.random.default_rng(dropout_seed))
        nn.backward(cache, targets)

        def loss():
            return network_loss(net, x, targets, dropout_seed)

        fd = finite_difference_gradients(loss, parameter_arrays(net))
        err = max_relative_error(gradient_arrays(net), fd)
        assert err < 1e-4, f"trial {trial} ({loss_kind}): rel err {err}"


def test_backward_from_matches_finite_differences():
    # loss = sum(output * R) exercises the upstream-gradient entry point the
    # adversarial generator update uses
    rng = np.random.default_rng(77)
    spec = [
        nn.dense(3, 4),
        nn.relu(4),
        nn.batchnorm(4),
        nn.dense(4, 2),
        nn.sigmoid(2),
    ]
    net = nn.init_network(spec, rng, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    r = rng.normal(size=(5, 2))

    _, cache = nn.forward(net, x)
    nn.backward_from(cache, r)

    def loss():
        out, _ = nn.forward(net, x)
        return float(np.sum(out * r))

    fd = finite_difference_gradients(loss, parameter_arrays(net))
    assert max_relative_error(gradient_arrays(net), fd) < 1e-4


def test_backward_from_takes_any_layout_and_hands_each_kernel_a_contiguous_delta(monkeypatch):
    # the upstream gradient is made C-contiguous once; every delta after it is
    # a fresh kernel result, so no layer converts again
    rng = np.random.default_rng(83)
    net = nn.init_network([nn.dense(3, 4), nn.batchnorm(4), nn.relu(4), nn.dense(4, 5),
                           nn.sigmoid(5)], rng, learning_rate=0.01)
    _, cache = nn.forward(net, rng.normal(size=(6, 3)))
    contiguous = []

    def spying(kernel, delta_at):
        def spy(*args):
            contiguous.append(args[delta_at].flags.c_contiguous)
            return kernel(*args)
        return spy

    monkeypatch.setattr(kernels, "dense_backward", spying(kernels.dense_backward, 1))
    monkeypatch.setattr(kernels, "batchnorm_backward", spying(kernels.batchnorm_backward, 0))
    for kind, kernel in list(nn._ACTIVATION_GRADS.items()):
        monkeypatch.setitem(nn._ACTIVATION_GRADS, kind, spying(kernel, 1))
    for upstream in (rng.normal(size=(5, 6)).T, rng.normal(size=(6, 10))[:, ::2]):
        assert not upstream.flags.c_contiguous
        nn.backward_from(cache, np.ascontiguousarray(upstream))
        expected = net.grads.tobytes()
        net.grads[...] = 0.0
        nn.backward_from(cache, upstream)
        assert net.grads.tobytes() == expected
    assert contiguous == [True] * 20  # 5 layers, 2 calls per layout


def test_backward_from_through_a_final_softmax_matches_finite_differences():
    # the fused loss skips the softmax's own backward; an upstream gradient runs it
    rng = np.random.default_rng(79)
    net = nn.init_network([nn.dense(3, 4), nn.sigmoid(4), nn.dense(4, 3), nn.softmax(3)],
                          rng, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    r = rng.normal(size=(5, 3))

    _, cache = nn.forward(net, x)
    nn.backward_from(cache, r)

    def loss():
        out, _ = nn.forward(net, x)
        return float(np.sum(out * r))

    fd = finite_difference_gradients(loss, parameter_arrays(net))
    assert max_relative_error(gradient_arrays(net), fd) < 1e-4


def test_hidden_softmax_gradients_match_finite_differences():
    rng = np.random.default_rng(80)
    spec = [nn.dense(3, 4), nn.softmax(4), nn.dense(4, 2), nn.sigmoid(2)]
    net = nn.init_network(spec, rng, learning_rate=0.01)
    x = rng.normal(size=(5, 3))
    targets = rng.integers(0, 2, size=(5, 2)).astype(np.float64)

    _, cache = nn.forward(net, x)
    nn.backward(cache, targets)

    fd = finite_difference_gradients(lambda: network_loss(net, x, targets),
                                     parameter_arrays(net))
    assert max_relative_error(gradient_arrays(net), fd) < 1e-4


def test_input_gradient_matches_finite_differences():
    # d(mean bce)/d(input) through dropout, as the generator update reads it
    # from the discriminator; the dropout mask is fixed by its seed
    rng = np.random.default_rng(78)
    spec = [nn.dense(2, 3), nn.sigmoid(3), nn.dropout(3, 0.25), nn.dense(3, 2), nn.sigmoid(2)]
    net = nn.init_network(spec, rng, learning_rate=0.01)
    x = rng.normal(size=(4, 2))
    targets = rng.integers(0, 2, size=(4, 2)).astype(np.float64)
    _, cache = nn.forward(net, x, rng=np.random.default_rng(5))
    analytic = nn.input_gradient(cache, targets)

    [fd] = finite_difference_gradients(
        lambda: network_loss(net, x, targets, dropout_seed=5), [x]
    )
    assert max_relative_error([analytic], [fd]) < 1e-4


def test_input_gradient_leaves_the_gradient_buffer_untouched():
    spec = gan.discriminator_spec(10)
    net = _network_for(spec, seed=12)
    rng = np.random.default_rng(13)
    x, targets = _train_batch(spec, rng)
    _, cache = nn.forward(net, x, rng=rng)
    nn.backward(cache, targets)
    before = net.grads.copy()
    nn.input_gradient(cache, 1.0 - targets)
    assert np.array_equal(net.grads, before)


def test_backward_overwrites_the_network_s_own_buffer():
    spec = classifiers.mlp_spec(10)
    net = _network_for(spec, seed=14)
    buffer = net.grads
    rng = np.random.default_rng(15)
    values = []
    for _ in range(2):
        x, targets = _train_batch(spec, rng)
        _, cache = nn.forward(net, x)
        assert nn.backward(cache, targets) is None
        values.append(net.grads.copy())
    assert net.grads is buffer
    assert not np.array_equal(values[0], values[1])  # overwritten in place


def test_adam_zero_gradient_is_noop():
    net = _network_for([nn.dense(2, 1)], learning_rate=0.1)
    net.flat[:] = [1.0, -2.0, 3.0]
    _adam_step_with(net, np.zeros(3))
    assert np.array_equal(net.flat, [1.0, -2.0, 3.0])
    assert net.step_count == 1


def test_adam_first_step_closed_form():
    # bias correction makes the first step magnitude lr/(1 + eps)
    net = _network_for([nn.dense(1, 1)], learning_rate=0.1)
    net.flat[:] = 0.0
    _adam_step_with(net, np.ones(2))
    for value in net.flat:
        assert abs(value - (-0.1 / (1.0 + 1e-8))) < 1e-15
        assert abs(value + 0.1) < 1e-8


def test_adam_identical_parameters_stay_identical():
    rng = np.random.default_rng(4)
    net = _network_for([nn.dense(1, 7)])  # 7 weights then 7 biases
    a = rng.normal(size=7)
    net.flat[:] = np.concatenate([a, a])
    for _ in range(50):
        g = rng.normal(size=7)
        _adam_step_with(net, np.concatenate([g, g]))
    assert np.array_equal(net.flat[:7], net.flat[7:])
    assert net.step_count == 50


def test_second_moment_stays_nonnegative():
    rng = np.random.default_rng(6)
    net = _network_for([nn.dense(4, 1)], learning_rate=0.05)
    net.flat[:] = rng.normal(size=5)
    for _ in range(100):
        _adam_step_with(net, rng.normal(size=5))
        assert np.all(net.second_moment >= 0.0)


ADAM_SPECS = {
    "logreg": [nn.dense(10, 1), nn.sigmoid(1)],
    "mlp": classifiers.mlp_spec(10),
    "generator": gan.generator_spec(10),
    "discriminator": gan.discriminator_spec(10),
}


def _train_batch(spec, rng, rows=16):
    """Inputs and random targets for one bce/categorical-ce training step."""
    x = rng.normal(size=(rows, spec[0].input_dim))
    width = spec[-1].output_dim
    if spec[-1].kind == "softmax":
        return x, np.eye(width)[rng.integers(0, width, size=rows)]
    return x, rng.integers(0, 2, size=(rows, width)).astype(np.float64)


@pytest.mark.parametrize("name", list(ADAM_SPECS))
def test_fused_adam_matches_per_array_loop_bit_for_bit(name):
    spec = ADAM_SPECS[name]
    net = _network_for(spec, seed=21, learning_rate=0.01)
    reference = [a.copy() for a in parameter_arrays(net)]
    ref_m = [np.zeros_like(a) for a in reference]
    ref_v = [np.zeros_like(a) for a in reference]
    rng = np.random.default_rng(22)
    for step in range(1, 51):
        x, targets = _train_batch(spec, rng)
        _, cache = nn.forward(net, x, rng=rng)
        nn.backward(cache, targets)
        per_array_adam_step(
            reference, [g.copy() for g in gradient_arrays(net)], ref_m, ref_v, step, 0.01
        )
        nn.adam_step(net)
        for got, want in zip(parameter_arrays(net), reference):
            assert np.array_equal(got, want), f"{name}: parameters differ at step {step}"
        assert np.array_equal(net.first_moment, np.concatenate([m.ravel() for m in ref_m]))
        assert np.array_equal(net.second_moment, np.concatenate([v.ravel() for v in ref_v]))


LEAN_STEPS = 300


def _reference_update(ref, step, cache, delta, start):
    """One update of ``ref`` by the allocating backward walk from layer
    ``start`` and the per-array Adam loop."""
    flat_grad, _ = reference_backward(ref, cache, delta, start)
    per_array_adam_step([ref.flat], [flat_grad], [ref.first_moment], [ref.second_moment],
                        step, ref.learning_rate)


def _loss_delta(net, cache, targets):
    return reference_loss_delta(net.spec[-1].kind, cache.output, targets)


def _assert_same_state(net, ref, what):
    for name in ("flat", "first_moment", "second_moment"):
        assert np.array_equal(getattr(net, name), getattr(ref, name)), f"{what}: {name} differs"


@pytest.mark.parametrize("name", ["logreg", "mlp"])
def test_lean_step_matches_allocating_reference_bit_for_bit(name):
    spec = ADAM_SPECS[name]
    net, ref = _network_for(spec, seed=31), _network_for(spec, seed=31)
    rng = np.random.default_rng(32)
    for step in range(1, LEAN_STEPS + 1):
        x, targets = _train_batch(spec, rng, rows=64)
        _, cache = nn.forward(net, x)
        nn.backward(cache, targets)
        nn.adam_step(net)
        _, cache = nn.forward(ref, x)
        _reference_update(ref, step, cache, _loss_delta(ref, cache, targets), len(spec) - 2)
    _assert_same_state(net, ref, name)


def _gan_epoch(gen, disc, real, noise, seeds, epoch=None):
    """train_gan's epoch on given rows, noise and dropout seeds; with an
    ``epoch`` number the updates run through the allocating reference."""
    real_labels = np.ones((real.shape[0], 1))
    disc_targets = np.vstack([real_labels, np.zeros_like(real_labels)])
    fake, _ = nn.forward(gen, noise[0])
    _, cache = nn.forward(disc, np.vstack([real, fake]),
                          rng=np.random.default_rng(seeds[0]))
    if epoch is None:
        nn.backward(cache, disc_targets)
        nn.adam_step(disc)
    else:
        _reference_update(disc, epoch, cache, _loss_delta(disc, cache, disc_targets),
                          len(disc.spec) - 2)
    fake, gen_cache = nn.forward(gen, noise[1])
    _, cache = nn.forward(disc, fake, rng=np.random.default_rng(seeds[1]))
    if epoch is None:
        nn.backward_from(gen_cache, nn.input_gradient(cache, real_labels))
        nn.adam_step(gen)
    else:
        _, to_fake = reference_backward(disc, cache, _loss_delta(disc, cache, real_labels),
                                        len(disc.spec) - 2)
        _reference_update(gen, epoch, gen_cache, to_fake, len(gen.spec) - 1)


def test_lean_gan_epochs_match_allocating_reference_bit_for_bit():
    dim, batch = 10, 64
    gen, ref_gen = (_network_for(gan.generator_spec(dim), 41, 1e-3) for _ in range(2))
    disc, ref_disc = (_network_for(gan.discriminator_spec(dim), 42, 1e-3) for _ in range(2))
    rng = np.random.default_rng(43)
    for epoch in range(1, LEAN_STEPS + 1):
        real = rng.random((batch, dim))
        noise = rng.standard_normal((2, batch, gan.NOISE_DIM))
        seeds = rng.integers(2**32, size=2)
        _gan_epoch(gen, disc, real, noise, seeds)
        _gan_epoch(ref_gen, ref_disc, real, noise, seeds, epoch=epoch)
    _assert_same_state(disc, ref_disc, "discriminator")
    _assert_same_state(gen, ref_gen, "generator")


def _assert_views_tile(arrays, flat):
    """Each array is a view into flat, in order, covering every element once."""
    assert all(np.shares_memory(a, flat) for a in arrays)
    saved = flat.copy()
    flat[:] = np.arange(flat.size)
    assert np.array_equal(np.concatenate([a.ravel() for a in arrays]), flat)
    flat[:] = saved


@pytest.mark.parametrize("name", list(ADAM_SPECS))
def test_parameters_and_gradients_are_views_into_one_vector(name):
    spec = ADAM_SPECS[name]
    net = _network_for(spec, seed=3)
    arrays = parameter_arrays(net)
    expected = []  # spec order: dense (weights, bias), batchnorm (gamma, beta)
    for layer in spec:
        if layer.kind == "dense":
            expected += [(layer.input_dim, layer.output_dim), (layer.output_dim,)]
        elif layer.kind == "batchnorm":
            expected += [(layer.input_dim,)] * 2
    assert [a.shape for a in arrays] == expected
    _assert_views_tile(arrays, net.flat)
    rng = np.random.default_rng(4)
    x, targets = _train_batch(spec, rng)
    _, cache = nn.forward(net, x, rng=rng)
    nn.backward(cache, targets)
    assert net.grads.shape == net.flat.shape
    _assert_views_tile(gradient_arrays(net), net.grads)


def test_forward_after_adam_step_sees_updated_weights():
    spec = classifiers.mlp_spec(10)
    net = _network_for(spec, seed=5, learning_rate=0.1)
    x, targets = _train_batch(spec, np.random.default_rng(6))
    before, cache = nn.forward(net, x)
    nn.backward(cache, targets)
    nn.adam_step(net)
    after, _ = nn.forward(net, x)
    rebuilt = _network_for(spec, seed=99)
    rebuilt.flat[:] = net.flat
    assert not np.array_equal(before, after)
    assert np.array_equal(after, nn.forward(rebuilt, x)[0])


def test_adam_step_is_one_kernel_call(monkeypatch):
    calls = []
    original = kernels.adam_update

    def counted(*args):
        calls.append(args[0].size)
        return original(*args)

    monkeypatch.setattr(kernels, "adam_update", counted)
    spec = classifiers.mlp_spec(10)
    net = _network_for(spec)
    x, targets = _train_batch(spec, np.random.default_rng(8))
    _, cache = nn.forward(net, x)
    nn.backward(cache, targets)
    nn.adam_step(net)
    assert calls == [net.flat.size]


def test_training_is_deterministic_under_seed():
    def train_once():
        rng = np.random.default_rng(99)
        spec = [nn.dense(3, 4), nn.relu(4), nn.dense(4, 1), nn.sigmoid(1)]
        net = nn.init_network(spec, rng, learning_rate=0.01)
        x = np.random.default_rng(1).normal(size=(8, 3))
        t = np.random.default_rng(2).integers(0, 2, size=(8, 1)).astype(np.float64)
        for _ in range(25):
            _, cache = nn.forward(net, x)
            nn.backward(cache, t)
            nn.adam_step(net)
        return net

    first = parameter_arrays(train_once())
    second = parameter_arrays(train_once())
    for a, b in zip(first, second):
        assert np.array_equal(a, b)


def test_all_values_finite_after_forward_backward():
    rng = np.random.default_rng(31)
    for trial in range(5):
        net, x, targets = random_network_case(rng, "bce")
        out, cache = nn.forward(net, x, rng=np.random.default_rng(0))
        nn.backward(cache, targets)
        assert np.all(np.isfinite(out))
        for g in gradient_arrays(net):
            assert np.all(np.isfinite(g))
