"""Adversarial trainer: fixed architectures, determinism, logging, sampling."""

import tracemalloc

import numpy as np
import pytest

from ganbalance import gan, nn
from ganbalance.data import Dataset
from ganbalance.errors import EmptyMinorityError, GanStalledError, PreconditionError
from helpers import fresh_generator, parameter_arrays


def _minority(n=40, dim=5, seed=0):
    rng = np.random.default_rng(seed)
    features = np.clip(rng.normal(0.6, 0.08, size=(n, dim)), 0.0, 1.0)
    return Dataset(features, np.ones(n, dtype=np.int64))


def test_generator_spec_structure():
    spec = gan.generator_spec(30)
    nn.init_network(spec, np.random.default_rng(0), 1e-5)  # dims chain
    assert spec[0].input_dim == 100
    assert spec[-1].kind == "sigmoid"
    assert spec[-1].output_dim == 30
    kinds = [layer.kind for layer in spec]
    assert kinds == ["dense", "relu", "dense", "relu", "batchnorm", "dense", "sigmoid"]


def test_discriminator_spec_structure():
    spec = gan.discriminator_spec(30)
    nn.init_network(spec, np.random.default_rng(0), 1e-5)  # dims chain
    kinds = [layer.kind for layer in spec]
    assert kinds == [
        "dense", "sigmoid", "dropout",
        "dense", "sigmoid", "dropout",
        "dense", "sigmoid", "dropout",
        "dense", "sigmoid",
    ]
    assert all(layer.rate == 0.2 for layer in spec if layer.kind == "dropout")
    assert spec[-2].output_dim == 1
    hidden = [layer for layer in spec if layer.kind == "dense"][:-1]
    assert all(layer.output_dim == 36 for layer in hidden)


def test_config_validation():
    with pytest.raises(ValueError):
        gan.GanTrainConfig(epochs=0)
    with pytest.raises(ValueError):
        gan.GanTrainConfig(learning_rate=0.0)


@pytest.mark.parametrize("learning_rate", [float("nan"), float("inf"), float("-inf")])
def test_config_rejects_non_finite_learning_rate(learning_rate):
    with pytest.raises(ValueError):
        gan.GanTrainConfig(learning_rate=learning_rate)


@pytest.mark.parametrize("log_every", [0, -1])
def test_config_rejects_log_every_below_one(log_every):
    with pytest.raises(ValueError):
        gan.GanTrainConfig(log_every=log_every)


def test_sample_noise_shape_and_determinism():
    a = gan.sample_noise(3, np.random.default_rng(1))
    b = gan.sample_noise(3, np.random.default_rng(1))
    assert a.shape == (3, 100)
    assert np.array_equal(a, b)
    one = gan.sample_noise(1, np.random.default_rng(2))
    assert one.shape == (1, 100)
    with pytest.raises(PreconditionError):
        gan.sample_noise(0, np.random.default_rng(2))


def test_sample_noise_moments():
    draws = gan.sample_noise(1000, np.random.default_rng(3))
    flat = draws.ravel()  # 1e5 samples
    assert abs(flat.mean()) < 0.02
    assert abs(flat.var() - 1.0) < 0.02


def test_train_single_epoch_smoke():
    config = gan.GanTrainConfig(epochs=1, seed=5)
    generator, log = gan.train_gan(_minority(), config)
    assert len(log) == 1
    epoch, gen_loss, disc_loss, disc_acc = log[0]
    assert epoch == 1
    assert np.isfinite(gen_loss) and np.isfinite(disc_loss)
    assert 0.0 <= disc_acc <= 1.0
    assert isinstance(generator, nn.Network)


def test_update_alternation_via_hook(monkeypatch):
    # record which network each Adam update went to, and its step count
    calls = []
    original = nn.adam_step

    def recorded(net):
        original(net)
        kind = "gen" if net.spec[0].input_dim == gan.NOISE_DIM else "disc"
        calls.append((kind, net.step_count))

    monkeypatch.setattr(nn, "adam_step", recorded)
    config = gan.GanTrainConfig(epochs=5, seed=6)
    gan.train_gan(_minority(n=10, dim=3), config)
    expected = []
    for epoch in range(1, 6):
        expected += [("disc", epoch), ("gen", epoch)]
    assert calls == expected


def test_training_deterministic_under_seed():
    config = gan.GanTrainConfig(epochs=30, seed=7)
    gen_a, log_a = gan.train_gan(_minority(n=25, dim=4), config)
    gen_b, log_b = gan.train_gan(_minority(n=25, dim=4), config)
    for a, b in zip(parameter_arrays(gen_a), parameter_arrays(gen_b)):
        assert np.array_equal(a, b)
    assert log_a == log_b


def test_log_every_includes_final_epoch():
    config = gan.GanTrainConfig(epochs=10, seed=8, log_every=4)
    _, log = gan.train_gan(_minority(n=12, dim=3), config)
    assert [row[0] for row in log] == [4, 8, 10]


def test_train_precondition_errors():
    config = gan.GanTrainConfig(epochs=1)
    with pytest.raises(PreconditionError):
        gan.train_gan(Dataset(np.full((1, 3), 0.5), np.ones(1, dtype=np.int64)), config)
    out_of_range = Dataset(np.full((4, 3), 1.5), np.ones(4, dtype=np.int64))
    with pytest.raises(PreconditionError):
        gan.train_gan(out_of_range, config)
    for n in (1, 4):  # no positive row is reported before the 2-row check
        negatives = Dataset(np.full((n, 3), 0.5), np.zeros(n, dtype=np.int64))
        with pytest.raises(EmptyMinorityError, match="^training set has no positive rows$"):
            gan.train_gan(negatives, config)


def test_range_check_refuses_a_nan_positive_cell():
    # NaN compares false with both bounds; unchecked, it trains and logs nan losses
    features = np.full((10, 3), 0.5)
    features[4, 1] = np.nan
    with pytest.raises(PreconditionError, match=r"^minority features must lie in \[0, 1\]$"):
        gan.train_gan(Dataset(features, np.ones(10, dtype=np.int64)),
                      gan.GanTrainConfig(epochs=3))


def test_train_gan_fits_the_label_1_rows_of_a_mixed_set():
    # label-0 rows interleaved with the positives change nothing, even out of [0, 1]
    positives = _minority(n=12, dim=3)
    at = np.sort(np.random.default_rng(3).choice(21, size=12, replace=False))
    features, labels = np.full((21, 3), 2.5), np.zeros(21, dtype=np.int64)
    features[at], labels[at] = positives.features, 1
    config = gan.GanTrainConfig(epochs=6, seed=4, log_every=2)
    gen_mixed, log_mixed = gan.train_gan(Dataset(features, labels), config)
    gen_pos, log_pos = gan.train_gan(positives, config)
    assert gen_mixed.flat.tobytes() == gen_pos.flat.tobytes()
    assert log_mixed == log_pos


def test_generate_shape_and_open_interval():
    generator = fresh_generator(6, seed=9)
    samples = np.vstack(list(gan.sample_blocks(generator, 200, np.random.default_rng(10))))
    assert samples.shape == (200, 6)
    assert np.all((samples > 0.0) & (samples < 1.0))


def test_generate_deterministic_regardless_of_intervening_calls():
    generator = fresh_generator(4, seed=11)
    first = np.vstack(list(gan.sample_blocks(generator, 20, np.random.default_rng(12))))
    list(gan.sample_blocks(generator, 7, np.random.default_rng(99)))  # unrelated call
    second = np.vstack(list(gan.sample_blocks(generator, 20, np.random.default_rng(12))))
    assert np.array_equal(first, second)


def test_generate_samples_with_the_trained_noise():
    config = gan.GanTrainConfig(epochs=3, seed=18)
    generator, _ = gan.train_gan(_minority(n=12, dim=3), config)
    samples = np.vstack(list(gan.sample_blocks(generator, 6, np.random.default_rng(19))))
    noise = np.random.default_rng(19).standard_normal((6, gan.NOISE_DIM))
    expected = nn.predict(generator, noise)
    assert np.array_equal(samples, expected)


@pytest.mark.parametrize("feature_dim", [10, 30])
@pytest.mark.parametrize("n", [1, 4096, 4097, 2 * 4096 + 17, 100_000])
def test_blocked_generate_matches_one_shot_sampling_bit_for_bit(n, feature_dim):
    generator = fresh_generator(feature_dim, seed=20)
    rng, rng2 = np.random.default_rng(21), np.random.default_rng(21)
    samples = np.vstack(list(gan.sample_blocks(generator, n, rng)))
    one_shot = nn.predict(generator, gan.sample_noise(n, rng2))
    expected = np.clip(one_shot, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0))
    assert samples.tobytes() == expected.tobytes()
    # the caller's rng continues the same noise stream as after one draw
    assert rng.bit_generator.state == rng2.bit_generator.state


def test_generate_memory_does_not_grow_with_the_row_count():
    generator = fresh_generator(10, seed=22)  # the perfbench tables' width
    rng = np.random.default_rng(23)
    tracemalloc.start()
    try:
        for _ in gan.sample_blocks(generator, 100_000, rng):
            pass
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one block's working set sets the peak (6.8 MiB here, 6.6 MiB for 4,096
    # rows); stacking the 100,000 rows read 15.3 MiB, one-shot sampling 259.5 MiB
    assert peak < 10 * 2**20


def test_generate_rejects_zero_rows():
    generator = fresh_generator(4, seed=13)
    with pytest.raises(PreconditionError):
        gan.sample_blocks(generator, 0, np.random.default_rng(0))


def test_generated_batch_size_capped_at_minority_size():
    # 5 minority rows with the default batch size of 64 must still train
    config = gan.GanTrainConfig(epochs=3, seed=14)
    minority = _minority(n=5, dim=3)
    generator, log = gan.train_gan(minority, config)
    assert len(log) == 3
    samples = np.vstack(list(gan.sample_blocks(generator, 10, np.random.default_rng(1))))
    assert samples.shape == (10, 3)


def test_log_serialization_round_trip(tmp_path):
    config = gan.GanTrainConfig(epochs=4, seed=15)
    _, log = gan.train_gan(_minority(n=8, dim=3), config)
    path = tmp_path / "log.csv"
    gan.write_log_csv(log, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,gen_loss,disc_loss,disc_acc"
    assert len(lines) == 5


def test_samples_serialization(tmp_path):
    generator = fresh_generator(3, seed=16)
    path = tmp_path / "samples.csv"
    gan.write_samples_csv(gan.sample_blocks(generator, 5, np.random.default_rng(17)), path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "f0,f1,f2"
    assert len(lines) == 6


def test_huge_learning_rate_stalls_the_generator():
    # the discriminator saturates at its first step, after which the
    # generator's gradient is exactly zero in every epoch
    config = gan.GanTrainConfig(epochs=20, learning_rate=1e300, seed=9)
    with pytest.raises(GanStalledError, match=r"from epoch 1 on .*--gan-lr") as err:
        gan.train_gan(_minority(), config)
    # the error carries the log of every epoch
    assert [row[0] for row in err.value.log] == list(range(1, 21))


@pytest.mark.parametrize("zero_epochs, stalls", [(1, False), (2, True)])
def test_stall_needs_zero_gradients_over_the_last_tenth(monkeypatch, zero_epochs, stalls):
    # zero the generator's gradient in the last epochs of 20: a run of
    # ceil(20 / 10) = 2 such epochs stalls, one does not
    epochs = iter(range(1, 21))
    original = nn.backward_from

    def zeroed_late(cache, grad):
        original(cache, grad)
        if next(epochs) > 20 - zero_epochs:
            cache.network.grads[:] = 0.0

    monkeypatch.setattr(nn, "backward_from", zeroed_late)
    config = gan.GanTrainConfig(epochs=20, seed=9)
    if stalls:
        with pytest.raises(GanStalledError, match="from epoch 19 on"):
            gan.train_gan(_minority(), config)
    else:
        _, log = gan.train_gan(_minority(), config)
        assert len(log) == 20
