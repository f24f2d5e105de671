"""Adversarial training of a minority-class sample generator.

The generator maps 100-dimensional standard-normal noise through two ReLU
hidden layers (100 units, then one per output feature), batch normalization,
and a sigmoid output so samples land in (0,1) like the min-max-scaled data.
The discriminator is three 36-unit sigmoid layers, each followed by 20%
dropout, and a sigmoid output.  Each epoch performs one discriminator update
(real rows labeled 1, generated rows labeled 0, binary cross-entropy) followed
by one generator update through the frozen discriminator using the
non-saturating loss (fakes scored against label 1).  Both sides use Adam at
the same learning rate.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from ganbalance import nn
from ganbalance.data import Dataset, write_csv
from ganbalance.errors import EmptyMinorityError, GanStalledError, PreconditionError

NOISE_DIM = 100
GENERATOR_HIDDEN = 100
DISCRIMINATOR_HIDDEN = 36
DISCRIMINATOR_DROPOUT = 0.2
GENERATE_BLOCK = 4096  # most rows that sample_blocks runs through the network at once


@dataclass
class GanTrainConfig:
    epochs: int = 10000
    learning_rate: float = 1e-5
    batch_size: int = 64  # capped at the number of positive rows
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs (--gan-epochs) is {self.epochs}, must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate (--gan-lr) is {self.learning_rate:g}, "
                             "must be finite and positive")
        if self.batch_size < 1:
            raise ValueError(f"batch_size (--gan-batch) is {self.batch_size}, must be >= 1")
        if self.log_every < 1:
            raise ValueError(f"log_every (--gan-log-every) is {self.log_every}, must be >= 1")


def generator_spec(feature_dim: int = 30):
    return [
        nn.dense(NOISE_DIM, GENERATOR_HIDDEN),
        nn.relu(GENERATOR_HIDDEN),
        nn.dense(GENERATOR_HIDDEN, feature_dim),
        nn.relu(feature_dim),
        nn.batchnorm(feature_dim),
        nn.dense(feature_dim, feature_dim),
        nn.sigmoid(feature_dim),
    ]


def discriminator_spec(feature_dim: int = 30):
    h = DISCRIMINATOR_HIDDEN
    spec = [nn.dense(feature_dim, h), nn.sigmoid(h), nn.dropout(h, DISCRIMINATOR_DROPOUT)]
    for _ in range(2):
        spec += [nn.dense(h, h), nn.sigmoid(h), nn.dropout(h, DISCRIMINATOR_DROPOUT)]
    spec += [nn.dense(h, 1), nn.sigmoid(1)]
    return spec


def sample_noise(n: int, rng: np.random.Generator) -> np.ndarray:
    """n rows of NOISE_DIM standard normals: the generator's input."""
    if n < 1:
        raise PreconditionError("need at least one noise row")
    return rng.standard_normal((n, NOISE_DIM))


def train_gan(train: Dataset, config: GanTrainConfig) -> tuple[nn.Network, list]:
    """Train the adversarial pair on the label-1 rows of ``train``, in file
    order; returns the generator network and the log: one ``(epoch,
    gen_loss, disc_loss, disc_acc)`` tuple every ``log_every`` epochs and at
    the last.

    Raises GanStalledError when the generator's gradient was exactly zero in
    each of the last ceil(epochs / 10) epochs: the discriminator saturated
    (as a too-large learning rate makes it), so the generator stopped learning.
    """
    x = train.features[train.labels == 1]
    if x.shape[0] == 0:
        raise EmptyMinorityError("training set has no positive rows")
    if x.shape[0] < 2:
        raise PreconditionError("need at least 2 minority rows to train")
    if x.min() < 0.0 or x.max() > 1.0:
        raise PreconditionError("minority features must lie in [0, 1]")

    feature_dim = x.shape[1]
    rng = np.random.default_rng(config.seed)
    gen = nn.init_network(generator_spec(feature_dim), rng, config.learning_rate)
    disc = nn.init_network(discriminator_spec(feature_dim), rng, config.learning_rate)

    n = x.shape[0]
    batch = min(config.batch_size, n)
    real_labels = np.ones((batch, 1))
    fake_labels = np.zeros((batch, 1))
    disc_targets = np.vstack([real_labels, fake_labels])
    log = []
    stalled = 0  # trailing epochs in which the generator's gradient was all zero

    # the sigmoid's exp(-x) may overflow, yet its 0 is exact (errstate per kernel call: ~1.5 us)
    with np.errstate(over="ignore"):
        for epoch in range(1, config.epochs + 1):
            # discriminator step: real batch vs freshly generated batch
            real = x[rng.choice(n, size=batch, replace=False)]
            fake, _ = nn.forward(gen, sample_noise(batch, rng))
            disc_out, disc_cache = nn.forward(disc, np.vstack([real, fake]), rng=rng)
            disc_loss = nn.loss(disc, disc_out, disc_targets)
            disc_acc = float(np.mean((disc_out > 0.5).astype(np.int64) == disc_targets))
            nn.backward(disc_cache, disc_targets)
            nn.adam_step(disc)

            # generator step: push fakes toward the discriminator's "real" label
            fake, gen_cache = nn.forward(gen, sample_noise(batch, rng))
            disc_out, disc_cache = nn.forward(disc, fake, rng=rng)
            gen_loss = nn.loss(disc, disc_out, real_labels)
            nn.backward_from(gen_cache, nn.input_gradient(disc_cache, real_labels))
            stalled = 0 if gen.grads.any() else stalled + 1
            nn.adam_step(gen)

            if epoch % config.log_every == 0 or epoch == config.epochs:
                log.append((epoch, gen_loss, disc_loss, disc_acc))

    if stalled >= -(-config.epochs // 10):
        raise GanStalledError(
            f"the generator's gradient was zero from epoch {config.epochs - stalled + 1} on "
            f"(the discriminator saturated); lower --gan-lr ({config.learning_rate:g})")
    return gen, log


def sample_blocks(network: nn.Network, n: int, rng: np.random.Generator):
    """Check n, then return an iterator over n synthetic minority rows, every
    value strictly in (0, 1), in ceil(n / GENERATE_BLOCK) equal blocks that are
    sampled as they are asked for, so memory does not grow with n.  The
    generator runs in inference mode, so the rows depend only on it and the
    rng; noise and bytes match one-shot sampling (BLAS rounds small matmuls
    differently, so a short tail block would not)."""
    if n < 1:
        raise PreconditionError("need n >= 1 generated rows")
    k = -(-n // GENERATE_BLOCK)
    return (_sample_block(network, n * (i + 1) // k - n * i // k, rng) for i in range(k))


def _sample_block(network: nn.Network, rows: int, rng: np.random.Generator) -> np.ndarray:
    with np.errstate(over="ignore"):  # a saturated sigmoid is exact; see train_gan
        block = nn.predict(network, sample_noise(rows, rng))
    # sigmoid saturates to exactly 0.0/1.0 for |z| > ~37: nudge into (0, 1)
    return np.clip(block, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=block)


def write_log_csv(log: list, path) -> None:
    write_csv(path, ["epoch", "gen_loss", "disc_loss", "disc_acc"],
              [(np.array(log, dtype=np.float64), "%d,%.6f,%.6f,%.6f\n")])


def write_samples_csv(blocks, path) -> None:
    """Write the rows of an iterable of (rows, d) sample blocks, at least one,
    each as it arrives; opens path at the first."""
    blocks = iter(blocks)
    first = next(blocks)
    row_format = ",".join(["%.9f"] * first.shape[1]) + "\n"
    write_csv(path, [f"f{i}" for i in range(first.shape[1])],
              ((block, row_format) for block in itertools.chain([first], blocks)))
