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

import math
from dataclasses import dataclass, field

import numpy as np

from ganbalance import nn
from ganbalance.data import Dataset, write_csv
from ganbalance.errors import PreconditionError

NOISE_DIM = 100
GENERATOR_HIDDEN = 100
DISCRIMINATOR_HIDDEN = 36
DISCRIMINATOR_DROPOUT = 0.2
GENERATE_BLOCK = 4096  # most rows that generate runs through the network at once


@dataclass
class GanTrainConfig:
    epochs: int = 10000
    learning_rate: float = 1e-5
    batch_size: int = 64  # capped at the number of positive rows
    seed: int = 0
    log_every: int = 1

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError("learning_rate must be finite and positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.log_every < 1:
            raise ValueError("log_every must be >= 1")


@dataclass
class GanTrainingLog:
    epochs: list = field(default_factory=list)
    gen_loss: list = field(default_factory=list)
    disc_loss: list = field(default_factory=list)
    disc_acc: list = field(default_factory=list)

    def append(self, epoch: int, gen_loss: float, disc_loss: float, disc_acc: float):
        self.epochs.append(epoch)
        self.gen_loss.append(gen_loss)
        self.disc_loss.append(disc_loss)
        self.disc_acc.append(disc_acc)

    def __len__(self) -> int:
        return len(self.epochs)


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


def train_gan(positives: Dataset, config: GanTrainConfig) -> tuple[nn.Network, GanTrainingLog]:
    """Train the adversarial pair on minority rows; returns the generator
    network and the per-epoch log."""
    x = positives.features
    if x.shape[0] < 2:
        raise PreconditionError("need at least 2 minority rows to train")
    if not np.all(positives.labels == 1):
        raise PreconditionError("generator trains on label-1 rows only")
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
    log = GanTrainingLog()

    # the sigmoid's exp(-x) may overflow, yet its 0 is exact (errstate per kernel call: ~1.5 us)
    with np.errstate(over="ignore"):
        for epoch in range(1, config.epochs + 1):
            # discriminator step: real batch vs freshly generated batch
            real = x[rng.choice(n, size=batch, replace=False)]
            fake, _ = nn.forward(gen, sample_noise(batch, rng), mode="train")
            disc_out, disc_cache = nn.forward(disc, np.vstack([real, fake]), mode="train", rng=rng)
            disc_loss = nn.loss_bce(disc_out, disc_targets)
            disc_acc = float(np.mean((disc_out > 0.5).astype(np.int64) == disc_targets))
            nn.backward(disc_cache, disc_targets)
            nn.adam_step(disc)

            # generator step: push fakes toward the discriminator's "real" label
            fake, gen_cache = nn.forward(gen, sample_noise(batch, rng), mode="train")
            disc_out, disc_cache = nn.forward(disc, fake, mode="train", rng=rng)
            gen_loss = nn.loss_bce(disc_out, real_labels)
            nn.backward_from(gen_cache, nn.input_gradient(disc_cache, real_labels))
            nn.adam_step(gen)

            if epoch % config.log_every == 0 or epoch == config.epochs:
                log.append(epoch, gen_loss, disc_loss, disc_acc)

    return gen, log


def generate(network: nn.Network, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample n synthetic minority rows; every value is strictly in (0, 1).

    Runs the generator network in inference mode (no dropout, running
    batchnorm statistics), so the output depends only on it and the rng.
    Rows are made in ceil(n / GENERATE_BLOCK) equal blocks into one array, so
    other memory does not grow with n; noise and bytes match one-shot sampling
    (BLAS rounds small matmuls differently, so a short tail block would not).
    """
    if n < 1:
        raise PreconditionError("need n >= 1 generated rows")
    out = np.empty((n, network.spec[-1].output_dim))
    k = -(-n // GENERATE_BLOCK)
    bounds = [n * i // k for i in range(k + 1)]
    with np.errstate(over="ignore"):  # a saturated sigmoid is exact; see train_gan
        for a, b in zip(bounds, bounds[1:]):
            out[a:b] = nn.forward(network, sample_noise(b - a, rng), mode="infer")[0]
    # sigmoid saturates to exactly 0.0/1.0 for |z| > ~37: nudge into (0, 1)
    return np.clip(out, np.nextafter(0.0, 1.0), np.nextafter(1.0, 0.0), out=out)


def write_log_csv(log: GanTrainingLog, path) -> None:
    write_csv(path, ["epoch", "gen_loss", "disc_loss", "disc_acc"], "%d,%.6f,%.6f,%.6f\n",
              zip(log.epochs, log.gen_loss, log.disc_loss, log.disc_acc))


def write_samples_csv(samples: np.ndarray, path) -> None:
    d = samples.shape[1]
    write_csv(path, [f"f{i}" for i in range(d)], ",".join(["%.9f"] * d) + "\n", samples)
