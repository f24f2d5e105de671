"""Microbenchmark of one training step at the shapes the pipeline really uses.

    PYTHONPATH=src python perfbench/microbench.py

Prints one JSON object with the microseconds per step of

- ``mlp``: one MLP minibatch update, 64x10 -> 30 -> 30 -> 2 (train_mlp)
- ``logreg``: one logistic-regression minibatch update, 64x10 -> 1 (train_logreg)
- ``gan``: one GAN epoch, discriminator 128x10 -> 36^3 -> 1 and generator
  64x100 -> 100 -> 10 (train_gan with batch 64)

Each figure is timed through the program's own trainer at two lengths, so
that set-up cost cancels: (median time at the long length - median time at
the short length) / the extra steps.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

from ganbalance import classifiers, gan
from ganbalance.classifiers import TrainConfig
from ganbalance.data import Dataset

BATCH = 64
ROWS = BATCH * 50  # 50 full minibatches per classifier epoch
REPEATS = 5


def _per_step_us(fit, short: int, long: int, steps_per_unit: int) -> float:
    times = {short: [], long: []}
    for _ in range(REPEATS):
        for length in (short, long):
            started = time.perf_counter()
            fit(length)
            times[length].append(time.perf_counter() - started)
    extra = statistics.median(times[long]) - statistics.median(times[short])
    return extra / ((long - short) * steps_per_unit) * 1e6


def main() -> dict:
    rng = np.random.default_rng(7)
    features = rng.random((ROWS, 10))
    labels = (features[:, 0] + 0.2 * rng.standard_normal(ROWS) > 0.5).astype(np.int64)
    table = Dataset(features, labels)
    positives = Dataset(np.clip(rng.normal(0.6, 0.1, (300, 10)), 0, 1),
                        np.ones(300, dtype=np.int64))

    def classifier(train):
        return lambda epochs: train(table, TrainConfig(epochs=epochs, seed=1,
                                                       batch_size=BATCH))

    def gan_fit(epochs):
        gan.train_gan(positives, gan.GanTrainConfig(epochs=epochs, seed=1,
                                                    batch_size=BATCH))

    steps = ROWS // BATCH
    return {
        "mlp": _per_step_us(classifier(classifiers.train_mlp), 1, 5, steps),
        "logreg": _per_step_us(classifier(classifiers.train_logreg), 2, 14, steps),
        "gan": _per_step_us(gan_fit, 20, 120, 1),
    }


if __name__ == "__main__":
    print(json.dumps(main()))
