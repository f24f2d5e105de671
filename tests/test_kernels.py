"""The tree's split-scan kernel against the plain-loop reference."""

import numpy as np

from ganbalance import kernels as K
from oracles import split_scan_loop

rng = np.random.default_rng(101)


def test_split_scan_backends_bit_identical():
    for trial in range(200):
        n = int(rng.integers(2, 40))
        vals = np.sort(rng.integers(0, 5, size=n).astype(np.float64))
        labs = rng.integers(0, 2, size=n).astype(np.int64)
        a = K.split_scan(vals, labs)
        b = split_scan_loop(vals, labs, min_leaf=1)
        assert a == b, f"trial {trial}"


def test_split_scan_handles_degenerate_inputs():
    one = np.array([1.0])
    assert not K.split_scan(one, np.array([1], dtype=np.int64))[2]
    const = np.full(6, 2.0)
    labs = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    assert not K.split_scan(const, labs)[2]


def test_split_scan_prefers_lowest_threshold_on_ties():
    # symmetric pattern: both boundaries give identical gain; lowest wins
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    labs = np.array([0, 1, 0, 1], dtype=np.int64)
    score, thr, found = K.split_scan(vals, labs)
    assert found
    assert thr == 0.5


def test_sigmoid_forward_matches_the_allocating_form_bit_for_bit():
    x = np.concatenate([rng.normal(0.0, 4.0, size=500), [-800.0, -40.0, 0.0, 40.0, 800.0]])
    with np.errstate(over="ignore"):  # exp(800) is inf, and sigmoid then 0
        for values in (x, x.reshape(5, 101)):
            assert np.array_equal(K.sigmoid_forward(values), 1.0 / (1.0 + np.exp(-values)))
