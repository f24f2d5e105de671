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
        min_leaf = int(rng.integers(1, 4))
        a = K.split_scan(vals, labs, min_leaf)
        b = split_scan_loop(vals, labs, min_leaf)
        assert a == b, f"trial {trial}"


def test_split_scan_handles_degenerate_inputs():
    one = np.array([1.0])
    assert not K.split_scan(one, np.array([1], dtype=np.int64), 1)[2]
    const = np.full(6, 2.0)
    labs = np.array([0, 1, 0, 1, 0, 1], dtype=np.int64)
    assert not K.split_scan(const, labs, 1)[2]
    # min_leaf too large for any boundary
    vals = np.array([0.0, 0.0, 1.0, 1.0])
    labs4 = np.array([0, 0, 1, 1], dtype=np.int64)
    assert not K.split_scan(vals, labs4, 3)[2]


def test_split_scan_prefers_lowest_threshold_on_ties():
    # symmetric pattern: both boundaries give identical gain; lowest wins
    vals = np.array([0.0, 1.0, 2.0, 3.0])
    labs = np.array([0, 1, 0, 1], dtype=np.int64)
    score, thr, found = K.split_scan(vals, labs, 1)
    assert found
    assert thr == 0.5
