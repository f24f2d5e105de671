"""Numeric inner-loop kernels of the dense-network engine and the tree.

Each kernel is one numpy function.  All kernels take and return float64
arrays; callers own dtype discipline.
"""

import numpy as np


# --- dense / activation primitives ------------------------------------------


def dense_forward(X, W, b):
    return np.dot(X, W) + b


def dense_backward(X, delta, W):
    dW = np.dot(np.ascontiguousarray(X.T), delta)
    db = np.sum(delta, axis=0)
    dX = np.dot(delta, np.ascontiguousarray(W.T))
    return dW, db, dX


def relu_forward(X):
    return np.maximum(X, 0.0)


def relu_backward(X, delta):
    return np.where(X > 0.0, delta, 0.0)


def sigmoid_forward(X):
    return 1.0 / (1.0 + np.exp(-X))


def sigmoid_backward(Y, delta):
    return delta * Y * (1.0 - Y)


def softmax_forward(X):
    e = np.exp(X - X.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


# --- batch normalization ----------------------------------------------------


def batchnorm_train_forward(X, gamma, beta, eps):
    n = X.shape[0]
    mean = np.sum(X, axis=0) / n
    centered = X - mean
    var = np.sum(centered * centered, axis=0) / n
    xhat = centered / np.sqrt(var + eps)
    return gamma * xhat + beta, xhat, mean, var


def batchnorm_infer_forward(X, gamma, beta, running_mean, running_var, eps):
    return gamma * (X - running_mean) / np.sqrt(running_var + eps) + beta


def batchnorm_backward(delta, xhat, gamma, var, eps):
    n = delta.shape[0]
    dgamma = np.sum(delta * xhat, axis=0)
    dbeta = np.sum(delta, axis=0)
    inv_std = 1.0 / np.sqrt(var + eps)
    dx = (gamma * inv_std) * (
        delta - np.sum(delta, axis=0) / n - xhat * (np.sum(delta * xhat, axis=0) / n)
    )
    return dx, dgamma, dbeta


# --- Adam parameter update --------------------------------------------------


def adam_update(param, grad, m, v, c1, c2, lr, beta1, beta2, eps):
    """In-place update of flat param/m/v; c1/c2 are the step's bias
    corrections (1 - beta**t)."""
    m *= beta1
    m += (1.0 - beta1) * grad
    v *= beta2
    v += (1.0 - beta2) * grad * grad
    param -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


# --- decision-tree split scan -----------------------------------------------
#
# Input columns arrive pre-sorted; candidate thresholds are midpoints between
# consecutive distinct values.  Maximizing the Gini gain is equivalent to
# maximizing  S = (pl^2 + ql^2)/nl + (pr^2 + qr^2)/nr  (p/q are class counts
# per side), so candidates are ranked by the single correctly-rounded float
# division  ((pl^2+ql^2)*nr + (pr^2+qr^2)*nl) / (nl*nr).  Mathematically equal
# candidates then produce bit-identical scores, which makes the documented tie
# rule (lowest threshold within a feature, and the caller's ascending feature
# scan with a strict > test) exact.  The integer numerator stays within int64
# (and exact in float64) up to roughly 1.6M rows, far beyond any input here.


def split_scan(values, labels, min_leaf):
    n = values.shape[0]
    if n < 2:
        return -1.0, 0.0, False
    total_pos = int(labels.sum())
    boundaries = np.nonzero(values[:-1] != values[1:])[0]
    if boundaries.size == 0:
        return -1.0, 0.0, False
    nl = boundaries + 1
    nr = n - nl
    keep = (nl >= min_leaf) & (nr >= min_leaf)
    if not keep.any():
        return -1.0, 0.0, False
    boundaries = boundaries[keep]
    nl = nl[keep]
    nr = nr[keep]
    pl = np.cumsum(labels)[boundaries]
    ql = nl - pl
    pr = total_pos - pl
    qr = nr - pr
    num = (pl * pl + ql * ql) * nr + (pr * pr + qr * qr) * nl
    score = num / (nl * nr)
    k = int(np.argmax(score))
    i = int(boundaries[k])
    return float(score[k]), float((values[i] + values[i + 1]) / 2.0), True
