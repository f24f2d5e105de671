"""Numeric inner-loop kernels of the dense-network engine and the tree.

Each kernel is one numpy function.  All kernels take and return float64
arrays; callers own dtype discipline.
"""

import numpy as np


# --- dense / activation primitives ------------------------------------------


def dense_forward(X, W, b):
    out = np.dot(X, W)
    return np.add(out, b, out=out)  # in place: no second (batch, out) array


def dense_backward(X, delta, W, dW=None, db=None, input_grad=True):
    """Write the weight and bias gradients into ``dW`` and ``db`` unless ``dW``
    is None; return the input gradient, or None without ``input_grad``."""
    if dW is not None:
        np.dot(np.ascontiguousarray(X.T), delta, out=dW)
        np.add.reduce(delta, axis=0, out=db)
    return np.dot(delta, np.ascontiguousarray(W.T)) if input_grad else None


def relu_forward(X, out=None):
    return np.maximum(X, 0.0, out=out)


def relu_backward(Y, delta):
    return np.where(Y > 0.0, delta, 0.0)


def sigmoid_forward(X):
    out = np.negative(X, out=np.empty_like(X))
    np.exp(out, out=out)
    out += 1.0
    return np.divide(1.0, out, out=out)


def sigmoid_backward(Y, delta):
    return delta * Y * (1.0 - Y)


def softmax_forward(X):
    e = np.exp(X - X.max(axis=1, keepdims=True))
    return e / e.sum(axis=1, keepdims=True)


def softmax_backward(Y, delta):
    return Y * (delta - np.sum(delta * Y, axis=1, keepdims=True))


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


def batchnorm_backward(delta, xhat, gamma, var, eps, dgamma=None, dbeta=None):
    """The input gradient; the gamma and beta gradients go into ``dgamma``/``dbeta`` if given."""
    n = delta.shape[0]
    dgamma = np.add.reduce(delta * xhat, axis=0, out=dgamma)
    dbeta = np.add.reduce(delta, axis=0, out=dbeta)
    inv_std = 1.0 / np.sqrt(var + eps)
    return (gamma * inv_std) * (delta - dbeta / n - xhat * (dgamma / n))


# --- Adam parameter update --------------------------------------------------


def adam_update(param, grad, m, v, work, work2, c1, c2, lr, beta1, beta2, eps):
    """In-place update of flat param/m/v; c1/c2 are the step's bias
    corrections (1 - beta**t).  ``work`` and ``work2`` are scratch vectors of
    the same size, so the update allocates nothing."""
    m *= beta1
    m += np.multiply(1.0 - beta1, grad, out=work)
    v *= beta2
    v += np.multiply(np.multiply(1.0 - beta2, grad, out=work), grad, out=work)
    np.multiply(lr, np.divide(m, c1, out=work), out=work)
    np.add(np.sqrt(np.divide(v, c2, out=work2), out=work2), eps, out=work2)
    param -= np.divide(work, work2, out=work)


# --- decision-tree split scan -----------------------------------------------
#
# Input columns arrive pre-sorted; candidate thresholds are midpoints between
# consecutive distinct values.  Maximizing the Gini gain is equivalent to
# maximizing  S = (pl^2 + ql^2)/nl + (pr^2 + qr^2)/nr  (p/q are class counts
# per side), so candidates are ranked by the single correctly-rounded float
# division  ((pl^2+ql^2)*nr + (pr^2+qr^2)*nl) / (nl*nr).  Mathematically equal
# candidates then produce bit-identical scores, which makes the documented tie
# rule (lowest threshold within a feature, and the caller's ascending feature
# scan with a strict > test) exact.  At a node of n rows the integer numerator is
# at most n^3/4: exact in float64 below about 330,000 rows, in int64 below 3.3M.


def split_scan(values, labels):
    n = values.shape[0]
    total_pos = int(labels.sum())
    boundaries = np.nonzero(values[:-1] != values[1:])[0]
    if boundaries.size == 0:
        return -1.0, 0.0, False
    nl = boundaries + 1
    nr = n - nl
    pl = np.cumsum(labels)[boundaries]
    ql = nl - pl
    pr = total_pos - pl
    qr = nr - pr
    num = (pl * pl + ql * ql) * nr + (pr * pr + qr * qr) * nl
    score = num / (nl * nr)
    k = int(np.argmax(score))
    i = int(boundaries[k])
    return float(score[k]), float((values[i] + values[i + 1]) / 2.0), True
