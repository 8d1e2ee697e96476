"""Row-fit kernel: minibatch gradient ascent on one unmixing row.

The expensive inner loop of the unmixing model is fitting one row of a
triangular unmixing matrix. Every epoch walks one fixed permutation of the
samples, rotated by a per-epoch offset, so a fit is deterministic.
"""

import numpy as np


def fit_row(Xp, w0, lr0, batch, max_epochs, tol):
    """Train the last unmixing row on permuted samples Xp (N, k).

    The objective per epoch is the restricted row log-likelihood
    mean(log g'(Xp @ w)) + log|w[k-1]| with g the logistic cdf.
    Returns (w, loglik, epochs_run, status) with status 0 = converged,
    1 = epoch budget exhausted, 2 = numeric failure.
    """
    n, k = Xp.shape
    w = w0.copy()
    s = np.dot(Xp, w)
    a = np.abs(s)
    ll_prev = -(a + 2.0 * np.log1p(np.exp(-a))).mean() + np.log(np.abs(w[k - 1]))
    epochs = 0
    status = 1
    for epoch in range(max_epochs):
        lr = lr0 / np.sqrt(1.0 + epoch)
        off = (epoch * 7919) % n
        pos = 0
        failed = False
        while pos < n:
            nb = min(batch, n - pos)
            start = (off + pos) % n
            take = nb
            gacc = np.zeros(k)
            left = start
            while take > 0:
                m = min(take, n - left)
                piece = Xp[left:left + m]
                sb = np.dot(piece, w)
                tb = np.tanh(0.5 * sb)
                gacc += np.dot(tb, piece)
                left = (left + m) % n
                take -= m
            wd = w[k - 1]
            if np.abs(wd) < 1e-12:
                failed = True
                break
            grad = -(gacc / nb)
            grad[k - 1] += 1.0 / wd
            w = w + lr * grad
            pos += nb
        epochs = epoch + 1
        if failed:
            status = 2
            break
        s = np.dot(Xp, w)
        a = np.abs(s)
        ll = -(a + 2.0 * np.log1p(np.exp(-a))).mean() + np.log(np.abs(w[k - 1]))
        if not np.isfinite(ll):
            status = 2
            break
        if np.abs(ll - ll_prev) <= tol * (1.0 + np.abs(ll_prev)):
            ll_prev = ll
            status = 0
            break
        ll_prev = ll
    return w, ll_prev, epochs, status
