"""Maximum-likelihood linear unmixing under a logistic source prior.

The unmixing matrix is kept lower triangular: a batch fit adds the rows
one after another, and appending a column adds only the new last row while
the existing rows stay bit-identical. log|det W| is therefore always the sum
of log|diagonal| terms, which is what the joint entropy estimate
sum_j H(s_j) - log|det W| relies on.

Every row is a closed form of its columns: a model draws on no random
stream, and permuting the samples changes it only by rounding.
"""

import math
from dataclasses import dataclass, field

import numpy as np

DIAG_MIN = 1e-8
SCALE_MAX_STEPS = 100


class IcaError(RuntimeError):
    pass


@dataclass
class IcaModel:
    """Triangular unmixing state for one ordered column stack.

    W is (d, d) lower triangular; S holds the d signal vectors W @ X;
    columns keeps the raw standardized inputs so later appends can extend
    the stack. fit_meta records per row whether it is degenerate.
    """

    feature_ids: tuple
    W: np.ndarray
    S: list
    signal_entropies: list
    columns: list
    fit_meta: dict = field(default_factory=dict)

    @property
    def dim(self):
        return len(self.feature_ids)

    @property
    def n_samples(self):
        return self.columns[0].shape[0] if self.columns else 0

    def log_abs_det(self):
        if self.dim == 0:
            return 0.0
        return float(np.log(np.abs(np.diag(self.W))).sum())


def empty_model():
    return IcaModel(feature_ids=(), W=np.zeros((0, 0)), S=[],
                    signal_entropies=[], columns=[],
                    fit_meta={"rows": []})


def _check_standardized(col):
    if abs(float(col.mean())) > 1e-6 or abs(float(col.std()) - 1.0) > 1e-3:
        raise IcaError("input column is not standardized (mean %.3g, std %.3g)"
                       % (col.mean(), col.std()))


def signal_entropy(s, bins):
    """Plug-in code entropy of an equal-width histogram of the signal.

    A signal with range below 1e-12 counts as constant and has entropy 0.
    """
    lo = float(s.min())
    hi = float(s.max())
    if hi - lo < 1e-12:
        return 0.0
    counts, _ = np.histogram(s, bins=bins, range=(lo, hi))
    counts = counts[counts > 0]
    n = counts.sum()
    return float(np.log(n) - (counts * np.log(counts)).sum() / n)


def append_feature(model, new_col, bins, feature_id=None):
    """Extend the model by one column, adding only the new last row.

    The row is the unit-variance least-squares residual direction of
    the new column on the stacked predecessors, which makes the new
    signal exactly uncorrelated with every existing signal and keeps
    the diagonal at 1/sd(residual), so the log determinant accumulates
    the residual spreads and the joint entropy estimate stays on the
    same scale as the data. The new signal's entropy is the plug-in
    entropy of its histogram over `bins` equal-width bins; its logistic
    scale is not needed here and is solved on demand by logistic_scale.
    A column that is an exact linear combination of the stack is flagged
    degenerate: the row becomes the (negated) projection with the
    diagonal clamped to DIAG_MIN, giving a near-constant signal instead
    of a runaway row.
    """
    new_col = np.asarray(new_col, dtype=np.float64)
    if model.dim and new_col.shape[0] != model.n_samples:
        raise IcaError("column length mismatch")
    _check_standardized(new_col)
    if feature_id is None:
        feature_id = model.dim
    d = model.dim + 1
    stack = model.columns + [new_col]
    X = np.column_stack(stack) if d > 1 else new_col.reshape(-1, 1)

    degenerate = False
    row = np.ones(1)
    if d > 1:
        prev = X[:, :-1]
        beta, _, _, _ = np.linalg.lstsq(prev, new_col, rcond=None)
        resid_var = float((new_col - prev @ beta).var())
        row = np.concatenate([-beta, [1.0]])
        degenerate = resid_var < 1e-9
        if degenerate:
            row = row * DIAG_MIN
        else:
            row = row / math.sqrt(resid_var)

    W = np.zeros((d, d))
    if model.dim:
        W[:-1, :-1] = model.W
    W[-1, :] = row
    s = X @ row
    entropies = model.signal_entropies + [signal_entropy(s, bins)]
    meta = {"rows": model.fit_meta.get("rows", [])
            + [{"degenerate": degenerate}]}
    return IcaModel(feature_ids=model.feature_ids + (int(feature_id),),
                    W=W, S=model.S + [s], signal_entropies=entropies,
                    columns=stack, fit_meta=meta)


def logistic_scale(signal):
    """Maximum-likelihood scale of a signal under the logistic prior.

    Maximizes f(w) = mean(log g'(w r)) + log w over w > 0, with g the
    logistic cdf and r the signal, by full-batch Newton steps from w = 1
    on the gradient 1/w - mean(r tanh(w r / 2)) and the curvature
    -1/w^2 - mean(r^2 sech^2(w r / 2)) / 2. f is strictly concave for
    w > 0, so the maximum is unique; a step that would reach w <= 0
    halves w instead. Stops when w changes by at most 1e-12 of itself.
    Raises IcaError for a signal with zero (or non-finite) variance,
    which has no finite scale, and for a solve still moving after
    SCALE_MAX_STEPS steps.
    """
    r = np.asarray(signal, dtype=np.float64)
    if not float(r.var()) > 1e-12:
        raise IcaError("signal has zero variance: no logistic scale")
    w = 1.0
    for _ in range(SCALE_MAX_STEPS):
        t = np.tanh(0.5 * w * r)
        grad = 1.0 / w - float(np.mean(r * t))
        curv = -1.0 / (w * w) - 0.5 * float(np.mean(r * r * (1.0 - t * t)))
        w_new = w - grad / curv
        if not w_new > 0.0:
            w_new = 0.5 * w
        if abs(w_new - w) <= 1e-12 * w:
            return w_new
        w = w_new
    raise IcaError("logistic scale did not converge in %d Newton steps"
                   % SCALE_MAX_STEPS)


def fit_batch(matrix, bins, feature_ids=None):
    """Fit a full triangular model by appending the columns in order.

    matrix is a (N, d) array or a list of d columns, already standardized.
    Requires N > d so every row has something to learn from.
    """
    if isinstance(matrix, np.ndarray) and matrix.ndim == 2:
        cols = [np.ascontiguousarray(matrix[:, j]) for j in range(matrix.shape[1])]
    else:
        cols = [np.asarray(c, dtype=np.float64) for c in matrix]
    if not cols:
        raise IcaError("need at least one column")
    if cols[0].shape[0] <= len(cols):
        raise IcaError("need more samples than columns")
    if feature_ids is None:
        feature_ids = list(range(len(cols)))
    model = empty_model()
    for fid, col in zip(feature_ids, cols):
        model = append_feature(model, col, bins, feature_id=fid)
    return model


def signal_entropy_sum(model):
    return float(sum(model.signal_entropies))


def joint_entropy_estimate(model):
    """sum_j H(s_j) - log|det W|, the signal-space joint entropy estimate."""
    if model.dim == 0:
        raise IcaError("model is not fitted")
    diag = np.diag(model.W)
    if np.any(diag == 0.0):
        raise IcaError("zero diagonal entry")
    return signal_entropy_sum(model) - model.log_abs_det()


def avg_pearson(model):
    """Mean absolute pairwise Pearson correlation between signal vectors.

    Models with fewer than two signals report 0 (nothing to correlate).
    """
    d = model.dim
    if d < 2:
        return 0.0
    sig = np.vstack(model.S)
    sd = sig.std(axis=1)
    keep = sd > 1e-12
    total = 0.0
    count = 0
    for i in range(d):
        for j in range(i + 1, d):
            if keep[i] and keep[j]:
                ci = sig[i] - sig[i].mean()
                cj = sig[j] - sig[j].mean()
                r = float((ci * cj).mean() / (sd[i] * sd[j]))
            else:
                r = 0.0
            total += abs(r)
            count += 1
    return total / count


def infomax_loglik(W, X):
    """Mean log-likelihood of unrestricted unmixing W on samples X (N, d)."""
    S = X @ W.T
    a = np.abs(S)
    per_sample = -(a + 2.0 * np.log1p(np.exp(-a))).sum(axis=1)
    sign, logdet = np.linalg.slogdet(W)
    if sign == 0:
        return -np.inf
    return float(per_sample.mean() + logdet)


def infomax_grad(W, X):
    """Analytic gradient of infomax_loglik in W: (1/N)(1-2g(S))^T X + W^-T."""
    n = X.shape[0]
    S = X @ W.T
    T = -np.tanh(0.5 * S)
    return T.T @ X / n + np.linalg.inv(W).T
