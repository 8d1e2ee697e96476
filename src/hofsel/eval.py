"""Evaluation harness: linear probes, cross-validation, error metrics,
and whole-set information accounting."""

from dataclasses import dataclass

import numpy as np

from .infotheory import EstimatorError, mutual_information


class EvalError(ValueError):
    pass


@dataclass
class LinearModel:
    weights: np.ndarray
    bias: np.ndarray
    mean: np.ndarray
    std: np.ndarray
    n_classes: int


PROBE_L2 = 1e-3
PROBE_MAX_STEPS = 50
PROBE_STEP_TOL = 1e-10


def _softplus_mean(u, e, tmp):
    """mean(log(1 + exp(u))), stable for any finite u; leaves
    exp(-|u|) in e."""
    np.abs(u, out=e)
    np.negative(e, out=e)
    np.exp(e, out=e)
    total = np.maximum(u, 0.0, out=tmp).sum()
    total += np.log1p(e, out=tmp).sum()
    return float(total) / len(u)


def _newton_row(B, penalty):
    """Newton (IRLS) minimizer of mean(softplus(theta B)) + theta'
    diag(penalty) theta / 2, from theta = 0.

    Column i of B is sample i's augmented features, negated when the
    sample is in the row's class, so softplus(theta B) is its logistic
    loss. Each step solves Hessian step = gradient; it is halved while
    the loss rises by more than its rounding, and an accepted trial's
    margins are the next iteration's. Returns once max |step| <
    PROBE_STEP_TOL, that step taken. Raises FloatingPointError for a
    non-finite step or loss, a stalled line search, or PROBE_MAX_STEPS
    iterations without convergence.
    """
    d1, n = B.shape
    ridge = np.diag(penalty)
    theta = np.zeros(d1)
    # N-length buffers live across iterations: at N = 100k a fresh array
    # per pass costs more than the pass itself
    u, u_new = np.zeros(n), np.empty(n)
    e, e_new = np.empty(n), np.empty(n)
    s, q, tmp = np.empty(n), np.empty(n), np.empty(n)
    weighted = np.empty_like(B)
    loss = _softplus_mean(u, e, tmp)
    for _ in range(PROBE_MAX_STEPS):
        # q = sigmoid(u) is s = 1 / (1 + e) for u >= 0 and 1 - s below;
        # the gradient is B q / N + penalty theta, and q (1 - q) = e s^2
        # weights the Hessian B diag(q (1 - q)) B' / N + diag(penalty)
        np.add(e, 1.0, out=s)
        np.reciprocal(s, out=s)
        np.subtract(s, 0.5, out=q)
        np.copysign(q, u, out=q)
        q += 0.5
        grad = np.dot(B, q) / n + penalty * theta
        np.multiply(e, s, out=tmp)
        tmp *= s
        np.multiply(B, tmp, out=weighted)
        hess = np.dot(weighted, B.T) / n + ridge
        step = np.linalg.solve(hess, grad)
        if not np.isfinite(step).all():
            raise FloatingPointError("probe Newton step is non-finite")
        if np.abs(step).max() < PROBE_STEP_TOL:
            return theta - step
        while True:
            trial = theta - step
            np.dot(trial, B, out=u_new)
            loss_new = (_softplus_mean(u_new, e_new, tmp)
                        + 0.5 * float(penalty @ (trial * trial)))
            if not np.isfinite(loss_new):
                raise FloatingPointError("probe loss is non-finite")
            if loss_new <= loss + 1e-14 * loss:
                break
            step *= 0.5
            if np.abs(step).max() < PROBE_STEP_TOL:
                raise FloatingPointError("probe line search stalled at "
                                         "loss %r" % (loss,))
        theta, loss = trial, loss_new
        u, u_new = u_new, u
        e, e_new = e_new, e
    raise FloatingPointError("probe did not converge in %d Newton steps"
                             % PROBE_MAX_STEPS)


def _train_ovr(A, y, n_classes):
    """One-vs-rest rows of the probe, each solved apart by _newton_row.

    A is the augmented, transposed design (d+1, N) with ones in the last
    row, so the bias is the last weight column and the only one free of
    the PROBE_L2 penalty. Returns (weights (C, d), bias (C,)).

    With two classes only class 1's row is solved; class 0's is its
    exact negation, which is that row's own optimum. The branch keys on
    n_classes, not on the classes present in y. A class absent from y
    has no finite optimum (its loss falls toward 0 as its bias goes to
    -inf), so its row is zero weights and bias -inf: predict never
    returns it.
    """
    d1 = A.shape[0]
    penalty = np.full(d1, PROBE_L2)
    penalty[-1] = 0.0
    binary = n_classes == 2
    theta = np.zeros((n_classes, d1))
    B = np.empty_like(A)
    for k in ([1] if binary else range(n_classes)):
        in_class = y == k
        if not in_class.any():
            theta[k, -1] = -np.inf
            continue
        np.multiply(A, np.where(in_class, -1.0, 1.0), out=B)
        theta[k] = _newton_row(B, penalty)
    if binary:
        theta[0] = -theta[1]
    return theta[:, :-1], theta[:, -1]


def train_linear(X, y, n_classes):
    """One-vs-rest L2 logistic probe, each row solved to its optimum.

    The solve is Newton's method from zero with a fixed stopping rule,
    so the model is a function of the data alone. Features are
    standardized on the training statistics; zero-variance columns pass
    through unscaled. A two-class probe solves one row and returns it
    with its exact negation, so the argmax of predict still gives class
    0 where the score is zero; an absent class gets bias -inf (see
    _train_ovr). Raises EvalError for non-finite features, labels outside
    [0, n_classes) or a single present class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise EvalError("feature matrix and labels disagree in shape")
    if not np.isfinite(X).all():
        raise EvalError("feature matrix holds NaN or inf")
    n, d = X.shape
    n_classes = int(n_classes)
    present = np.unique(y)
    if len(present) < 2:
        raise EvalError("training split contains a single class")
    if present[0] < 0 or present[-1] >= n_classes:
        raise EvalError("labels outside [0, %d)" % (n_classes,))
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std <= 1e-12, 1.0, std)
    A = np.empty((d + 1, n))
    A[:d] = ((X - mean) / std).T
    A[d] = 1.0
    W, b = _train_ovr(A, y, n_classes)
    return LinearModel(weights=W, bias=b, mean=mean, std=std,
                       n_classes=n_classes)


def predict(model, X):
    """Class with the highest one-vs-rest score, the lowest on ties.
    Raises EvalError for non-finite features, whose scores could select
    any row, an absent class's included."""
    X = np.asarray(X, dtype=np.float64)
    if not np.isfinite(X).all():
        raise EvalError("feature matrix holds NaN or inf")
    Z = (X - model.mean) / model.std
    scores = Z @ model.weights.T + model.bias
    return np.argmax(scores, axis=1).astype(np.int64)


def error_rate(model, X, y):
    pred = predict(model, X)
    return float(np.mean(pred != np.asarray(y))) * 100.0


def stratified_folds(y, n_folds, seed=0):
    """Per-class shuffled round-robin fold assignment.

    Guarantees every training split contains every class as long as
    each class has at least two members."""
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n_folds < 2 or n_folds > n:
        raise EvalError("fold count %d out of range" % (n_folds,))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 104729)))
    assign = np.empty(n, dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        if len(idx) < 2:
            raise EvalError("class %d has fewer than 2 samples; "
                            "stratification impossible" % (cls,))
        idx = idx[rng.permutation(len(idx))]
        assign[idx] = np.arange(len(idx)) % n_folds
    folds = [np.flatnonzero(assign == f) for f in range(n_folds)]
    return [f for f in folds if len(f)]


def cross_validate(data, features, n_folds=10, seed=0):
    """Mean held-out error (percent) of the linear probe.

    Stratified n_folds splits, or leave-one-out when the dataset has
    fewer than 100 samples."""
    features = list(features)
    if not features:
        raise EvalError("no features given")
    X = np.column_stack([np.asarray(data.columns[f], dtype=np.float64)
                         for f in features])
    y = data.labels
    n = len(y)
    counts = np.bincount(y)
    if (counts[counts > 0] < 2).any():
        raise EvalError("every class needs at least 2 samples")
    if n < 100:
        folds = [np.array([i]) for i in range(n)]
    else:
        folds = stratified_folds(y, n_folds, seed=seed)
    errors = []
    for test_idx in folds:
        mask = np.ones(n, dtype=bool)
        mask[test_idx] = False
        model = train_linear(X[mask], y[mask], data.n_classes)
        errors.append(error_rate(model, X[test_idx], y[test_idx]))
    return float(np.mean(errors))


PLUGIN_MAX_FEATURES = 16


def global_mi(view, features, labels):
    """Mutual information between a whole feature set and the label.

    Joins the discretized codes into one variable, capped at
    PLUGIN_MAX_FEATURES columns to keep the joint support honest."""
    features = list(features)
    if not features:
        raise EvalError("no features given")
    if len(features) > PLUGIN_MAX_FEATURES:
        raise EstimatorError(
            "plugin estimate refused for %d features (cap %d)" %
            (len(features), PLUGIN_MAX_FEATURES))
    cols = [view.codes[f] for f in features]
    return mutual_information(cols, labels)


def information_gain_curve(trace):
    """Per-step increments of the running subset-total estimate.

    The first entry is the first feature's own estimate; the entries
    telescope back to the final total exactly."""
    totals = [step.total_mi for step in trace.steps]
    if not totals:
        return []
    curve = [totals[0]]
    for prev, cur in zip(totals, totals[1:]):
        curve.append(cur - prev)
    return curve


def default_k_values(n_features):
    ks = [k for k in range(10, min(100, n_features) + 1, 10)]
    if not ks:
        ks = [n_features]
    return ks
