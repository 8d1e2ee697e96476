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
    # Newton iterations of the fit: the most that any of its rows took
    n_steps: int


PROBE_L2 = 1e-3
PROBE_MAX_STEPS = 50
PROBE_STEP_TOL = 1e-10
# cap on the pairwise products of the design that the probe keeps per fit
_PAIRS_MAX_BYTES = 1 << 26


def _softplus_means(U, E, T):
    """mean(log(1 + exp(u))) along the last axis, stable for any finite
    u; leaves exp(-|u|) in E. T is scratch of U's shape."""
    np.abs(U, out=E)
    np.negative(E, out=E)
    np.exp(E, out=E)
    total = np.maximum(U, 0.0, out=T).sum(axis=-1)
    total += np.log1p(E, out=T).sum(axis=-1)
    return total / U.shape[-1]


def _newton_rows(A, sign, penalty, theta=None):
    """Newton (IRLS) minimizers of mean(softplus(sign_k * theta_k A)) +
    theta_k' diag(penalty) theta_k / 2, one per row k of sign, from 0 or
    from the rows of theta (K, d+1): in cross_validate's later folds,
    from fold 0's model.

    A is (d+1, N); sign is (K, N), -1 where a sample is in row k's class
    and +1 elsewhere, so softplus(sign_k * theta_k A) is row k's logistic
    loss. The rows share no parameter; they are solved together so that
    each iteration is a few calls over a (K, N) stack instead of K loops
    of calls. Every row's Hessian A diag(w_k) A' / N + diag(penalty) is a
    weighted sum of the same pairwise products A_i A_j, formed once, so
    one product w @ pairs' gives all K of them. Those products take
    (d+2)/2 times the memory of A; above _PAIRS_MAX_BYTES each row's
    Hessian is formed from A alone instead.

    Each row's step solves Hessian step = gradient. A row with max |step|
    < PROBE_STEP_TOL returns theta - step and leaves the working set.
    Otherwise the step is halved, for that row alone, while its loss
    rises by more than its rounding, and an accepted trial's margins are
    that row's next ones. Raises FloatingPointError for a non-finite step
    or loss, a stalled line search, or a row still moving after
    PROBE_MAX_STEPS iterations. Returns theta, (K, d+1), and the number
    of iterations the slowest row took; sign's rows are reordered in
    place.
    """
    d1, n = A.shape
    K = len(sign)
    iu, ju = np.triu_indices(d1)
    if len(iu) * n * 8 <= _PAIRS_MAX_BYTES:
        # pairs[sym[i, j]] is A_i A_j, each product formed once
        sym = np.empty((d1, d1), dtype=np.intp)
        sym[iu, ju] = sym[ju, iu] = np.arange(len(iu))
        pairs = np.empty((len(iu), n))
        at = 0
        for i in range(d1):
            np.multiply(A[i:], A[i], out=pairs[at:at + d1 - i])
            at += d1 - i
    else:
        pairs, weighted = None, np.empty_like(A)
    ridge = np.diag(penalty)
    out = np.empty((K, d1))
    rows = np.arange(K)
    if theta is None:
        theta = np.zeros((K, d1))
    # (K, N) buffers live across iterations: at N = 100k a fresh array
    # per pass costs more than the pass itself. The working rows are the
    # first len(rows) of each buffer and of sign.
    U, U_new = np.empty((K, n)), np.empty((K, n))
    E, E_new = np.empty((K, n)), np.empty((K, n))
    Q, T = np.empty((K, n)), np.empty((K, n))
    np.dot(theta, A, out=U)
    U *= sign
    # the penalty is part of the loss the first trial must not exceed;
    # from 0 it is exactly 0
    loss = _softplus_means(U, E, T) + 0.5 * ((theta * theta) @ penalty)
    for steps in range(1, PROBE_MAX_STEPS + 1):
        k = len(rows)
        u, e, q, t = U[:k], E[:k], Q[:k], T[:k]
        # q = sigmoid(u) is s = 1 / (1 + e) for u >= 0 and 1 - s below;
        # q (1 - q) = e s^2 weights the Hessian, and the gradient is
        # (sign q) A' / N + penalty theta
        np.add(e, 1.0, out=q)
        np.reciprocal(q, out=q)
        np.multiply(e, q, out=t)
        t *= q
        if pairs is not None:
            hess = np.dot(t, pairs.T)[:, sym]
        else:
            hess = np.empty((k, d1, d1))
            for r in range(k):
                np.multiply(A, t[r], out=weighted)
                np.dot(weighted, A.T, out=hess[r])
        hess /= n
        hess += ridge
        q -= 0.5
        np.copysign(q, u, out=q)
        q += 0.5
        q *= sign[:k]
        grad = np.dot(q, A.T) / n + penalty * theta
        step = np.linalg.solve(hess, grad[:, :, None])[:, :, 0]
        if not np.isfinite(step).all():
            raise FloatingPointError("probe Newton step is non-finite")
        done = np.abs(step).max(axis=1) < PROBE_STEP_TOL
        if done.any():
            out[rows[done]] = theta[done] - step[done]
            keep = np.flatnonzero(~done)
            if not len(keep):
                return out, steps
            rows, theta, step, loss = (rows[keep], theta[keep], step[keep],
                                       loss[keep])
            # kept rows move to the front in place; a row only moves
            # forward, so none is overwritten before it is read
            for i, r in enumerate(keep):
                if i != r:
                    U[i], E[i], sign[i] = U[r], E[r], sign[r]
            k = len(rows)
        trial = theta - step
        u_new, e_new, t = U_new[:k], E_new[:k], T[:k]
        np.dot(trial, A, out=u_new)
        u_new *= sign[:k]
        loss_new = (_softplus_means(u_new, e_new, t)
                    + 0.5 * ((trial * trial) @ penalty))
        if not np.isfinite(loss_new).all():
            raise FloatingPointError("probe loss is non-finite")
        for r in np.flatnonzero(loss_new > loss + 1e-14 * loss):
            while loss_new[r] > loss[r] + 1e-14 * loss[r]:
                step[r] *= 0.5
                if np.abs(step[r]).max() < PROBE_STEP_TOL:
                    raise FloatingPointError("probe line search stalled "
                                             "at loss %r" % (loss[r],))
                trial[r] = theta[r] - step[r]
                np.dot(trial[r], A, out=u_new[r])
                u_new[r] *= sign[r]
                loss_new[r] = (_softplus_means(u_new[r], e_new[r], t[r])
                               + 0.5 * float(penalty @ (trial[r] ** 2)))
                if not np.isfinite(loss_new[r]):
                    raise FloatingPointError("probe loss is non-finite")
        theta, loss = trial, loss_new
        U, U_new = U_new, U
        E, E_new = E_new, E
    raise FloatingPointError("probe did not converge in %d Newton steps"
                             % PROBE_MAX_STEPS)


def _design(columns, n):
    """The probe's augmented, transposed design (d+1, n): row i is
    column i, and the last row is ones. Raises EvalError for a
    non-finite value."""
    A = np.empty((len(columns) + 1, n))
    for i, col in enumerate(columns):
        A[i] = col
        if not np.isfinite(A[i]).all():
            raise EvalError("feature matrix holds NaN or inf")
    A[-1] = 1.0
    return A


def _standardize(A):
    """Standardize the feature rows of a design from _design in place,
    (x - mean) / std, and return (mean, std). A row whose std is at most
    1e-12 of its |mean|, constant up to rounding at its own scale, is
    centred but not scaled (std 1). (For such a row |mean| is its
    largest |value| to within that rounding.)"""
    Z = A[:-1]
    mean = Z.mean(axis=1)
    std = Z.std(axis=1)
    std[std <= 1e-12 * np.abs(mean)] = 1.0
    Z -= mean[:, None]
    Z /= std[:, None]
    return mean, std


def _train_ovr(A, y, n_classes, start=None):
    """One-vs-rest rows of the probe, solved together by _newton_rows
    from the matching rows of start (n_classes, d+1), or from 0; a row
    whose start is not finite, such as a class absent where the start
    was fitted, starts from 0.

    A is the augmented, transposed design (d+1, N) with ones in the last
    row, so the bias is the last column of theta and the only one free
    of the PROBE_L2 penalty. Returns (theta (n_classes, d+1), Newton
    iterations).

    With two classes only class 1's row is solved; class 0's is its
    exact negation, which is that row's own optimum. The branch keys on
    n_classes, not on the classes present in y. A class absent from y
    has no finite optimum (its loss falls toward 0 as its bias goes to
    -inf), so its row is zero weights and bias -inf: predict never
    returns it. Raises EvalError for labels outside [0, n_classes) or a
    single present class.
    """
    # the label range suffices; np.unique would hash every label
    lo, hi = (int(y.min()), int(y.max())) if len(y) else (0, 0)
    if lo == hi:
        raise EvalError("training split contains a single class")
    if lo < 0 or hi >= n_classes:
        raise EvalError("labels outside [0, %d)" % (n_classes,))
    penalty = np.full(A.shape[0], PROBE_L2)
    penalty[-1] = 0.0
    binary = n_classes == 2
    present = np.bincount(y, minlength=n_classes) > 0
    solved = np.array([1]) if binary else np.flatnonzero(present)
    if start is not None:
        start = start[solved]
        start[~np.isfinite(start).all(axis=1)] = 0.0
    rows, steps = _newton_rows(
        A, np.where(y == solved[:, None], -1.0, 1.0), penalty, start)
    theta = np.zeros((n_classes, A.shape[0]))
    theta[~present, -1] = -np.inf
    theta[solved] = rows
    if binary:
        theta[0] = -theta[1]
    return theta, steps


def train_linear(X, y, n_classes):
    """One-vs-rest L2 logistic probe, each row solved to its optimum.

    The solve is Newton's method from zero with a fixed stopping rule,
    so the model is a function of the data alone. Features are
    standardized on the training statistics (see _standardize: a
    column constant up to rounding passes through unscaled), and
    PROBE_L2 weighs every standardized weight alike. A two-class probe solves
    one row and returns it with its exact negation, so the argmax of
    predict still gives class 0 where the score is zero; an absent
    class gets bias -inf (see _train_ovr). Raises EvalError for
    non-finite features, labels outside [0, n_classes) or a single
    present class."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise EvalError("feature matrix and labels disagree in shape")
    n, d = X.shape
    n_classes = int(n_classes)
    A = _design(X.T, n)
    mean, std = _standardize(A)
    theta, steps = _train_ovr(A, y, n_classes)
    return LinearModel(weights=theta[:, :d], bias=theta[:, d], mean=mean,
                       std=std, n_classes=n_classes, n_steps=steps)


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
    each class has at least two members. Labels are non-negative class
    codes; the classes are visited in ascending order."""
    y = np.asarray(y, dtype=np.int64)
    n = len(y)
    if n_folds < 2 or n_folds > n:
        raise EvalError("fold count %d out of range" % (n_folds,))
    rng = np.random.default_rng(np.random.SeedSequence((seed, 104729)))
    assign = np.empty(n, dtype=np.int64)
    # the classes present, ascending, without sorting every label
    for cls in np.flatnonzero(np.bincount(y)):
        idx = np.flatnonzero(y == cls)
        if len(idx) < 2:
            raise EvalError("class %d has fewer than 2 samples; "
                            "stratification impossible" % (cls,))
        idx = idx[rng.permutation(len(idx))]
        assign[idx] = np.arange(len(idx)) % n_folds
    folds = [np.flatnonzero(assign == f) for f in range(n_folds)]
    return [f for f in folds if len(f)]


def cross_validate(data, features, n_folds=10, seed=0):
    """Mean held-out error (percent) of the linear probe on a feature
    set: the ids are sorted, so their order does not matter, and an id
    outside [0, n_features) or a repeated id raises EvalError.

    Stratified n_folds splits, or leave-one-out below 100 samples. The
    design (_design) is built once per call; each fold gathers its
    training rows, standardizes them in place as train_linear does
    (_standardize) and solves them, so its model is train_linear's on
    those rows. Fold 0's probe is solved from zero and starts every
    later fold as it is, which reaches the same optimum in fewer Newton
    iterations."""
    features = sorted(features)
    if not features:
        raise EvalError("no features given")
    m = len(data.columns)
    if features[0] < 0 or features[-1] >= m:
        raise EvalError("feature ids must lie in [0, %d)" % (m,))
    if len(set(features)) < len(features):
        raise EvalError("feature ids must be distinct")
    y = data.labels
    n = len(y)
    counts = np.bincount(y)
    if (counts[counts > 0] < 2).any():
        raise EvalError("every class needs at least 2 samples")
    A = _design([data.columns[f] for f in features], n)
    if n < 100:
        folds = [np.array([i]) for i in range(n)]
    else:
        folds = stratified_folds(y, n_folds, seed=seed)
    errors = []
    first = None
    for test_idx in folds:
        train = np.ones(n, dtype=bool)
        train[test_idx] = False
        # compress gathers contiguous rows; A[:, train] would be strided
        Z = np.compress(train, A, axis=1)
        mean, std = _standardize(Z)
        theta, _ = _train_ovr(Z, y[train], data.n_classes, first)
        if first is None:
            first = theta
        T = np.take(A[:-1], test_idx, axis=1)
        T -= mean[:, None]
        T /= std[:, None]
        # the bias is added apart: an absent class's -inf bias inside a
        # matrix product raises numpy's invalid-value warning
        pred = np.argmax(theta[:, :-1] @ T + theta[:, -1:], axis=0)
        errors.append(float(np.mean(pred != y[test_idx])) * 100.0)
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
