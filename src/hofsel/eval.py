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


def _train_ovr(A, y, n_classes, l2, epochs, lr):
    """Full-batch one-vs-rest logistic descent from zero init.

    A is the augmented, transposed design (d+1, N): the standardized
    features in the first d rows and ones in the last, so the bias is
    the last weight column; keep applies the L2 shrink to the weight
    columns only. y holds the class codes.
    Returns (weights (C, d), bias (C,)).

    The recipe per epoch is P = sigmoid(Z W' + b), G = (P - T) / N,
    W -= lr (G'Z + l2 W), b -= lr sum(G). With the tanh form of the
    sigmoid, P - T = (0.5 - T) + 0.5 tanh(s / 2); the first part does not
    change between epochs, so its gradient is computed once. The loop
    carries H = [W, b] / 2, so that H A is tanh's argument as it stands;
    halving and doubling are exact in binary floating point.

    With two classes only class 1's row is descended, and class 0's is
    returned as its exact negation. This is exact because the targets
    give 0.5 - T0 = -(0.5 - T1), both rows start at zero and tanh is odd,
    so every update of row 0 negates row 1's. Against a two-row descent
    the weights differ only by the BLAS summation order (under 1e-14 on
    100k samples). The branch keys on n_classes, not on the classes
    present in y.
    """
    d1, n = A.shape
    Z1 = A.T
    binary = n_classes == 2
    rows = 1 if binary else n_classes
    half_minus_t = np.full((rows, n), 0.5)
    if binary:
        half_minus_t[0, y == 1] = -0.5
    else:
        half_minus_t[y, np.arange(n)] = -0.5
    fixed_step = np.dot(half_minus_t, Z1)
    fixed_step *= 0.5 * lr / n
    tanh_scale = 0.25 * lr / n
    keep = np.full(d1, 1.0 - lr * l2)
    keep[-1] = 1.0
    H = np.zeros((rows, d1))
    S = np.empty((rows, n))
    for _ in range(epochs):
        np.dot(H, A, out=S)
        np.tanh(S, out=S)
        step = np.dot(S, Z1)
        step *= tanh_scale
        step += fixed_step
        H *= keep
        H -= step
    if binary:
        H = np.vstack([-H, H])
    return 2.0 * H[:, :-1], 2.0 * H[:, -1]


def train_linear(X, y, n_classes, l2=1e-3, epochs=500, lr=0.1):
    """One-vs-rest logistic probe, full-batch gradient descent.

    Deterministic: zero init, fixed epoch count, no shuffling. Features
    are standardized on the training statistics; zero-variance columns
    pass through unscaled. A two-class probe trains one row and returns
    it with its exact negation (see _train_ovr), so the argmax of
    predict still gives class 0 where the score is zero."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or len(X) != len(y):
        raise EvalError("feature matrix and labels disagree in shape")
    n, d = X.shape
    present = np.unique(y)
    if len(present) < 2:
        raise EvalError("training split contains a single class")
    mean = X.mean(axis=0)
    std = X.std(axis=0)
    std = np.where(std <= 1e-12, 1.0, std)
    A = np.empty((d + 1, n))
    A[:d] = ((X - mean) / std).T
    A[d] = 1.0
    W, b = _train_ovr(A, y, int(n_classes), float(l2), int(epochs),
                      float(lr))
    return LinearModel(weights=W, bias=b, mean=mean, std=std,
                       n_classes=int(n_classes))


def predict(model, X):
    X = np.asarray(X, dtype=np.float64)
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
