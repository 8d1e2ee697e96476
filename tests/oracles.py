"""Independent reference implementations used to cross-check the package.

Everything here deliberately takes the slow road: explicit probability
tables indexed by outcome tuples, expectation-form conditionals, and a
from-scratch greedy loop for the selection criteria. None of it shares
code with the package so that agreement is evidence, not tautology.
"""

import csv
import math
from collections import Counter

import numpy as np


def prob_table(cols):
    """Full joint probability table as {outcome tuple: probability}."""
    cols = [np.asarray(c, dtype=np.int64) for c in cols]
    n = cols[0].shape[0]
    table = {}
    for i in range(n):
        key = tuple(int(c[i]) for c in cols)
        table[key] = table.get(key, 0.0) + 1.0 / n
    return table


def table_entropy(cols):
    """H of the joint outcome distribution, in nats, by direct -sum p log p."""
    return -sum(p * math.log(p) for p in prob_table(cols).values() if p > 0)


def table_conditional_entropy(target_cols, given_cols):
    """H(target | given) as the expectation of per-context entropies."""
    given = [np.asarray(c, dtype=np.int64) for c in given_cols]
    target = [np.asarray(c, dtype=np.int64) for c in target_cols]
    n = given[0].shape[0]
    contexts = {}
    for i in range(n):
        key = tuple(int(c[i]) for c in given)
        contexts.setdefault(key, []).append(i)
    h = 0.0
    for rows in contexts.values():
        w = len(rows) / n
        sub = [c[rows] for c in target]
        h += w * table_entropy(sub)
    return h


def table_mi(a, b):
    """I(a:b) by the direct sum over p(a,b) log[p(a,b) / (p(a) p(b))]."""
    pab = prob_table([a, b])
    pa = prob_table([a])
    pb = prob_table([b])
    total = 0.0
    for (va, vb), p in pab.items():
        total += p * math.log(p / (pa[(va,)] * pb[(vb,)]))
    return total


def table_cmi(a, b, given):
    """I(a:b | given) as the expectation of per-context table_mi values."""
    g = np.asarray(given, dtype=np.int64)
    a = np.asarray(a, dtype=np.int64)
    b = np.asarray(b, dtype=np.int64)
    n = g.shape[0]
    total = 0.0
    for v in np.unique(g):
        rows = np.flatnonzero(g == v)
        total += (len(rows) / n) * table_mi(a[rows], b[rows])
    return total


def joint_column(cols):
    """Single column encoding the joint outcome of several columns."""
    table = {}
    cols = [np.asarray(c, dtype=np.int64) for c in cols]
    out = np.zeros(cols[0].shape[0], dtype=np.int64)
    for i in range(out.shape[0]):
        key = tuple(int(c[i]) for c in cols)
        out[i] = table.setdefault(key, len(table))
    return out


def criterion_score(kind, cand, selected, codes, labels, beta=1.0):
    """Re-derive one candidate's score for the named greedy criterion."""
    rel = table_mi(codes[cand], labels)
    if kind == "MIM":
        return rel
    if kind == "MIFS":
        return rel - beta * sum(table_mi(codes[cand], codes[j])
                                for j in selected)
    if kind == "JMI":
        if not selected:
            return rel
        return sum(table_mi(joint_column([codes[cand], codes[j]]), labels)
                   for j in selected)
    if kind == "MRMR":
        if not selected:
            return rel
        pen = sum(table_mi(codes[cand], codes[j]) for j in selected)
        return rel - pen / len(selected)
    if kind == "CMIM":
        if not selected:
            return rel
        worst = max(table_mi(codes[cand], codes[j])
                    - table_cmi(codes[cand], codes[j], labels)
                    for j in selected)
        return rel - worst
    if kind == "SPECCMI_GREEDY":
        return rel + sum(table_cmi(codes[cand], labels, codes[j])
                         for j in selected)
    raise ValueError("unknown criterion %r" % (kind,))


def greedy_order(kind, codes, labels, t, beta=1.0):
    """Forward selection with the lowest-index tie-break, from scratch."""
    selected = []
    remaining = list(range(len(codes)))
    for _ in range(t):
        best = None
        best_score = None
        for cand in remaining:
            s = criterion_score(kind, cand, selected, codes, labels, beta)
            if best_score is None or s > best_score:
                best = cand
                best_score = s
        selected.append(best)
        remaining.remove(best)
    return selected


def train_standardization(X_train):
    """Per-column mean and std; a column whose std is at most 1e-12 of
    its |mean| keeps scale 1."""
    mean = X_train.mean(axis=0)
    std = X_train.std(axis=0)
    return mean, np.where(std <= 1e-12 * np.abs(mean), 1.0, std)


def _softplus(u):
    """log(1 + exp(u)) without overflow, for any u in [-inf, inf)."""
    return max(u, 0.0) + math.log1p(math.exp(-abs(u)))


def _sigmoid(u):
    if u >= 0.0:
        return 1.0 / (1.0 + math.exp(-u))
    e = math.exp(u)
    return e / (1.0 + e)


def _row_scores(X_train, w, b):
    mean, std = train_standardization(X_train)
    rows = ((X_train - mean) / std).tolist()
    w = [float(v) for v in w]
    return rows, [sum(wj * zj for wj, zj in zip(w, z)) + float(b)
                  for z in rows]


def logistic_row_objective(X_train, y_train, k, w, b, l2=1e-3):
    """One-vs-rest objective of class k's probe row (w, b), one literal
    sample at a time.

    The mean over samples of -log P(target), with P(class k) =
    sigmoid(w . z + b) on the training-standardized sample z, plus
    l2/2 |w|^2; the bias is not penalized."""
    _, scores = _row_scores(X_train, w, b)
    terms = [_softplus(-score) if yi == k else _softplus(score)
             for score, yi in zip(scores, y_train.tolist())]
    penalty = 0.5 * l2 * math.fsum(float(v) * float(v) for v in w)
    return math.fsum(terms) / len(terms) + penalty


def logistic_row_gradient(X_train, y_train, k, w, b, l2=1e-3):
    """Gradient of logistic_row_objective in (w, b), bias last: the mean
    of (sigmoid(score) - [y = k]) times (z, 1), plus l2 w."""
    rows, scores = _row_scores(X_train, w, b)
    resid = [_sigmoid(score) - (1.0 if yi == k else 0.0)
             for score, yi in zip(scores, y_train.tolist())]
    grad = [math.fsum(r * z[j] for r, z in zip(resid, rows)) / len(rows)
            + l2 * float(w[j]) for j in range(len(w))]
    grad.append(math.fsum(resid) / len(rows))
    return grad


def ovr_probe_error(W, b, X_train, X_test, y_test):
    """Held-out error (percent) of probe rows (W, b), standardized on the
    training columns: each test sample goes to the first class with the
    highest score."""
    mean, std = train_standardization(X_train)
    wrong = 0
    for x, yi in zip(X_test.tolist(), y_test.tolist()):
        z = [(xj - mj) / sj for xj, mj, sj in zip(x, mean, std)]
        scores = [sum(wj * zj for wj, zj in zip(row, z)) + float(bk)
                  for row, bk in zip(W.tolist(), b)]
        wrong += scores.index(max(scores)) != yi
    return 100.0 * wrong / len(y_test)


def triangular_unmixing(columns):
    """Lower-triangular unmixing of standardized columns, one row per column.

    Row j is the closed form for appending column j to the stack before
    it: the negated least-squares coefficients of the column on its
    predecessors, then 1, all divided by the residual's spread, so the
    signal W[j] @ X is the unit-variance residual. A column with residual
    variance below 1e-9 is degenerate: its row keeps the projection,
    scaled by 1e-8 instead. Returns W (d, d) and the list of the d
    signals.
    """
    X = np.column_stack(columns)
    d = X.shape[1]
    W = np.zeros((d, d))
    W[0, 0] = 1.0
    for j in range(1, d):
        prev = X[:, :j]
        beta = np.linalg.lstsq(prev, X[:, j], rcond=None)[0]
        resid_var = float((X[:, j] - prev @ beta).var())
        row = np.concatenate([-beta, [1.0]])
        W[j, :j + 1] = (row * 1e-8 if resid_var < 1e-9
                        else row / math.sqrt(resid_var))
    return W, [X[:, :j + 1] @ W[j, :j + 1] for j in range(d)]


def tied_quantile_edges(values, bins):
    """The ascending edges of tied_quantile_codes, repeats kept.

    The edges are np.quantile's at 1/B..(B-1)/B. A run is a maximal
    stretch of the sorted values whose neighbours differ by at most
    1e-10 of the range. An edge above the first value of a run and at
    or below its last moves down to that first value, found by walking
    the sorted values one neighbour at a time, so edges that fall in
    one run repeat. None when the range is below 1e-12.
    """
    s = np.sort(np.asarray(values, dtype=np.float64))
    span = float(s[-1] - s[0])
    if span < 1e-12:
        return None
    tol = 1e-10 * span
    edges = []
    for e in np.quantile(s, np.arange(1, bins) / bins):
        i = int(np.searchsorted(s, e))
        # s[i - 1] < e <= s[i]: inside a run when the two are one run
        if i > 0 and s[i] - s[i - 1] <= tol:
            while i > 0 and s[i] - s[i - 1] <= tol:
                i -= 1
            e = s[i]
        edges.append(float(e))
    return np.array(edges)


def tied_quantile_codes(values, bins):
    """Equal-frequency codes whose edges never split a run of tied values.

    A value's code is the number of distinct tied_quantile_edges at or
    below it. A range below 1e-12 is one level.
    """
    v = np.asarray(values, dtype=np.float64)
    edges = tied_quantile_edges(v, bins)
    if edges is None:
        return np.zeros(v.shape[0], dtype=np.int64)
    edges = np.unique(edges)
    return (v[:, None] >= edges[None, :]).sum(axis=1).astype(np.int64)


def csv_by_rows(path, label_column, missing_policy):
    """A delimited file read one row and one cell at a time.

    A row whose width is not the header's drops. A feature cell that is
    empty, na, nan or null (any case, stripped), or that float() reads
    as non-finite, is missing; any other cell that float() rejects
    raises ValueError naming the first such cell, row by row. A row with
    an empty label always drops. A row with a missing feature cell drops
    under "drop"; under "impute" the cell takes its column's mode (the
    smallest most common value) when the column's usable values are
    integral with at most 32 distinct ones, and its median otherwise.
    Returns the feature columns, the kept stripped label cells, and the
    rows read and dropped.
    """
    with open(path, newline="") as fh:
        rows = [row for row in csv.reader(fh) if row]
    header = [h.strip() for h in rows[0]]
    label_idx = header.index(label_column)
    kept, labels = [], []
    for row in rows[1:]:
        if len(row) != len(header):
            continue
        values = []
        for i, cell in enumerate(row):
            if i == label_idx:
                continue
            cell = cell.strip()
            if cell.lower() in ("", "na", "nan", "null"):
                values.append(math.nan)
                continue
            try:
                value = float(cell)
            except ValueError:
                raise ValueError("non-numeric cell %r" % (cell,))
            values.append(value if math.isfinite(value) else math.nan)
        label = row[label_idx].strip()
        missing = any(math.isnan(v) for v in values)
        if label == "" or (missing and missing_policy == "drop"):
            continue
        kept.append(values)
        labels.append(label)
    columns = [np.array(col) for col in zip(*kept)]
    if missing_policy == "impute":
        for col in columns:
            good = [v for v in col.tolist() if not math.isnan(v)]
            counts = Counter(good)
            if all(v == math.floor(v) for v in good) and len(counts) <= 32:
                fill = max(sorted(counts), key=counts.__getitem__)
            else:
                fill = float(np.median(good))
            col[np.isnan(col)] = fill
    read = len(rows) - 1
    return columns, labels, read, read - len(labels)
