import itertools
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from hofsel.criteria import KINDS, Criterion, select_greedy
from hofsel.data import DataTable, discretize
from hofsel.eval import (
    PROBE_L2,
    EvalError,
    cross_validate,
    default_k_values,
    error_rate,
    global_mi,
    information_gain_curve,
    predict,
    stratified_folds,
    train_linear,
)
from hofsel.hofs import HofsConfig, run_hofs
from hofsel.infotheory import EstimatorError
from hofsel.synth import HeteroModelSpec, TreeModelSpec, gen_hetero, gen_tree
from test_hofs import xnor_table


def assert_solves_objective(model, X, y, perturb=True):
    """Every present class's row has oracle gradient max-norm <= 1e-8 and,
    with perturb, no lower objective at +-1e-4 on any coordinate."""
    for k in np.unique(y):
        w, b = model.weights[k], model.bias[k]
        grad = oracles.logistic_row_gradient(X, y, k, w, b)
        assert np.abs(grad).max() <= 1e-8
        if not perturb:
            continue
        base = oracles.logistic_row_objective(X, y, k, w, b)
        for j in range(len(w) + 1):
            for delta in (1e-4, -1e-4):
                w2, b2 = w.copy(), b + delta * (j == len(w))
                if j < len(w):
                    w2[j] += delta
                assert oracles.logistic_row_objective(X, y, k, w2, b2) >= base


def blob_data(rng, n_per_class, n_classes, spread=0.6):
    xs = []
    ys = []
    for c in range(n_classes):
        center = np.array([math.cos(2 * math.pi * c / n_classes),
                           math.sin(2 * math.pi * c / n_classes)]) * 3.0
        xs.append(center + rng.normal(0.0, spread, size=(n_per_class, 2)))
        ys.append(np.full(n_per_class, c))
    X = np.vstack(xs)
    y = np.concatenate(ys).astype(np.int64)
    order = rng.permutation(len(y))
    return X[order], y[order]


class TestProbe:
    def test_separable_blobs_fit_cleanly(self):
        rng = np.random.default_rng(0)
        X, y = blob_data(rng, 60, 3, spread=0.2)
        model = train_linear(X, y, 3)
        assert error_rate(model, X, y) == 0.0
        assert_solves_objective(model, X, y)

    def test_error_rate_is_percent_mismatch(self):
        rng = np.random.default_rng(1)
        X, y = blob_data(rng, 40, 2)
        model = train_linear(X, y, 2)
        pred = predict(model, X)
        assert error_rate(model, X, y) == pytest.approx(
            float(np.mean(pred != y) * 100.0), abs=1e-12)

    def test_matches_reference_probe(self):
        rng = np.random.default_rng(2)
        X, y = blob_data(rng, 50, 3)
        X_tr, y_tr = X[:120], y[:120]
        X_te, y_te = X[120:], y[120:]
        model = train_linear(X_tr, y_tr, 3)
        assert_solves_objective(model, X_tr, y_tr, perturb=False)
        ours = error_rate(model, X_te, y_te)
        ref = oracles.ovr_probe_error(model.weights, model.bias, X_tr,
                                      X_te, y_te)
        assert ours == pytest.approx(ref, abs=1e-9)

    @pytest.mark.parametrize("n, d, n_classes, present, constant_col, gap", [
        (20000, 3, 2, 2, None, 0.8),
        (900, 10, 5, 5, None, 0.8),
        (600, 4, 3, 3, 2, 0.8),
        (400, 3, 3, 3, None, 6.0),
        (600, 4, 4, 3, None, 0.8),
        (600, 4, 3, 2, None, 0.8),
    ], ids=["binary-large", "five-class", "zero-variance-column",
            "near-separable", "absent-class", "three-class-two-present"])
    def test_weights_match_reference_recipe(self, n, d, n_classes, present,
                                            constant_col, gap):
        # the reference recipe is the literal per-sample objective in
        # oracles: every present row must be its minimizer
        rng = np.random.default_rng(11)
        y = np.arange(n) % present
        X = rng.normal(size=(n, d)) + gap * y[:, None] * rng.normal(size=d)
        if constant_col is not None:
            X[:, constant_col] = 0.3
        model = train_linear(X, y, n_classes)
        assert_solves_objective(model, X, y)
        for k in range(present, n_classes):
            assert np.array_equal(model.weights[k], np.zeros(d))
            assert model.bias[k] == -np.inf
        assert predict(model, X).max() < present

    def test_reaches_optimum_on_hetero_10k(self):
        # 500 epochs of the former gradient descent stopped at a gradient
        # max-norm of 0.023 here
        table = gen_hetero(HeteroModelSpec(block_size=1000))
        X = np.column_stack([table.columns[f] for f in range(5)])
        model = train_linear(X, table.labels, table.n_classes)
        assert_solves_objective(model, X, table.labels, perturb=False)

    def test_binary_rows_are_exact_negations(self):
        rng = np.random.default_rng(12)
        X, y = blob_data(rng, 150, 2, spread=1.5)
        model = train_linear(X, y, 2)
        assert model.weights.shape == (2, 2)
        assert np.array_equal(model.weights[0], -model.weights[1])
        assert np.array_equal(model.bias, -model.bias[::-1])
        # the negation is class 0's own optimum, not just a mirror
        assert_solves_objective(model, X, y)

    def test_three_classes_with_two_present_train_three_rows(self):
        # the single-row path keys on n_classes, not on the classes seen:
        # the absent class keeps a row of its own, zero weights and bias
        # -inf, and is never predicted, even far from the training data
        rng = np.random.default_rng(13)
        X, y = blob_data(rng, 100, 2, spread=1.5)
        model = train_linear(X, y, 3)
        assert model.weights.shape == (3, 2)
        assert model.bias.shape == (3,)
        assert np.array_equal(model.weights[2], np.zeros(2))
        assert model.bias[2] == -np.inf
        assert np.isfinite(model.bias[:2]).all()
        far = rng.normal(scale=1e3, size=(500, 2))
        assert predict(model, np.vstack([X, far])).max() == 1

    def test_absent_class_row_leaves_other_rows_unchanged(self):
        rng = np.random.default_rng(14)
        X, y = blob_data(rng, 80, 3, spread=1.5)
        three = train_linear(X, y, 3)
        four = train_linear(X, y, 4)
        assert np.abs(four.weights[:3] - three.weights).max() <= 1e-12
        assert np.abs(four.bias[:3] - three.bias).max() <= 1e-12
        assert np.array_equal(predict(four, X), predict(three, X))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        rng = np.random.default_rng(15)
        X, y = blob_data(rng, 40, 2)
        model = train_linear(X, y, 3)
        X[7, 1] = bad
        with pytest.raises(EvalError, match="NaN or inf"):
            train_linear(X, y, 2)
        # a non-finite score could otherwise pick the absent class 2
        with pytest.raises(EvalError, match="NaN or inf"):
            predict(model, X[5:9])

    def test_labels_outside_class_range_rejected(self):
        rng = np.random.default_rng(16)
        X, y = blob_data(rng, 40, 3)
        with pytest.raises(EvalError, match="outside"):
            train_linear(X, y, 2)

    def test_unconverged_solve_raises(self, monkeypatch):
        import hofsel.eval as evaluation
        monkeypatch.setattr(evaluation, "PROBE_MAX_STEPS", 2)
        rng = np.random.default_rng(17)
        X, y = blob_data(rng, 40, 2)
        with pytest.raises(FloatingPointError, match="did not converge"):
            train_linear(X, y, 2)

    def test_unconverged_solve_raises_with_five_classes(self, monkeypatch):
        import hofsel.eval as evaluation
        monkeypatch.setattr(evaluation, "PROBE_MAX_STEPS", 2)
        rng = np.random.default_rng(17)
        X, y = blob_data(rng, 40, 5)
        with pytest.raises(FloatingPointError, match="did not converge"):
            train_linear(X, y, 5)

    def test_standardization_is_learned_from_train(self):
        rng = np.random.default_rng(3)
        X, y = blob_data(rng, 80, 2)
        model = train_linear(X, y, 2)
        shifted = train_linear(X * 100.0 + 7.0, y, 2)
        assert error_rate(model, X, y) == pytest.approx(
            error_rate(shifted, X * 100.0 + 7.0, y), abs=1e-9)


def cauchy_rows():
    """A (d+1, N) design from 900 Cauchy samples of 10 features with five
    linear classes, the sign matrix of its one-vs-rest rows, and the probe
    penalty."""
    rng = np.random.default_rng(37)
    X = rng.standard_cauchy(size=(900, 10))
    y = np.argmax(X @ rng.normal(size=(10, 5)) + rng.gumbel(size=(900, 5)),
                  axis=1)
    A = np.vstack([((X - X.mean(axis=0)) / X.std(axis=0)).T, np.ones(900)])
    sign = np.where(y == np.arange(5)[:, None], -1.0, 1.0)
    penalty = np.append(np.full(10, PROBE_L2), 0.0)
    return X, y, A, sign, penalty


class TestBatchedRows:
    def test_rows_solved_together_match_rows_solved_alone(self, monkeypatch):
        import hofsel.eval as evaluation
        X, y, A, sign, penalty = cauchy_rows()
        # every loss evaluation over a (rows, N) stack is one Newton
        # iteration (after the one at zero); one over a single row's
        # margins is a halved step
        shapes = []
        losses = evaluation._softplus_means

        def recorded(U, E, T):
            shapes.append(U.shape)
            return losses(U, E, T)

        monkeypatch.setattr(evaluation, "_softplus_means", recorded)
        alone, iterations, halvings = [], [], []
        for k in range(5):
            shapes.clear()
            theta, steps = evaluation._newton_rows(A, sign[k:k + 1].copy(),
                                                   penalty)
            alone.append(theta[0])
            iterations.append(sum(len(s) == 2 for s in shapes) - 1)
            # the last iteration's step is below tolerance and needs no
            # trial loss
            assert steps == iterations[-1] + 1
            halvings.append(sum(len(s) == 1 for s in shapes))
        # the rows stop at different iterations, and one row alone halves
        # its step while the others accept every full step
        assert len(set(iterations)) > 1
        assert sum(h > 0 for h in halvings) == 1
        shapes.clear()
        together, steps = evaluation._newton_rows(A, sign.copy(), penalty)
        assert steps == max(iterations) + 1
        assert np.abs(together - np.array(alone)).max() <= 1e-12
        stack = [s[0] for s in shapes if len(s) == 2]
        assert stack[0] == 5 and stack[-1] == 1
        assert len(shapes) - len(stack) == sum(halvings)
        model = train_linear(X, y, 5)
        assert np.abs(model.weights - together[:, :-1]).max() <= 1e-12
        assert np.abs(model.bias - together[:, -1]).max() <= 1e-12

    def test_hessians_without_pair_products_agree(self, monkeypatch):
        # above the memory cap each row's Hessian is formed from A alone
        import hofsel.eval as evaluation
        X, y, A, sign, penalty = cauchy_rows()
        paired = train_linear(X, y, 5)
        monkeypatch.setattr(evaluation, "_PAIRS_MAX_BYTES", 0)
        alone = train_linear(X, y, 5)
        assert np.abs(paired.weights - alone.weights).max() <= 1e-12
        assert np.abs(paired.bias - alone.bias).max() <= 1e-12


class TestFolds:
    def test_partition_covers_everything_once(self):
        rng = np.random.default_rng(4)
        y = rng.integers(0, 3, size=250).astype(np.int64)
        folds = stratified_folds(y, 10, seed=0)
        flat = np.concatenate(folds)
        assert sorted(flat.tolist()) == list(range(250))

    def test_every_class_in_every_fold(self):
        rng = np.random.default_rng(5)
        y = np.concatenate([np.full(120, 0), np.full(120, 1),
                            np.full(120, 2)]).astype(np.int64)
        rng.shuffle(y)
        for fold in stratified_folds(y, 10, seed=1):
            assert set(y[fold]) == {0, 1, 2}

    def test_deterministic_by_seed(self):
        rng = np.random.default_rng(6)
        y = rng.integers(0, 2, size=200).astype(np.int64)
        a = stratified_folds(y, 5, seed=3)
        b = stratified_folds(y, 5, seed=3)
        for fa, fb in zip(a, b):
            assert np.array_equal(fa, fb)

    @pytest.mark.parametrize("seed", [0, 3, 7, 11])
    def test_folds_match_unique_class_reference(self, seed):
        # the classes come from the label counts, in np.unique's order,
        # so the generator's draws and the folds are the same; labels 1,
        # 4 and 6 are absent
        rng = np.random.default_rng(20 + seed)
        y = rng.choice([0, 2, 3, 5, 7], size=500,
                       p=[0.4, 0.3, 0.2, 0.05, 0.05]).astype(np.int64)
        for n_folds in (2, 5, 10):
            got = stratified_folds(y, n_folds, seed=seed)
            want = unique_class_folds(y, n_folds, seed)
            assert len(got) == len(want)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


def unique_class_folds(y, n_folds, seed):
    """stratified_folds with the classes read by np.unique."""
    rng = np.random.default_rng(np.random.SeedSequence((seed, 104729)))
    assign = np.empty(len(y), dtype=np.int64)
    for cls in np.unique(y):
        idx = np.flatnonzero(y == cls)
        idx = idx[rng.permutation(len(idx))]
        assign[idx] = np.arange(len(idx)) % n_folds
    folds = [np.flatnonzero(assign == f) for f in range(n_folds)]
    return [f for f in folds if len(f)]


class TestCrossValidate:
    def make_table(self, n=300, seed=7):
        rng = np.random.default_rng(seed)
        X, y = blob_data(rng, n // 2, 2)
        noise = rng.normal(size=len(y))
        return DataTable(columns=[X[:, 0], X[:, 1], noise],
                         feature_names=["u", "v", "z"],
                         feature_kinds=["continuous"] * 3,
                         labels=y, label_values=[0, 1])

    def test_informative_beats_noise(self):
        table = self.make_table()
        good = cross_validate(table, [0, 1], n_folds=5, seed=0)
        bad = cross_validate(table, [2], n_folds=5, seed=0)
        assert good < bad

    def test_feature_order_does_not_matter(self):
        for name, features in (("tree-5k", [0, 3, 1]),
                               ("hetero", [5, 0, 12, 1]),
                               ("xnor", [0, 1, 2])):
            table = probe_case(name)[0]
            errors = {cross_validate(table, list(order), n_folds=5, seed=0)
                      for order in itertools.permutations(features)}
            assert len(errors) == 1, (name, errors)

    def test_bad_feature_ids_rejected(self):
        # an id of -1 would read the last column, and 9 is past the end
        tree = gen_tree(TreeModelSpec(n_samples=2000, seed=1))
        for features in ([-1], [9], [0, 3, 0], [2, 2]):
            with pytest.raises(EvalError):
                cross_validate(tree, features)

    def test_small_data_goes_leave_one_out(self):
        table = self.make_table(n=60, seed=8)
        err = cross_validate(table, [0, 1], n_folds=10, seed=0)
        assert 0.0 <= err <= 100.0

    def test_tree_errors_match_two_row_probe(self):
        # 10-fold errors of the probe solved to its optimum; declaring a
        # third, absent class makes it solve both one-vs-rest rows of the
        # binary label apart, and one row and its negation must agree
        tree = gen_tree(TreeModelSpec(n_samples=5000, seed=1))
        two_row = SimpleNamespace(columns=tree.columns, labels=tree.labels,
                                  n_classes=3)
        for features, pinned in (([0, 3, 1], 27.64138536554146),
                                 (list(range(9)), 26.562664570658278)):
            assert cross_validate(tree, features) == pinned
            assert cross_validate(two_row, features) == pinned

    def test_tiny_scale_gives_the_same_error(self):
        # a probe column is constant only when its std is within rounding
        # of its |mean|, so 1e-13 x is standardized like x
        tree = gen_tree(TreeModelSpec(n_samples=5000, seed=1))
        tiny = replace(tree, columns=[1e-13 * col for col in tree.columns])
        assert cross_validate(tiny, [0, 3, 1]) == 27.64138536554146

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    @pytest.mark.parametrize("ones", [1, 20, 500])
    def test_fold_constant_column_matches_cold_folds(self, monkeypatch,
                                                     ones, scale):
        # an indicator whose ones all sit in test fold 3 is all zeros on
        # that fold's training rows, where train_linear's weight on it is
        # 0 and the Hessian stays well conditioned at any scale of the
        # column; fold 0, which starts fold 3, has a nonzero weight on it
        tree = gen_tree(TreeModelSpec(n_samples=5000, seed=1))
        splits = training_splits(tree)
        indicator = np.zeros(5000)
        indicator[np.flatnonzero(~splits[3])[:ones]] = scale
        table = SimpleNamespace(columns=list(tree.columns) + [indicator],
                                labels=tree.labels, n_classes=2)
        features = [0, 3, 1, 9]
        fits = record_fits(monkeypatch)
        assert cross_validate(table, features) == cold_fold_error(
            table, features, splits)
        fit = fits[3]
        assert not fit.A[3].any()
        assert fit.theta[1, 3] == 0.0
        # the Hessian of the solved row at its optimum is well conditioned
        q = 1.0 / (1.0 + np.exp(-(fit.theta[1] @ fit.A)))
        hess = ((fit.A * (q * (1.0 - q))) @ fit.A.T / len(q)
                + np.diag(np.append(np.full(len(features), PROBE_L2), 0.0)))
        assert np.linalg.cond(hess) < 1e8

    @pytest.mark.parametrize("outlier", [1e6, 1e9])
    def test_outlier_column_matches_cold_folds(self, outlier):
        # one extreme value sets the all-sample std of its column, and
        # the fold that trains without it has a spread 1e-4 (1e6) or
        # 1e-7 (1e9) as wide: every fold must still reach train_linear's
        # optimum
        tree = gen_tree(TreeModelSpec(n_samples=5000, seed=1))
        columns = [np.asarray(col, dtype=np.float64) for col in tree.columns]
        columns[3] = columns[3].copy()
        columns[3][17] = outlier
        table = SimpleNamespace(columns=columns, labels=tree.labels,
                                n_classes=2)
        features = [0, 3, 1]
        assert cross_validate(table, features) == cold_fold_error(
            table, features, training_splits(table))

    def test_empty_feature_list_rejected(self):
        table = self.make_table()
        with pytest.raises(EvalError):
            cross_validate(table, [])


def probe_case(name):
    """A table and the features its probe tests use."""
    if name == "hetero":
        return gen_hetero(HeteroModelSpec(seed=0)), list(range(20))
    if name == "xnor":
        return xnor_table(), [0, 1, 2]
    tree = gen_tree(TreeModelSpec(n_samples=5000, seed=1))
    if name == "absent-class":
        # a third, absent class: its row has bias -inf in every fold
        tree = SimpleNamespace(columns=tree.columns, labels=tree.labels,
                               n_classes=3)
    return tree, list(range(9))


def design(table, features):
    return np.column_stack([np.asarray(table.columns[f], dtype=np.float64)
                            for f in features])


def standardized_design(table, features):
    """The augmented design of all samples, standardized as train_linear
    standardizes it."""
    import hofsel.eval as evaluation
    A = evaluation._design([table.columns[f] for f in features],
                           len(table.labels))
    evaluation._standardize(A)
    return A


def training_splits(table):
    """The training masks of cross_validate's ten default folds."""
    n = len(table.labels)
    splits = []
    for test_idx in stratified_folds(table.labels, 10):
        train = np.ones(n, dtype=bool)
        train[test_idx] = False
        splits.append(train)
    return splits


def cold_fold_error(table, features, splits):
    """Mean held-out error of train_linear fitted on each split alone."""
    X, y = design(table, features), table.labels
    errors = []
    for train in splits:
        cold = train_linear(X[train], y[train], table.n_classes)
        errors.append(error_rate(cold, X[~train], y[~train]))
    return float(np.mean(errors))


def record_fits(monkeypatch):
    """Every probe solve cross_validate makes, with its design, labels,
    start, solution theta and Newton iterations."""
    import hofsel.eval as evaluation
    fits = []
    solve = evaluation._train_ovr

    def recorded(A, y, n_classes, start=None):
        theta, steps = solve(A, y, n_classes, start)
        fits.append(SimpleNamespace(A=A, y=y, start=start, theta=theta,
                                    steps=steps))
        return theta, steps

    monkeypatch.setattr(evaluation, "_train_ovr", recorded)
    return fits


def assert_same_optimum(got, want):
    """Entries agree to 1e-9 of the reference's largest finite one, and
    the -inf entries of absent classes sit in the same places."""
    finite = np.isfinite(want)
    assert np.array_equal(np.isfinite(got), finite)
    assert np.array_equal(got[~finite], want[~finite])
    scale = np.abs(want[finite]).max()
    assert np.abs(got[finite] - want[finite]).max() <= 1e-9 * scale


CASES = ["tree-5k", "absent-class", "hetero", "xnor"]


class TestWarmStart:
    @pytest.mark.parametrize("case", CASES)
    def test_warm_optimum_is_the_cold_optimum(self, monkeypatch, case):
        # every fold standardizes its gathered rows and starts from fold
        # 0's model: its design, its solution and its predictions must be
        # those of train_linear on the fold's rows
        table, features = probe_case(case)
        fits = record_fits(monkeypatch)
        error = cross_validate(table, features)
        X = design(table, features)
        splits = training_splits(table)
        assert len(fits) == len(splits)
        assert fits[0].start is None
        d = len(features)
        for fit, train in zip(fits, splits):
            assert np.array_equal(fit.y, table.labels[train])
            if fit is not fits[0]:
                assert fit.start is fits[0].theta
            cold = train_linear(X[train], table.labels[train],
                                table.n_classes)
            Z = (X[train] - cold.mean) / cold.std
            assert np.abs(fit.A[:d] - Z.T).max() <= 1e-9 * np.abs(Z).max()
            assert_same_optimum(fit.theta,
                                np.column_stack([cold.weights, cold.bias]))
            warm = replace(cold, weights=fit.theta[:, :d],
                           bias=fit.theta[:, d])
            assert np.array_equal(predict(warm, X), predict(cold, X))
        assert error == cold_fold_error(table, features, splits)

    def test_hetero_probes_take_fewer_newton_steps(self, monkeypatch):
        # the benchmark's seven top-10 probes of hetero seed 0 take 830
        # Newton iterations when every fold starts from zero
        table = gen_hetero(HeteroModelSpec(seed=0))
        view = discretize(table, bins=5)
        partition, _ = run_hofs(table, 20, HofsConfig(C=0.5, bins=5))
        orders = [partition.selection_order] + [
            select_greedy(Criterion(kind), view, table.labels, 20).order
            for kind in KINDS]
        fits = record_fits(monkeypatch)
        for order in orders:
            cross_validate(table, order[:10])
        assert len(fits) == 70
        assert sum(fit.steps for fit in fits) <= 450
        train = training_splits(table)[0]
        for order, fit in zip(orders, fits[::10]):
            assert fit.start is None
            X = design(table, order[:10])
            cold = train_linear(X[train], table.labels[train],
                                table.n_classes)
            assert fit.steps == cold.n_steps

    @pytest.mark.parametrize("case", CASES)
    def test_start_ten_times_the_optimum_converges(self, case):
        # the starting loss carries the penalty: without it hetero's
        # first trial, penalized, never falls below the unpenalized
        # start, and the line search stalls
        import hofsel.eval as evaluation
        table, features = probe_case(case)
        A = standardized_design(table, features)
        cold, _ = evaluation._train_ovr(A, table.labels, table.n_classes)
        warm, _ = evaluation._train_ovr(A, table.labels, table.n_classes,
                                        10.0 * cold)
        assert_same_optimum(warm, cold)

    @pytest.mark.parametrize("case", CASES)
    def test_start_at_the_optimum_takes_one_step(self, case):
        import hofsel.eval as evaluation
        table, features = probe_case(case)
        A = standardized_design(table, features)
        cold, _ = evaluation._train_ovr(A, table.labels, table.n_classes)
        warm, steps = evaluation._train_ovr(A, table.labels,
                                            table.n_classes, cold)
        assert steps == 1
        assert_same_optimum(warm, cold)

    def test_absent_class_row_starts_from_zero(self):
        # a class absent from the start's data has bias -inf there; where
        # it is present its row must start from 0, not from -inf
        import hofsel.eval as evaluation
        rng = np.random.default_rng(19)
        X, y = blob_data(rng, 60, 3)
        A = evaluation._design(X.T, len(y))
        evaluation._standardize(A)
        two = y < 2
        start, _ = evaluation._train_ovr(np.compress(two, A, axis=1),
                                         y[two], 3)
        assert start[2, -1] == -np.inf
        warm, _ = evaluation._train_ovr(A, y, 3, start)
        assert_same_optimum(warm, evaluation._train_ovr(A, y, 3)[0])


class TestGlobalMi:
    def test_parity_pair_carries_one_bit(self):
        x1 = np.tile([0.0, 0.0, 1.0, 1.0], 25)
        x2 = np.tile([0.0, 1.0, 0.0, 1.0], 25)
        y = (x1 == x2).astype(np.int64)
        table = DataTable(columns=[x1, x2], feature_names=["x1", "x2"],
                          feature_kinds=["categorical"] * 2,
                          labels=y, label_values=[0, 1])
        view = discretize(table)
        value = global_mi(view, [0, 1], y)
        assert value == pytest.approx(math.log(2.0), abs=1e-12)

    def test_duplicate_feature_changes_nothing(self):
        rng = np.random.default_rng(9)
        codes = rng.integers(0, 3, size=400).astype(np.float64)
        labels = (codes > 0).astype(np.int64)
        other = rng.integers(0, 2, size=400).astype(np.float64)
        table = DataTable(columns=[codes, other, codes.copy()],
                          feature_names=["a", "b", "a2"],
                          feature_kinds=["categorical"] * 3,
                          labels=labels, label_values=[0, 1])
        view = discretize(table)
        assert global_mi(view, [0, 1], labels) == global_mi(
            view, [0, 1, 2], labels)

    def test_feature_cap_enforced(self):
        rng = np.random.default_rng(10)
        cols = [rng.integers(0, 2, size=50).astype(np.float64)
                for _ in range(17)]
        labels = rng.integers(0, 2, size=50).astype(np.int64)
        table = DataTable(columns=cols,
                          feature_names=["f%d" % i for i in range(17)],
                          feature_kinds=["categorical"] * 17,
                          labels=labels, label_values=[0, 1])
        view = discretize(table)
        with pytest.raises(EstimatorError):
            global_mi(view, list(range(17)), labels)


class TestGainCurve:
    def test_telescopes_to_final_total(self):
        tree = gen_tree(TreeModelSpec(n_samples=4000, seed=4))
        partition, trace = run_hofs(tree, 6, HofsConfig())
        curve = information_gain_curve(trace)
        assert len(curve) == 6
        assert sum(curve) == pytest.approx(partition.total_mi(), abs=1e-12)
        assert curve[0] == pytest.approx(trace.steps[0].total_mi, abs=1e-15)
        running = np.cumsum(curve)
        for got, step in zip(running, trace.steps):
            assert got == pytest.approx(step.total_mi, abs=1e-12)

    def test_empty_trace_gives_empty_curve(self):
        from hofsel.hofs import SelectionTrace
        assert information_gain_curve(SelectionTrace()) == []


class TestDefaults:
    def test_default_k_values_step_by_ten(self):
        assert default_k_values(35) == [10, 20, 30]
        assert default_k_values(9) == [9]
