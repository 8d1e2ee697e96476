import math

import numpy as np
import pytest

from hofsel.ica import (
    IcaConfig,
    IcaError,
    append_feature,
    avg_pearson,
    empty_model,
    fit_batch,
    infomax_grad,
    infomax_loglik,
    joint_entropy_estimate,
    signal_entropy,
    signal_entropy_sum,
)


def std(col):
    return (col - col.mean()) / col.std()


def build_stack(rng, n, d, config):
    """Append d correlated standardized columns one at a time."""
    model = empty_model()
    base = rng.normal(size=n)
    for j in range(d):
        raw = 0.7 * base + rng.normal(size=n)
        model = append_feature(model, std(raw), config, feature_id=j)
    return model


class TestAppend:
    def test_triangular_after_every_append(self):
        rng = np.random.default_rng(0)
        config = IcaConfig(rng_seed=0)
        model = empty_model()
        base = rng.normal(size=500)
        for j in range(5):
            raw = 0.6 * base + rng.normal(size=500)
            model = append_feature(model, std(raw), config, feature_id=j)
            W = model.W
            assert W.shape == (j + 1, j + 1)
            for r in range(j + 1):
                assert np.all(W[r, r + 1:] == 0.0)
            det = np.linalg.det(W)
            diag_prod = float(np.prod(np.diag(W)))
            assert det == pytest.approx(diag_prod, rel=1e-9)
            assert model.log_abs_det() == pytest.approx(
                math.log(abs(diag_prod)), rel=1e-9)

    def test_signals_are_unit_residuals(self):
        rng = np.random.default_rng(1)
        config = IcaConfig(rng_seed=0)
        model = build_stack(rng, 800, 4, config)
        for j, s in enumerate(model.S):
            assert s.std() == pytest.approx(1.0, abs=1e-9)
            for i in range(j):
                r = np.corrcoef(model.S[i], s)[0, 1]
                assert abs(r) < 1e-8

    def test_first_signal_is_the_column(self):
        rng = np.random.default_rng(2)
        config = IcaConfig(rng_seed=0)
        col = std(rng.normal(size=300))
        model = append_feature(empty_model(), col, config, feature_id=0)
        assert np.allclose(model.S[0], col, atol=1e-9)
        assert model.W[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_fit_meta_records_every_row(self):
        rng = np.random.default_rng(3)
        config = IcaConfig(rng_seed=0)
        model = build_stack(rng, 400, 3, config)
        rows = model.fit_meta["rows"]
        assert len(rows) == 3
        for row in rows:
            assert "scale" in row or row.get("degenerate")

    def test_near_duplicate_column_is_degenerate_not_fatal(self):
        rng = np.random.default_rng(4)
        config = IcaConfig(rng_seed=0)
        col = std(rng.normal(size=500))
        model = append_feature(empty_model(), col, config, feature_id=0)
        model = append_feature(model, col.copy(), config, feature_id=1)
        assert model.dim == 2
        assert np.isfinite(model.log_abs_det())
        assert np.isfinite(joint_entropy_estimate(model))

    def test_unstandardized_input_rejected(self):
        config = IcaConfig(rng_seed=0)
        with pytest.raises(IcaError):
            append_feature(empty_model(), np.arange(50, dtype=np.float64),
                           config, feature_id=0)

    def test_append_is_deterministic(self):
        rng = np.random.default_rng(5)
        n = 600
        a = std(rng.normal(size=n))
        b = std(a * 0.5 + rng.normal(size=n))
        config = IcaConfig(rng_seed=7)
        runs = []
        for _ in range(2):
            m = append_feature(empty_model(), a, config, feature_id=0)
            m = append_feature(m, b, config, feature_id=1)
            runs.append(m.W.copy())
        assert np.array_equal(runs[0], runs[1])


class TestEntropyEstimate:
    def test_signal_entropy_constant_is_zero(self):
        assert signal_entropy(np.zeros(100), bins=5) == 0.0

    def test_signal_entropy_uniform_bins(self):
        s = np.linspace(0.0, 1.0, 1000)
        h = signal_entropy(s, bins=5)
        assert h == pytest.approx(math.log(5), abs=1e-3)

    def test_estimate_decomposes(self):
        rng = np.random.default_rng(6)
        config = IcaConfig(rng_seed=0)
        model = build_stack(rng, 700, 3, config)
        expected = signal_entropy_sum(model) - model.log_abs_det()
        assert joint_entropy_estimate(model) == pytest.approx(
            expected, abs=1e-12)

    def test_independent_columns_add_up(self):
        rng = np.random.default_rng(8)
        config = IcaConfig(rng_seed=0)
        n = 5000
        a = std(rng.normal(size=n))
        b = std(rng.normal(size=n))
        model = append_feature(empty_model(), a, config, feature_id=0)
        single = joint_entropy_estimate(model)
        model = append_feature(model, b, config, feature_id=1)
        joint = joint_entropy_estimate(model)
        other = joint_entropy_estimate(
            append_feature(empty_model(), b, config, feature_id=1))
        assert joint == pytest.approx(single + other, rel=0.05)


class TestUnmixing:
    def test_two_source_mixture_comes_apart(self):
        rng = np.random.default_rng(11)
        n = 4000
        sources = rng.uniform(-1.0, 1.0, size=(n, 2))
        A = np.array([[1.0, 0.0], [0.8, 1.0]])
        mixed = sources @ A.T
        cols = np.column_stack([std(mixed[:, 0]), std(mixed[:, 1])])
        config = IcaConfig(rng_seed=0)
        model = fit_batch(cols, config)
        assert avg_pearson(model) < 0.1

    def test_avg_pearson_needs_two_signals(self):
        rng = np.random.default_rng(12)
        config = IcaConfig(rng_seed=0)
        model = append_feature(empty_model(), std(rng.normal(size=200)),
                               config, feature_id=0)
        assert avg_pearson(model) == 0.0


class TestInfomaxObjective:
    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        X = rng.laplace(size=(400, 3))
        W = np.eye(3) + 0.1 * rng.normal(size=(3, 3))
        grad = infomax_grad(W, X)
        eps = 1e-6
        for i in range(3):
            for j in range(3):
                Wp = W.copy()
                Wm = W.copy()
                Wp[i, j] += eps
                Wm[i, j] -= eps
                fd = (infomax_loglik(Wp, X) - infomax_loglik(Wm, X)) / (2 * eps)
                denom = max(abs(fd), abs(grad[i, j]), 1e-8)
                assert abs(grad[i, j] - fd) / denom < 1e-4

    def test_loglik_increases_along_gradient(self):
        rng = np.random.default_rng(13)
        X = rng.laplace(size=(300, 2))
        W = np.eye(2)
        g = infomax_grad(W, X)
        before = infomax_loglik(W, X)
        after = infomax_loglik(W + 1e-4 * g, X)
        assert after > before
