import math

import numpy as np
import pytest

from hofsel import ica
from hofsel.ica import (
    IcaError,
    append_feature,
    avg_pearson,
    empty_model,
    fit_batch,
    infomax_grad,
    infomax_loglik,
    joint_entropy_estimate,
    logistic_scale,
    signal_entropy,
    signal_entropy_sum,
)


def std(col):
    return (col - col.mean()) / col.std()


def build_stack(rng, n, d, bins):
    """Append d correlated standardized columns one at a time."""
    model = empty_model()
    base = rng.normal(size=n)
    for j in range(d):
        raw = 0.7 * base + rng.normal(size=n)
        model = append_feature(model, std(raw), bins, feature_id=j)
    return model


class TestAppend:
    def test_triangular_after_every_append(self):
        rng = np.random.default_rng(0)
        bins = 5
        model = empty_model()
        base = rng.normal(size=500)
        for j in range(5):
            raw = 0.6 * base + rng.normal(size=500)
            model = append_feature(model, std(raw), bins, feature_id=j)
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
        bins = 5
        model = build_stack(rng, 800, 4, bins)
        for j, s in enumerate(model.S):
            assert s.std() == pytest.approx(1.0, abs=1e-9)
            for i in range(j):
                r = np.corrcoef(model.S[i], s)[0, 1]
                assert abs(r) < 1e-8

    def test_first_signal_is_the_column(self):
        rng = np.random.default_rng(2)
        bins = 5
        col = std(rng.normal(size=300))
        model = append_feature(empty_model(), col, bins, feature_id=0)
        assert np.allclose(model.S[0], col, atol=1e-9)
        assert model.W[0, 0] == pytest.approx(1.0, abs=1e-9)

    def test_fit_meta_records_every_row(self):
        rng = np.random.default_rng(3)
        bins = 5
        model = build_stack(rng, 400, 3, bins)
        model = append_feature(model, model.columns[-1].copy(), bins,
                               feature_id=3)
        assert model.fit_meta["rows"] == (
            [{"degenerate": False}] * 3 + [{"degenerate": True}])

    def test_near_duplicate_column_is_degenerate_not_fatal(self):
        rng = np.random.default_rng(4)
        bins = 5
        col = std(rng.normal(size=500))
        model = append_feature(empty_model(), col, bins, feature_id=0)
        model = append_feature(model, col.copy(), bins, feature_id=1)
        assert model.dim == 2
        assert np.isfinite(model.log_abs_det())
        assert np.isfinite(joint_entropy_estimate(model))

    def test_unstandardized_input_rejected(self):
        bins = 5
        with pytest.raises(IcaError):
            append_feature(empty_model(), np.arange(50, dtype=np.float64),
                           bins, feature_id=0)

    def test_append_is_deterministic(self):
        rng = np.random.default_rng(5)
        n = 600
        a = std(rng.normal(size=n))
        b = std(a * 0.5 + rng.normal(size=n))
        bins = 5
        runs = []
        for _ in range(2):
            m = append_feature(empty_model(), a, bins, feature_id=0)
            m = append_feature(m, b, bins, feature_id=1)
            runs.append(m.W.copy())
        assert np.array_equal(runs[0], runs[1])


def scale_gradient(w, r):
    """d/dw of mean(log g'(w r)) + log w, with g the logistic cdf."""
    return 1.0 / w - float(np.mean(r * np.tanh(0.5 * w * r)))


class TestLogisticScale:
    def test_sign_residual_solves_w_tanh_half_w_is_one(self):
        r = np.tile([-1.0, 1.0], 50)
        w = logistic_scale(r)
        assert w == pytest.approx(1.5434046, abs=1e-6)
        # bisection on the same equation, independent of the Newton solve
        lo, hi = 1.0, 2.0
        for _ in range(100):
            mid = 0.5 * (lo + hi)
            lo, hi = (mid, hi) if mid * math.tanh(0.5 * mid) < 1.0 \
                else (lo, mid)
        assert abs(w - lo) < 1e-9

    @pytest.mark.parametrize("draw", [
        lambda rng, n: rng.normal(size=n),
        lambda rng, n: rng.laplace(size=n),
        lambda rng, n: (rng.random(n) < 0.01).astype(np.float64),
    ], ids=["gaussian", "laplace", "binary-p0.01"])
    def test_gradient_vanishes_at_the_solution(self, draw):
        r = std(draw(np.random.default_rng(9), 100000))
        w = logistic_scale(r)
        assert w > 0.0
        assert abs(scale_gradient(w, r)) < 1e-10

    def test_zero_variance_signal_rejected(self):
        with pytest.raises(IcaError):
            logistic_scale(np.full(100, 0.3))

    def test_unconverged_solve_raises(self, monkeypatch):
        monkeypatch.setattr(ica, "SCALE_MAX_STEPS", 2)
        with pytest.raises(IcaError, match="did not converge"):
            logistic_scale(np.tile([-1.0, 1.0], 50))


class TestEntropyEstimate:
    def test_signal_entropy_constant_is_zero(self):
        assert signal_entropy(np.zeros(100), bins=5) == 0.0

    def test_signal_entropy_uniform_bins(self):
        s = np.linspace(0.0, 1.0, 1000)
        h = signal_entropy(s, bins=5)
        assert h == pytest.approx(math.log(5), abs=1e-3)

    def test_estimate_decomposes(self):
        rng = np.random.default_rng(6)
        bins = 5
        model = build_stack(rng, 700, 3, bins)
        expected = signal_entropy_sum(model) - model.log_abs_det()
        assert joint_entropy_estimate(model) == pytest.approx(
            expected, abs=1e-12)

    def test_independent_columns_add_up(self):
        rng = np.random.default_rng(8)
        bins = 5
        n = 5000
        a = std(rng.normal(size=n))
        b = std(rng.normal(size=n))
        model = append_feature(empty_model(), a, bins, feature_id=0)
        single = joint_entropy_estimate(model)
        model = append_feature(model, b, bins, feature_id=1)
        joint = joint_entropy_estimate(model)
        other = joint_entropy_estimate(
            append_feature(empty_model(), b, bins, feature_id=1))
        assert joint == pytest.approx(single + other, rel=0.05)


class TestUnmixing:
    def test_two_source_mixture_comes_apart(self):
        rng = np.random.default_rng(11)
        n = 4000
        sources = rng.uniform(-1.0, 1.0, size=(n, 2))
        A = np.array([[1.0, 0.0], [0.8, 1.0]])
        mixed = sources @ A.T
        cols = np.column_stack([std(mixed[:, 0]), std(mixed[:, 1])])
        bins = 5
        model = fit_batch(cols, bins)
        assert avg_pearson(model) < 0.1

    def test_avg_pearson_needs_two_signals(self):
        rng = np.random.default_rng(12)
        bins = 5
        model = append_feature(empty_model(), std(rng.normal(size=200)),
                               bins, feature_id=0)
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
