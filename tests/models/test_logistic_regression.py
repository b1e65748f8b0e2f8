"""Tests for repro.models.logistic_regression."""

import numpy as np
import pytest

from repro.models import LogisticRegression


class TestFitPredict:
    def test_learns_separable_problem(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        assert model.accuracy(X, y) > 0.85

    def test_gradient_near_zero_at_optimum(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        assert np.linalg.norm(model.grad(X, y)) < 1e-5

    def test_proba_in_unit_interval(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression().fit(X, y)
        proba = model.predict_proba(X)
        assert proba.min() >= 0.0 and proba.max() <= 1.0

    def test_predict_thresholds_proba(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression().fit(X, y)
        np.testing.assert_array_equal(
            model.predict(X), (model.predict_proba(X) >= 0.5).astype(int)
        )

    def test_warm_start_converges_same(self, tiny_xy):
        X, y = tiny_xy
        cold = LogisticRegression(l2_reg=1e-2).fit(X, y)
        warm = LogisticRegression(l2_reg=1e-2).fit(X, y, warm_start=cold.theta + 0.1)
        np.testing.assert_allclose(cold.theta, warm.theta, atol=1e-4)

    def test_no_intercept_mode(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression(fit_intercept=False).fit(X, y)
        assert model.num_params == X.shape[1]

    def test_regularization_shrinks_weights(self, tiny_xy):
        X, y = tiny_xy
        small = LogisticRegression(l2_reg=1e-4).fit(X, y)
        large = LogisticRegression(l2_reg=1.0).fit(X, y)
        assert np.linalg.norm(large.theta) < np.linalg.norm(small.theta)

    def test_overflow_safe_extreme_logits(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression().fit(X, y)
        extreme = model.theta * 100.0
        proba = model.predict_proba(X, extreme)
        assert np.isfinite(proba).all()
        assert np.isfinite(model.loss(X, y, extreme))


class TestValidation:
    def test_negative_reg_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            LogisticRegression(l2_reg=-1.0)

    def test_unfitted_predict_raises(self, tiny_xy):
        X, _ = tiny_xy
        with pytest.raises(RuntimeError, match="not fitted"):
            LogisticRegression().predict_proba(X)

    def test_feature_mismatch_raises(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression().fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict_proba(X[:, :2])

    def test_theta_shape_checked(self, tiny_xy):
        X, y = tiny_xy
        model = LogisticRegression().fit(X, y)
        with pytest.raises(ValueError, match="theta shape"):
            model.loss(X, y, np.zeros(2))

    def test_nonbinary_labels_rejected(self, tiny_xy):
        X, _ = tiny_xy
        with pytest.raises(ValueError, match="binary"):
            LogisticRegression().fit(X, np.full(len(X), 2))

    def test_clone_is_unfitted_same_hyperparams(self):
        model = LogisticRegression(l2_reg=0.5, fit_intercept=False, max_iter=10)
        clone = model.clone()
        assert clone.theta is None
        assert clone.l2_reg == 0.5
        assert clone.fit_intercept is False
        assert clone.max_iter == 10

