"""Unit tests specific to each estimator implementation."""

import numpy as np
import pytest

from repro.influence import (
    FirstOrderInfluence,
    OneStepGradientDescent,
    RetrainInfluence,
    SecondOrderInfluence,
)


class TestFirstOrder:
    def test_point_influences_sum_equals_subset(self, fo_estimator):
        idx = np.array([1, 4, 6, 9])
        expected = fo_estimator.point_influences()[idx].sum()
        assert fo_estimator.bias_change(idx) == pytest.approx(expected)

    def test_additivity(self, fo_estimator):
        """FO influence is additive by construction (Eq. 9)."""
        a, b = np.arange(10), np.arange(10, 30)
        total = fo_estimator.bias_change(np.concatenate([a, b]))
        assert total == pytest.approx(
            fo_estimator.bias_change(a) + fo_estimator.bias_change(b)
        )

    def test_param_change_linear_system(self, fo_estimator):
        idx = np.arange(12)
        delta = fo_estimator.param_change(idx)
        g_s = fo_estimator.subset_grad_sum(idx)
        solver = fo_estimator.solver
        lhs = (solver.hessian @ delta + solver.damping_used * delta) * fo_estimator.num_train
        np.testing.assert_allclose(lhs, g_s, atol=1e-8)

    def test_point_influences_cached(self, fo_estimator):
        assert fo_estimator.point_influences() is fo_estimator.point_influences()

    def test_hard_evaluation_mode(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = FirstOrderInfluence(
            lr_model, X_train, german_train.labels, sp_metric, test_ctx, evaluation="hard"
        )
        idx = np.arange(40)
        theta_new = est.theta + est.param_change(idx)
        expected = sp_metric.value(lr_model, test_ctx, theta_new) - est.original_bias
        assert est.bias_change(idx) == pytest.approx(expected)


class TestSecondOrder:
    def test_invalid_variant(self, lr_model, X_train, german_train, sp_metric, test_ctx):
        with pytest.raises(ValueError, match="variant"):
            SecondOrderInfluence(
                lr_model, X_train, german_train.labels, sp_metric, test_ctx, variant="x"
            )

    def test_exact_solves_reduced_newton_system(self, so_estimator):
        idx = np.arange(25)
        delta = so_estimator.param_change(idx)
        n, m = so_estimator.num_train, len(idx)
        h_s = so_estimator.model.hessian(
            so_estimator.X_train[idx], so_estimator.y_train[idx]
        )
        reduced = n * so_estimator.hessian - m * h_s
        np.testing.assert_allclose(reduced @ delta, so_estimator.subset_grad_sum(idx), atol=1e-6)

    def test_approaches_fo_for_tiny_subsets(self, so_estimator, fo_estimator):
        """For m = 1 the curvature correction is an O(H_z / nH) effect —
        small, though not zero (a single point's Hessian can be tens of
        times the average in some directions)."""
        idx = np.array([7])
        so = so_estimator.param_change(idx)
        fo = fo_estimator.param_change(idx)
        assert np.linalg.norm(so - fo) / np.linalg.norm(fo) < 0.15

    def test_smooth_default_evaluation(self, so_estimator):
        assert so_estimator.evaluation == "smooth"


class TestOneStepGD:
    def test_param_change_formula(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = OneStepGradientDescent(
            lr_model, X_train, german_train.labels, sp_metric, test_ctx, learning_rate=0.5
        )
        idx = np.arange(15)
        expected = 0.5 / est.num_train * est.subset_grad_sum(idx)
        np.testing.assert_allclose(est.param_change(idx), expected)

    def test_auto_learning_rate_is_inverse_top_eigenvalue(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = OneStepGradientDescent(
            lr_model, X_train, german_train.labels, sp_metric, test_ctx
        )
        hessian = lr_model.hessian(X_train, german_train.labels)
        assert est.learning_rate == pytest.approx(1.0 / np.linalg.eigvalsh(hessian).max())

    def test_invalid_learning_rate(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        with pytest.raises(ValueError, match="positive"):
            OneStepGradientDescent(
                lr_model, X_train, german_train.labels, sp_metric, test_ctx, learning_rate=-1
            )

    def test_hard_default_evaluation(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        est = OneStepGradientDescent(
            lr_model, X_train, german_train.labels, sp_metric, test_ctx
        )
        assert est.evaluation == "hard"


class TestRetrain:
    def test_param_change_is_actual_refit(self, retrain_estimator, X_train, german_train):
        idx = np.arange(20)
        theta_new = retrain_estimator.retrained_theta(idx)
        keep = np.setdiff1d(np.arange(len(X_train)), idx)
        clone = retrain_estimator.model.clone()
        clone.fit(X_train[keep], german_train.labels[keep])
        grad_norm = np.linalg.norm(clone.grad(X_train[keep], german_train.labels[keep], theta_new))
        assert grad_norm < 1e-5  # refit parameters are stationary on reduced data

    def test_rejects_linear_evaluation(
        self, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        with pytest.raises(ValueError, match="exact parameters"):
            RetrainInfluence(
                lr_model, X_train, german_train.labels, sp_metric, test_ctx,
                evaluation="linear",
            )

    def test_degenerate_removal_rejected(self, retrain_estimator, german_train):
        """Removing every negative example leaves one class -> degenerate."""
        idx = np.flatnonzero(german_train.labels == 0)
        with pytest.raises(ValueError, match="single class"):
            retrain_estimator.retrained_theta(idx)

    def test_cold_start_agrees_with_warm(
        self, lr_model, X_train, german_train, sp_metric, test_ctx, retrain_estimator
    ):
        cold = RetrainInfluence(
            lr_model, X_train, german_train.labels, sp_metric, test_ctx, warm_start=False
        )
        idx = np.arange(25)
        np.testing.assert_allclose(
            cold.retrained_theta(idx), retrain_estimator.retrained_theta(idx), atol=1e-4
        )
