"""Tests for repro.fairness.metrics (hard values and orientation)."""

import numpy as np
import pytest

from repro.fairness import (
    EqualOpportunity,
    FairnessContext,
    PredictiveParity,
    StatisticalParity,
    get_metric,
    list_metrics,
)
from repro.models import LogisticRegression


@pytest.fixture(scope="module")
def biased_setup():
    """A model that is biased against the protected group *by construction*.

    Feature 0 is the (centered) group indicator and strongly drives the
    label, so the fitted model predicts favorably for the privileged group.
    """
    rng = np.random.default_rng(0)
    n = 600
    privileged = rng.random(n) < 0.5
    X = np.column_stack(
        [privileged.astype(float) - 0.5, rng.normal(size=n), rng.normal(size=n)]
    )
    logits = 2.5 * X[:, 0] + 0.8 * X[:, 1]
    y = (logits + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
    model = LogisticRegression(l2_reg=1e-3).fit(X, y)
    ctx = FairnessContext(X=X, y=y, privileged=privileged, favorable_label=1)
    return model, ctx


class TestContextValidation:
    def test_requires_both_groups(self):
        X = np.zeros((4, 2))
        y = np.array([0, 1, 0, 1])
        with pytest.raises(ValueError, match="non-empty"):
            FairnessContext(X, y, np.ones(4, dtype=bool))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="first dimension"):
            FairnessContext(np.zeros((4, 2)), np.array([0, 1]), np.array([True, False]))

    def test_invalid_favorable_label(self):
        X = np.zeros((2, 1))
        with pytest.raises(ValueError, match="favorable_label"):
            FairnessContext(X, np.array([0, 1]), np.array([True, False]), favorable_label=3)

    def test_favorable_true_mask(self):
        X = np.zeros((2, 1))
        ctx = FairnessContext(X, np.array([0, 1]), np.array([True, False]), favorable_label=0)
        np.testing.assert_array_equal(ctx.favorable_true, [True, False])


class TestRegistry:
    def test_list_metrics(self):
        assert list_metrics() == [
            "average_odds",
            "equal_opportunity",
            "predictive_parity",
            "statistical_parity",
        ]

    def test_get_metric_instances(self):
        assert isinstance(get_metric("statistical_parity"), StatisticalParity)
        assert isinstance(get_metric("equal_opportunity"), EqualOpportunity)
        assert isinstance(get_metric("predictive_parity"), PredictiveParity)

    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            get_metric("nope")


class TestOrientation:
    """Positive value = bias against the protected group, for every metric."""

    @pytest.mark.parametrize("name", ["statistical_parity", "equal_opportunity"])
    def test_biased_model_positive(self, biased_setup, name):
        model, ctx = biased_setup
        assert get_metric(name).value(model, ctx) > 0.1

    def test_statistical_parity_formula(self, biased_setup):
        model, ctx = biased_setup
        pred = model.predict(ctx.X)
        priv = ctx.privileged
        expected = pred[priv].mean() - pred[~priv].mean()
        assert get_metric("statistical_parity").value(model, ctx) == pytest.approx(expected)

    def test_equal_opportunity_formula(self, biased_setup):
        model, ctx = biased_setup
        pred = model.predict(ctx.X)
        qual = ctx.y == 1
        priv = ctx.privileged
        expected = pred[qual & priv].mean() - pred[qual & ~priv].mean()
        assert get_metric("equal_opportunity").value(model, ctx) == pytest.approx(expected)

    def test_predictive_parity_formula(self, biased_setup):
        model, ctx = biased_setup
        pred = model.predict(ctx.X)
        priv = ctx.privileged

        def ppv(mask):
            sel = mask & (pred == 1)
            return ctx.y[sel].mean()

        expected = ppv(priv) - ppv(~priv)
        assert get_metric("predictive_parity").value(model, ctx) == pytest.approx(
            expected, abs=1e-6
        )

    def test_flipped_favorable_label_flips_orientation(self, biased_setup):
        model, ctx = biased_setup
        flipped = FairnessContext(ctx.X, ctx.y, ctx.privileged, favorable_label=0)
        sp = get_metric("statistical_parity")
        assert sp.value(model, flipped) == pytest.approx(-sp.value(model, ctx))

    def test_fair_predictor_near_zero(self):
        rng = np.random.default_rng(1)
        n = 4000
        privileged = rng.random(n) < 0.5
        X = rng.normal(size=(n, 3))  # features independent of the group
        y = (X[:, 0] > 0).astype(np.int64)
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        ctx = FairnessContext(X, y, privileged)
        assert abs(get_metric("statistical_parity").value(model, ctx)) < 0.05


class TestAverageOdds:
    def test_biased_model_positive(self, biased_setup):
        model, ctx = biased_setup
        assert get_metric("average_odds").value(model, ctx) > 0.05

    def test_is_mean_of_tpr_and_fpr_gaps(self, biased_setup):
        model, ctx = biased_setup
        pred = model.predict(ctx.X)
        priv = ctx.privileged

        def gap(label):
            mask = ctx.y == label
            return pred[mask & priv].mean() - pred[mask & ~priv].mean()

        expected = 0.5 * (gap(1) + gap(0))
        assert get_metric("average_odds").value(model, ctx) == pytest.approx(expected)

    def test_undefined_when_group_empty_under_label(self, biased_setup):
        model, _ = biased_setup
        X = np.zeros((4, 3))
        y = np.array([1, 1, 0, 0])
        privileged = np.array([True, True, False, False])
        ctx = FairnessContext(X, y, privileged)
        with pytest.raises(ValueError, match="undefined"):
            get_metric("average_odds").value(model, ctx)

    def test_gradient_matches_finite_differences(self, biased_setup):
        model, ctx = biased_setup
        metric = get_metric("average_odds")
        theta = model.theta
        analytic = metric.grad_theta(model, ctx)
        eps = 1e-6
        numeric = np.zeros_like(theta)
        for k in range(len(theta)):
            step = np.zeros_like(theta)
            step[k] = eps
            numeric[k] = (
                metric.surrogate(model, ctx, theta + step)
                - metric.surrogate(model, ctx, theta - step)
            ) / (2 * eps)
        np.testing.assert_allclose(analytic, numeric, atol=1e-6, rtol=1e-4)


class TestEqualOpportunityEdgeCases:
    def test_undefined_without_favorable_rows(self, biased_setup):
        model, _ = biased_setup
        X = np.zeros((4, 3))
        y = np.array([1, 1, 0, 0])
        privileged = np.array([True, True, False, False])
        ctx = FairnessContext(X, y, privileged)  # protected group has no y=1
        with pytest.raises(ValueError, match="undefined"):
            get_metric("equal_opportunity").value(model, ctx)


class TestBatchSubclassFallback:
    """The batch paths must defer to a subclass's scalar overrides — a metric
    customizing value()/surrogate() may never get different numbers from
    value_batch()/surrogate_batch()."""

    def _thetas(self, model):
        assert model.theta is not None
        return np.stack([model.theta, model.theta * 0.9, model.theta * 1.1])

    def test_statistical_parity_value_override(self, biased_setup):
        model, ctx = biased_setup

        class Scaled(StatisticalParity):
            def value(self, model, ctx, theta=None):
                return 2.0 * super().value(model, ctx, theta)

        metric = Scaled()
        thetas = self._thetas(model)
        batch = metric.value_batch(model, ctx, thetas)
        scalar = [metric.value(model, ctx, t) for t in thetas]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0.0)

    def test_predictive_parity_surrogate_override(self, biased_setup):
        model, ctx = biased_setup

        class Shifted(PredictiveParity):
            def surrogate(self, model, ctx, theta=None):
                return super().surrogate(model, ctx, theta) + 1.0

        metric = Shifted()
        thetas = self._thetas(model)
        batch = metric.surrogate_batch(model, ctx, thetas)
        scalar = [metric.surrogate(model, ctx, t) for t in thetas]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0.0)

    def test_builtin_batch_stays_vectorized_and_equal(self, biased_setup):
        model, ctx = biased_setup
        thetas = self._thetas(model)
        for name in list_metrics():
            metric = get_metric(name)
            np.testing.assert_allclose(
                metric.value_batch(model, ctx, thetas),
                [metric.value(model, ctx, t) for t in thetas],
                atol=1e-12,
                rtol=0.0,
                err_msg=name,
            )
            np.testing.assert_allclose(
                metric.surrogate_batch(model, ctx, thetas),
                [metric.surrogate(model, ctx, t) for t in thetas],
                atol=1e-12,
                rtol=0.0,
                err_msg=name,
            )

    def test_difference_hook_override(self, biased_setup):
        """Overriding only the `_difference` reduction (the reviewer's
        AbsParity case) must also flow through the batch path."""
        model, ctx = biased_setup

        class AbsParity(StatisticalParity):
            def _difference(self, scores, ctx):
                return abs(super()._difference(scores, ctx))

        metric = AbsParity()
        assert model.theta is not None
        thetas = np.stack([model.theta, -model.theta])
        batch = metric.value_batch(model, ctx, thetas)
        scalar = [metric.value(model, ctx, t) for t in thetas]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0.0)
        assert (batch >= 0).all()

    def test_ppv_difference_hook_override(self, biased_setup):
        """Predictive parity's reduction is the same ``_difference`` hook.

        With the groups swapped the PPV gap is negative at both θ and −θ,
        so the override must act for the batch to come out non-negative.
        """
        model, ctx = biased_setup
        swapped = FairnessContext(ctx.X, ctx.y, ~ctx.privileged)

        class AbsPPV(PredictiveParity):
            def _difference(self, scores, ctx):
                return abs(super()._difference(scores, ctx))

        metric = AbsPPV()
        assert model.theta is not None
        thetas = np.stack([model.theta, -model.theta])
        assert (PredictiveParity().surrogate_batch(model, swapped, thetas) < 0).all()
        batch = metric.surrogate_batch(model, swapped, thetas)
        scalar = [metric.surrogate(model, swapped, t) for t in thetas]
        np.testing.assert_allclose(batch, scalar, atol=1e-12, rtol=0.0)
        assert (batch >= 0).all()

    def test_whole_matrix_reduction_is_rejected(self, biased_setup):
        """A ``_difference`` that collapses the (n, m) matrix to one number
        would broadcast it over every parameter vector; the batch paths
        raise instead."""
        model, ctx = biased_setup

        class Collapsing(StatisticalParity):
            def _difference(self, scores, ctx):
                return float(scores[ctx.privileged].mean() - scores[~ctx.privileged].mean())

        metric = Collapsing()
        thetas = self._thetas(model)
        assert np.isfinite(metric.value(model, ctx))  # (n,) -> () is fine
        for batch in (metric.value_batch, metric.surrogate_batch):
            with pytest.raises(ValueError, match=r"_difference must reduce along axis 0"):
                batch(model, ctx, thetas)

    def test_whole_matrix_gradient_is_rejected(self, biased_setup):
        """The mean-gap ``grad_theta`` reduces the (n, p) probability
        gradients through the same checked hook, so a collapsing
        ``_difference`` cannot pass off one number as ∇_θF."""
        model, ctx = biased_setup

        class Collapsing(StatisticalParity):
            def _difference(self, scores, ctx):
                return float(scores[ctx.privileged].mean() - scores[~ctx.privileged].mean())

        with pytest.raises(ValueError, match=r"Collapsing\._difference must reduce along axis 0"):
            Collapsing().grad_theta(model, ctx)
        assert StatisticalParity().grad_theta(model, ctx).shape == model.theta.shape
