"""ModelArtifacts: shared metric-independent caches across estimators."""

import numpy as np
import pytest

from repro.fairness import get_metric
from repro.influence import ModelArtifacts, make_estimator
from repro.influence.hessian import HessianSolver


@pytest.fixture()
def artifacts(lr_model, X_train, german_train):
    return ModelArtifacts(lr_model, X_train, german_train.labels)


class TestSharing:
    def test_estimators_share_solver_and_grads(
        self, artifacts, lr_model, X_train, german_train, test_ctx
    ):
        sp = make_estimator(
            "second_order", lr_model, X_train, german_train.labels,
            get_metric("statistical_parity"), test_ctx, artifacts=artifacts,
        )
        eo = make_estimator(
            "second_order", lr_model, X_train, german_train.labels,
            get_metric("equal_opportunity"), test_ctx, artifacts=artifacts,
        )
        fo = make_estimator(
            "first_order", lr_model, X_train, german_train.labels,
            get_metric("statistical_parity"), test_ctx, artifacts=artifacts,
        )
        assert sp.solver is eo.solver
        assert sp.solver is fo.solver  # same damping key -> same factorization
        assert sp.per_sample_grads is eo.per_sample_grads
        assert artifacts.stats["hessian_factorizations"] == 1
        assert artifacts.stats["per_sample_grad_builds"] == 1
        assert artifacts.stats["hessian_builds"] == 1

    def test_damping_keys_distinct_solvers(self, artifacts):
        a = artifacts.solver(0.0)
        b = artifacts.solver(1e-3)
        assert a is not b
        assert artifacts.solver(0.0) is a
        assert artifacts.stats["hessian_factorizations"] == 2

    def test_results_identical_to_private_bundle(
        self, artifacts, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        shared = make_estimator(
            "second_order", lr_model, X_train, german_train.labels,
            sp_metric, test_ctx, artifacts=artifacts,
        )
        private = make_estimator(
            "second_order", lr_model, X_train, german_train.labels,
            sp_metric, test_ctx,
        )
        rng = np.random.default_rng(3)
        subsets = [
            np.sort(rng.choice(len(X_train), size=size, replace=False))
            for size in (5, 20, 60)
        ]
        np.testing.assert_allclose(
            shared.bias_change_batch(subsets),
            private.bias_change_batch(subsets),
            atol=1e-12,
        )

    def test_hessian_factors_built_once(self, artifacts):
        first = artifacts.hessian_factors()
        second = artifacts.hessian_factors()
        assert first[0] is second[0] and first[1] is second[1]
        assert artifacts.stats["rank_one_factor_builds"] == 1

    def test_auto_learning_rate_matches_helper(self, artifacts):
        from repro.influence import auto_learning_rate

        assert artifacts.auto_learning_rate() == pytest.approx(
            auto_learning_rate(artifacts.hessian)
        )

    def test_solver_is_hessian_solver_over_training_hessian(self, artifacts, lr_model):
        solver = artifacts.solver(0.0)
        assert isinstance(solver, HessianSolver)
        np.testing.assert_allclose(
            solver.hessian,
            lr_model.hessian(artifacts.X_train, artifacts.y_train),
        )


class TestCompatibility:
    def test_unfitted_model_rejected(self, lr_model, X_train, german_train):
        clone = lr_model.clone()
        with pytest.raises(ValueError, match="fitted"):
            ModelArtifacts(clone, X_train, german_train.labels)

    def test_different_model_instance_rejected(
        self, artifacts, X_train, german_train, sp_metric, test_ctx
    ):
        other = artifacts.model.clone().fit(X_train, german_train.labels)
        with pytest.raises(ValueError, match="different model"):
            make_estimator(
                "first_order", other, X_train, german_train.labels,
                sp_metric, test_ctx, artifacts=artifacts,
            )

    def test_different_training_matrix_rejected(
        self, artifacts, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        X_other = X_train.copy()
        X_other[0, 0] += 1.0
        with pytest.raises(ValueError, match="different matrix|shape"):
            make_estimator(
                "first_order", lr_model, X_other, german_train.labels,
                sp_metric, test_ctx, artifacts=artifacts,
            )

    def test_refit_model_detected(self, X_train, german_train, sp_metric, test_ctx):
        from repro.models import LogisticRegression

        model = LogisticRegression(l2_reg=1e-3).fit(X_train, german_train.labels)
        artifacts = ModelArtifacts(model, X_train, german_train.labels)
        model.fit(X_train[:400], german_train.labels[:400])  # refit -> new theta
        with pytest.raises(ValueError, match="parameters changed"):
            make_estimator(
                "first_order", model, X_train[:400], german_train.labels[:400],
                sp_metric, test_ctx, artifacts=artifacts,
            )
