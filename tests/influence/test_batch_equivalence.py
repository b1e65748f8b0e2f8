"""Estimator-equivalence suite: batched influence == the per-subset forms.

This is the safety net under the batched lattice search: for every
closed-form estimator × every evaluation mode, ``bias_change_batch`` /
``responsibility_batch`` / ``param_change_batch`` must reproduce the
per-subset closed forms of ``oracles.influence_loop`` to 1e-10 on random
subsets of the seeded synthetic data, including the edge batches (empty
batch, single subset, subset = all-but-one row).  The scalar queries are
batches of one, so they must equal the batch of one bit for bit.  Any
vectorization rewrite that drifts from the per-subset semantics fails
here first.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.influence_loop import LoopEstimator

from repro.bench.workloads import MODELS
from repro.influence import make_estimator
from repro.influence.artifacts import ModelArtifacts, NegativeCurvatureError
from repro.models import LinearSVM, LogisticRegression, NeuralNetwork

ATOL = 1e-10

# (estimator name, constructor kwargs) — every closed-form family, with both
# second-order variants: "series" takes the fully-batched GEMM path, "exact"
# the per-subset reduced-matrix kernel (its dedicated suite is
# test_exact_batch_equivalence.py; here it rides the shared contract).
ESTIMATOR_CONFIGS = [
    pytest.param(("first_order", {}), id="first_order"),
    pytest.param(("second_order", {"variant": "exact"}), id="second_order-exact"),
    pytest.param(("second_order", {"variant": "series"}), id="second_order-series"),
    pytest.param(("one_step_gd", {}), id="one_step_gd"),
]
EVALUATIONS = ["linear", "smooth", "hard"]


@pytest.fixture(scope="module")
def get_estimator(lr_model, X_train, german_train, sp_metric, test_ctx):
    """Cached factory over (name, kwargs, evaluation) combinations."""
    cache: dict[tuple, object] = {}

    def build(name: str, kwargs: dict, evaluation: str):
        key = (name, tuple(sorted(kwargs.items())), evaluation)
        if key not in cache:
            cache[key] = make_estimator(
                name,
                lr_model,
                X_train,
                german_train.labels,
                sp_metric,
                test_ctx,
                evaluation=evaluation,
                **kwargs,
            )
        return cache[key]

    return build


@pytest.fixture(scope="module")
def random_subsets(X_train):
    """Random subsets of the synthetic training data, varied in size."""
    rng = np.random.default_rng(7)
    n = len(X_train)
    subsets = [
        np.sort(rng.choice(n, size=int(size), replace=False))
        for size in rng.integers(1, max(2, n // 4), size=24)
    ]
    subsets.append(np.array([int(rng.integers(n))]))  # singleton subset
    subsets.append(np.arange(n - 1))  # all-but-one row
    return subsets


def _mask_matrix(subsets, n):
    masks = np.zeros((len(subsets), n), dtype=bool)
    for j, idx in enumerate(subsets):
        masks[j, idx] = True
    return masks


@pytest.mark.parametrize("config", ESTIMATOR_CONFIGS)
@pytest.mark.parametrize("evaluation", EVALUATIONS)
class TestBatchMatchesLoop:
    def test_bias_change(self, config, evaluation, get_estimator, random_subsets):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        oracle = LoopEstimator(est)
        loop = np.array([oracle.bias_change(s) for s in random_subsets])
        assert oracle.scalar_calls == len(random_subsets)
        batch = est.bias_change_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_responsibility(self, config, evaluation, get_estimator, random_subsets):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        oracle = LoopEstimator(est)
        loop = np.array([oracle.responsibility(s) for s in random_subsets])
        assert oracle.scalar_calls == len(random_subsets)
        batch = est.responsibility_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_param_change(self, config, evaluation, get_estimator, random_subsets):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        oracle = LoopEstimator(est)
        loop = np.stack([oracle.param_change(s) for s in random_subsets])
        assert oracle.scalar_calls == len(random_subsets)
        batch = est.param_change_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_scalar_queries_are_batches_of_one(
        self, config, evaluation, get_estimator, random_subsets
    ):
        """``param_change``, ``bias_change`` and ``responsibility`` run the
        index form's batch of one, so they equal it bit for bit."""
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        n = est.num_train
        for s in random_subsets[:6] + random_subsets[-2:]:
            assert np.array_equal(est.param_change(s), est.param_change_batch([s], num_rows=n)[0])
            assert est.bias_change(s) == est.bias_change_batch([s], num_rows=n)[0]
            assert est.responsibility(s) == est.responsibility_batch([s], num_rows=n)[0]

    def test_mask_matrix_input_equals_index_lists(
        self, config, evaluation, get_estimator, random_subsets
    ):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        masks = _mask_matrix(random_subsets, est.num_train)
        np.testing.assert_allclose(
            est.bias_change_batch(masks),
            est.bias_change_batch(random_subsets),
            atol=ATOL,
            rtol=0.0,
        )


@pytest.mark.parametrize("config", ESTIMATOR_CONFIGS)
@pytest.mark.parametrize("evaluation", EVALUATIONS)
class TestEdgeBatches:
    def test_empty_batch(self, config, evaluation, get_estimator):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        assert est.bias_change_batch([]).shape == (0,)
        assert est.responsibility_batch([]).shape == (0,)
        assert est.param_change_batch([]).shape == (0, est.model.num_params)

    def test_single_subset_batch(self, config, evaluation, get_estimator):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        subset = np.arange(5)
        batch = est.bias_change_batch([subset])
        assert batch.shape == (1,)
        assert batch[0] == pytest.approx(LoopEstimator(est).bias_change(subset), abs=ATOL)

    def test_all_but_one_row(self, config, evaluation, get_estimator):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        subset = np.arange(est.num_train - 1)
        batch = est.bias_change_batch([subset])
        assert batch[0] == pytest.approx(LoopEstimator(est).bias_change(subset), abs=ATOL)


class TestBatchValidation:
    def test_full_mask_row_rejected(self, fo_estimator):
        masks = np.zeros((2, fo_estimator.num_train), dtype=bool)
        masks[1] = True
        with pytest.raises(ValueError, match="entire training set"):
            fo_estimator.bias_change_batch(masks)

    def test_wrong_mask_width_rejected(self, fo_estimator):
        masks = np.zeros((2, fo_estimator.num_train + 1), dtype=bool)
        with pytest.raises(ValueError, match="columns"):
            fo_estimator.bias_change_batch(masks)

    def test_out_of_range_indices_rejected(self, fo_estimator):
        with pytest.raises(IndexError):
            fo_estimator.bias_change_batch([np.array([fo_estimator.num_train])])

    def test_bare_index_array_rejected(self, fo_estimator):
        """A 1-D index array must not silently become m singleton subsets."""
        with pytest.raises(ValueError, match="wrap a single subset"):
            fo_estimator.bias_change_batch(np.array([3, 5, 7]))

    def test_flat_int_list_rejected(self, fo_estimator):
        """Same hazard as the bare array, via a plain Python list of ints."""
        with pytest.raises(ValueError, match="wrap a single subset"):
            fo_estimator.bias_change_batch([3, 5, 7])

    def test_integer_mask_matrix_rejected(self, fo_estimator):
        """A 0/1 int matrix must not be silently read as per-row index lists."""
        masks = np.zeros((2, fo_estimator.num_train), dtype=np.int64)
        masks[:, :5] = 1
        with pytest.raises(ValueError, match="boolean mask"):
            fo_estimator.bias_change_batch(masks)

    def test_duplicate_indices_rejected(self, fo_estimator):
        """Duplicates would double-count in the scalar sum but collapse in the
        mask representation — both APIs refuse them."""
        with pytest.raises(ValueError, match="duplicates"):
            fo_estimator.bias_change(np.array([3, 3]))
        with pytest.raises(ValueError, match="duplicates"):
            fo_estimator.bias_change_batch([np.array([3, 3])])


class TestHessianFactors:
    """The rank-one factor hook must reconstruct ``model.hessian`` exactly —
    it is what lets batched second-order influence skip per-subset (p, p)
    Hessian builds."""

    def _check(self, model, X, y, subset):
        phi, weights, ridge = model.hessian_factors(X, y)
        sub = subset
        expected = model.hessian(X[sub], y[sub])
        rebuilt = (phi[sub] * weights[sub, None]).T @ phi[sub] / len(sub)
        rebuilt += ridge * np.eye(model.num_params)
        np.testing.assert_allclose(rebuilt, expected, atol=1e-10, rtol=0.0)

    def test_logistic_regression(self, lr_model, X_train, german_train):
        self._check(lr_model, X_train, german_train.labels, np.arange(40))

    def test_linear_svm(self, tiny_xy):
        X, y = tiny_xy
        model = LinearSVM(l2_reg=1e-2).fit(X, y)
        self._check(model, X, y, np.arange(60))

    def test_neural_network_gauss_newton(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=4, l2_reg=1e-3, seed=0, max_iter=150).fit(X, y)
        self._check(model, X, y, np.arange(60))

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_weights_are_non_negative(self, name, tiny_xy):
        """The curvature contract: every workload model's factors carry
        w_i ≥ 0, so the exact variant's downdate rows √w_i φ_i exist."""
        X, y = tiny_xy
        model = MODELS[name]().fit(X, y)
        phi, weights, ridge = model.hessian_factors(X, y)
        assert phi.shape == (len(X), model.num_params) and weights.shape == (len(X),)
        assert weights.min() >= 0.0 and ridge >= 0.0

    def test_negative_weight_raises_the_named_error(self, tiny_xy):
        """Factors that break the contract stop the exact downdate with a
        named error instead of switching to another path."""
        X, y = tiny_xy

        class NegativeCurvatureLR(LogisticRegression):
            def hessian_factors(self, X, y, theta=None):
                phi, weights, ridge = super().hessian_factors(X, y, theta)
                weights = weights.copy()
                weights[3] = -0.25
                return phi, weights, ridge

        model = NegativeCurvatureLR(l2_reg=1e-2).fit(X, y)
        artifacts = ModelArtifacts(model, X, y)
        with pytest.raises(NegativeCurvatureError, match="row 3 the weight -0.25"):
            artifacts.curvature_rows()
        assert artifacts.stats["curvature_row_builds"] == 0
