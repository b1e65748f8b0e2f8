"""Estimator-equivalence suite: batched influence == the per-subset loop.

This is the safety net under the batched lattice search: for every
closed-form estimator × every evaluation mode, ``bias_change_batch`` /
``responsibility_batch`` / ``param_change_batch`` must reproduce the
corresponding per-subset queries to 1e-10 on random subsets of the seeded
synthetic data, including the edge batches (empty batch, single subset,
subset = all-but-one row).  Any vectorization rewrite that drifts from the
scalar semantics fails here first.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.influence import make_estimator
from repro.models import LinearSVM, NeuralNetwork

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
        loop = np.array([est.bias_change(s) for s in random_subsets])
        batch = est.bias_change_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_responsibility(self, config, evaluation, get_estimator, random_subsets):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        loop = np.array([est.responsibility(s) for s in random_subsets])
        batch = est.responsibility_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

    def test_param_change(self, config, evaluation, get_estimator, random_subsets):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        loop = np.stack([est.param_change(s) for s in random_subsets])
        batch = est.param_change_batch(random_subsets)
        np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)

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
        assert batch[0] == pytest.approx(est.bias_change(subset), abs=ATOL)

    def test_all_but_one_row(self, config, evaluation, get_estimator):
        name, kwargs = config
        est = get_estimator(name, kwargs, evaluation)
        subset = np.arange(est.num_train - 1)
        batch = est.bias_change_batch([subset])
        assert batch[0] == pytest.approx(est.bias_change(subset), abs=ATOL)


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

    def test_finite_difference_mode_has_no_factors(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(
            hidden_units=3, l2_reg=1e-3, seed=0, max_iter=50, hessian_mode="exact_fd"
        ).fit(X, y)
        with pytest.raises(NotImplementedError):
            model.hessian_factors(X, y)
