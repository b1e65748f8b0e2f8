"""Property-based tests for influence estimators on a fixed pipeline.

The model/context come from the session fixtures; hypothesis drives the
*subsets*, checking structural invariants that must hold for any subset.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st


def subset_strategy(n):
    return st.lists(
        st.integers(min_value=0, max_value=n - 1),
        min_size=1, max_size=60, unique=True,
    ).map(lambda lst: np.asarray(sorted(lst), dtype=np.int64))


class TestFirstOrderProperties:
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_additivity_over_disjoint_subsets(self, data, fo_estimator):
        n = fo_estimator.num_train
        idx = data.draw(subset_strategy(n))
        half = len(idx) // 2
        if half == 0 or half == len(idx):
            return
        a, b = idx[:half], idx[half:]
        total = fo_estimator.bias_change(idx)
        assert abs(total - fo_estimator.bias_change(a) - fo_estimator.bias_change(b)) < 1e-10

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_param_change_scales_with_gradient_sum(self, data, fo_estimator):
        n = fo_estimator.num_train
        idx = data.draw(subset_strategy(n))
        delta = fo_estimator.param_change(idx)
        g_s = fo_estimator.subset_grad_sum(idx)
        # H Δθ n = g_S exactly, by construction.
        solver = fo_estimator.solver
        np.testing.assert_allclose(
            (solver.hessian @ delta + solver.damping_used * delta) * n, g_s, atol=1e-6
        )

    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_order_independence(self, data, fo_estimator):
        n = fo_estimator.num_train
        idx = data.draw(subset_strategy(n))
        shuffled = idx.copy()
        np.random.default_rng(0).shuffle(shuffled)
        assert fo_estimator.bias_change(idx) == pytest.approx(
            fo_estimator.bias_change(shuffled), rel=1e-12, abs=1e-15
        )


def subset_batch_strategy(n):
    return st.lists(subset_strategy(n), min_size=1, max_size=6)


class TestBatchProperties:
    """Structural invariants of the batched influence API.

    Each batch row is an independent subset query, so the results must be
    permutation-equivariant (shuffling batch rows shuffles the outputs) and
    duplication-consistent (a subset appearing twice yields the same output
    twice) — for both the fully-vectorized first-order path and the
    second-order multi-RHS path.
    """

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_permutation_equivariance_first_order(self, data, fo_estimator):
        self._check_permutation(data, fo_estimator)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_permutation_equivariance_second_order(self, data, so_estimator):
        self._check_permutation(data, so_estimator)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_duplicate_subset_duplicates_output_first_order(self, data, fo_estimator):
        self._check_duplicates(data, fo_estimator)

    @given(data=st.data())
    @settings(max_examples=10, deadline=None)
    def test_duplicate_subset_duplicates_output_second_order(self, data, so_estimator):
        self._check_duplicates(data, so_estimator)

    @staticmethod
    def _check_permutation(data, estimator):
        n = estimator.num_train
        subsets = data.draw(subset_batch_strategy(n))
        perm = data.draw(st.permutations(range(len(subsets))))
        base = estimator.bias_change_batch(subsets)
        shuffled = estimator.bias_change_batch([subsets[i] for i in perm])
        np.testing.assert_allclose(shuffled, base[list(perm)], atol=1e-12, rtol=0.0)
        resp = estimator.responsibility_batch(subsets)
        resp_shuffled = estimator.responsibility_batch([subsets[i] for i in perm])
        np.testing.assert_allclose(resp_shuffled, resp[list(perm)], atol=1e-12, rtol=0.0)

    @staticmethod
    def _check_duplicates(data, estimator):
        n = estimator.num_train
        subsets = data.draw(subset_batch_strategy(n))
        dup_at = data.draw(st.integers(min_value=0, max_value=len(subsets) - 1))
        batch = estimator.bias_change_batch(subsets + [subsets[dup_at]])
        np.testing.assert_allclose(batch[-1], batch[dup_at], atol=1e-12, rtol=0.0)
        params = estimator.param_change_batch(subsets + [subsets[dup_at]])
        np.testing.assert_allclose(params[-1], params[dup_at], atol=1e-12, rtol=0.0)


class TestSecondOrderProperties:
    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_finite_and_bounded(self, data, so_estimator):
        n = so_estimator.num_train
        idx = data.draw(subset_strategy(n))
        delta = so_estimator.param_change(idx)
        assert np.isfinite(delta).all()
        assert np.linalg.norm(delta) < 10.0

    @given(data=st.data())
    @settings(max_examples=15, deadline=None)
    def test_responsibility_definition(self, data, so_estimator):
        n = so_estimator.num_train
        idx = data.draw(subset_strategy(n))
        resp = so_estimator.responsibility(idx)
        dbias = so_estimator.bias_change(idx)
        assert resp == -dbias / so_estimator.original_surrogate
