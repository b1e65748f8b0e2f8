"""Index-streamed batches of the influence API.

With ``num_rows``, the batch entry points accept a sequence of per-subset
index arrays — the miner's compressed sparse tidlists — and must answer
identically (to 1e-10) to the boolean mask matrix encoding the same
subsets, for every estimator family and entry point.  The suite also pins
the first-order linear gather fast path, the column-blocked fold of the
packed path, and the validation
errors that keep malformed batches from silently scoring wrong subsets.
"""

import numpy as np
import pytest

import repro.influence.first_order as first_order_mod
from repro.influence import make_estimator
from repro.mining.bitset import pack_rows
from repro.utils.rng import ensure_rng

ESTIMATOR_SETUPS = [
    ("first_order", {"evaluation": "linear"}),
    ("first_order", {"evaluation": "smooth"}),
    ("second_order", {"variant": "series", "evaluation": "smooth"}),
    ("second_order", {"variant": "exact", "evaluation": "linear"}),
    ("one_step_gd", {"evaluation": "hard"}),
]


def random_subsets(num_train, count, seed=0, max_size=40):
    rng = ensure_rng(seed)
    subsets = []
    for _ in range(count):
        size = int(rng.integers(3, max_size))
        subsets.append(np.sort(rng.choice(num_train, size=size, replace=False)))
    return subsets


def to_masks(subsets, num_train):
    masks = np.zeros((len(subsets), num_train), dtype=bool)
    for j, idx in enumerate(subsets):
        masks[j, idx] = True
    return masks


@pytest.fixture(
    scope="module",
    params=ESTIMATOR_SETUPS,
    ids=lambda s: f"{s[0]}-{list(s[1].values())[-1]}",
)
def estimator(request, lr_model, X_train, german_train, sp_metric, test_ctx):
    name, kwargs = request.param
    return make_estimator(
        name, lr_model, X_train, german_train.labels, sp_metric, test_ctx, **kwargs
    )


class TestIndexEqualsMask:
    def test_bias_change_batch(self, estimator):
        subsets = random_subsets(estimator.num_train, 30, seed=1)
        expected = estimator.bias_change_batch(to_masks(subsets, estimator.num_train))
        got = estimator.bias_change_batch(subsets, num_rows=estimator.num_train)
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_param_change_batch(self, estimator):
        subsets = random_subsets(estimator.num_train, 12, seed=2)
        expected = estimator.param_change_batch(to_masks(subsets, estimator.num_train))
        got = estimator.param_change_batch(subsets, num_rows=estimator.num_train)
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_responsibility_batch(self, estimator):
        subsets = random_subsets(estimator.num_train, 18, seed=3)
        expected = estimator.responsibility_batch(to_masks(subsets, estimator.num_train))
        got = estimator.responsibility_batch(subsets, num_rows=estimator.num_train)
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_int32_indices_accepted(self, fo_estimator):
        """The miner's sparse tidlists are int32 below 2^31 rows."""
        subsets = [idx.astype(np.int32) for idx in random_subsets(fo_estimator.num_train, 8, seed=4)]
        expected = fo_estimator.bias_change_batch(to_masks(subsets, fo_estimator.num_train))
        got = fo_estimator.bias_change_batch(subsets, num_rows=fo_estimator.num_train)
        np.testing.assert_allclose(got, expected, atol=1e-10, rtol=0)

    def test_mixed_with_scalar_loop(self, estimator):
        subsets = random_subsets(estimator.num_train, 6, seed=5)
        got = estimator.bias_change_batch(subsets, num_rows=estimator.num_train)
        loop = np.array([estimator.bias_change(idx) for idx in subsets])
        np.testing.assert_allclose(got, loop, atol=1e-10, rtol=0)


class TestBlockedPackedGemm:
    """The linear packed path's column-blocked fold, with a tiny buffer."""

    def test_blocked_equals_unblocked(self, fo_estimator, monkeypatch):
        subsets = random_subsets(fo_estimator.num_train, 20, seed=6)
        masks = to_masks(subsets, fo_estimator.num_train)
        # The boolean masks take the fold at its full buffer for the reference…
        expected = fo_estimator.bias_change_batch(masks)
        # …and the packed masks a tiny buffer, split into many column blocks.
        monkeypatch.setattr(first_order_mod, "_FOLD_BUFFER_BYTES", 512)
        blocked = fo_estimator.bias_change_batch(
            pack_rows(masks), num_rows=fo_estimator.num_train
        )
        np.testing.assert_allclose(blocked, expected, atol=1e-12, rtol=0)

    def test_blocked_entire_train_set_guard(self, fo_estimator):
        full = pack_rows(np.ones((1, fo_estimator.num_train), dtype=bool))
        with pytest.raises(ValueError, match="entire training set"):
            fo_estimator.bias_change_batch(full, num_rows=fo_estimator.num_train)

    def test_blocked_empty_batch(self, fo_estimator):
        empty = np.zeros((0, (fo_estimator.num_train + 7) // 8), dtype=np.uint8)
        assert fo_estimator.bias_change_batch(empty, num_rows=fo_estimator.num_train).shape == (0,)


class TestValidation:
    def test_wrong_num_rows_rejected(self, fo_estimator):
        subsets = random_subsets(fo_estimator.num_train, 3, seed=7)
        with pytest.raises(ValueError, match="rows"):
            fo_estimator.bias_change_batch(subsets, num_rows=fo_estimator.num_train + 1)

    def test_out_of_range_indices_rejected(self, fo_estimator):
        bad = [np.array([0, fo_estimator.num_train], dtype=np.int64)]
        with pytest.raises(IndexError):
            fo_estimator.bias_change_batch(bad, num_rows=fo_estimator.num_train)

    def test_duplicate_indices_rejected(self, fo_estimator):
        bad = [np.array([3, 3, 5], dtype=np.int64)]
        with pytest.raises(ValueError, match="duplicates"):
            fo_estimator.bias_change_batch(bad, num_rows=fo_estimator.num_train)

    def test_entire_training_set_rejected(self, fo_estimator):
        full = [np.arange(fo_estimator.num_train, dtype=np.int64)]
        with pytest.raises(ValueError, match="entire training set"):
            fo_estimator.bias_change_batch(full, num_rows=fo_estimator.num_train)

    def test_empty_sequence_with_num_rows_rejected(self, fo_estimator):
        """An empty list under num_rows keeps the historical packed error
        rather than silently scoring nothing."""
        with pytest.raises(ValueError):
            fo_estimator.bias_change_batch([], num_rows=fo_estimator.num_train)

    def test_float_subsets_with_num_rows_rejected(self, fo_estimator):
        with pytest.raises(ValueError, match="packed"):
            fo_estimator.bias_change_batch(
                [np.array([0.5, 1.5])], num_rows=fo_estimator.num_train
            )

    def test_without_num_rows_index_sequences_still_work(self, fo_estimator):
        """The pre-existing mask-scatter path is untouched."""
        subsets = random_subsets(fo_estimator.num_train, 5, seed=8)
        a = fo_estimator.bias_change_batch(subsets)
        b = fo_estimator.bias_change_batch(subsets, num_rows=fo_estimator.num_train)
        np.testing.assert_allclose(a, b, atol=1e-10, rtol=0)
