"""Packed-mask fast path of the batched influence API.

A packed batch — (m, ceil(n/8)) uint8 rows plus ``num_rows`` — must give
bit-identical answers to the boolean mask matrix it encodes, for every
estimator and batch entry point, including batches larger than the
internal unpack chunk (so the streaming path is actually exercised).
"""

import numpy as np
import pytest

from repro.influence import make_estimator
from repro.influence.estimators import _PACKED_CHUNK
from repro.mining.bitset import pack_rows
from repro.models import LogisticRegression
from repro.utils.rng import ensure_rng

ESTIMATOR_SETUPS = [
    ("first_order", {"evaluation": "linear"}),
    ("first_order", {"evaluation": "smooth"}),
    ("second_order", {"variant": "series", "evaluation": "smooth"}),
    ("second_order", {"variant": "exact", "evaluation": "smooth"}),
    ("one_step_gd", {"evaluation": "hard"}),
]


def random_mask_matrix(num_train, count, seed=0):
    rng = ensure_rng(seed)
    masks = np.zeros((count, num_train), dtype=bool)
    for j in range(count):
        size = int(rng.integers(5, max(6, num_train // 8)))
        masks[j, rng.choice(num_train, size=size, replace=False)] = True
    return masks


@pytest.fixture(scope="module", params=ESTIMATOR_SETUPS, ids=lambda s: f"{s[0]}-{list(s[1].values())[-1]}")
def estimator(request, lr_model, X_train, german_train, sp_metric, test_ctx):
    name, kwargs = request.param
    return make_estimator(
        name, lr_model, X_train, german_train.labels, sp_metric, test_ctx, **kwargs
    )


class TestPackedEqualsBoolean:
    def test_bias_change_batch(self, estimator):
        masks = random_mask_matrix(estimator.num_train, 40, seed=1)
        expected = estimator.bias_change_batch(masks)
        packed = estimator.bias_change_batch(pack_rows(masks), num_rows=estimator.num_train)
        np.testing.assert_allclose(packed, expected, atol=1e-12, rtol=0)

    def test_param_change_batch(self, estimator):
        masks = random_mask_matrix(estimator.num_train, 17, seed=2)
        expected = estimator.param_change_batch(masks)
        packed = estimator.param_change_batch(pack_rows(masks), num_rows=estimator.num_train)
        np.testing.assert_allclose(packed, expected, atol=1e-12, rtol=0)

    def test_responsibility_batch(self, estimator):
        masks = random_mask_matrix(estimator.num_train, 23, seed=3)
        expected = estimator.responsibility_batch(masks)
        packed = estimator.responsibility_batch(
            pack_rows(masks), num_rows=estimator.num_train
        )
        np.testing.assert_allclose(packed, expected, atol=1e-12, rtol=0)


class TestStreamingChunks:
    # First-order linear scores ΔF by folding byte columns; every other
    # packed path unpacks _PACKED_CHUNK subsets at a time and crosses a chunk.
    @pytest.mark.parametrize(
        "setup", [ESTIMATOR_SETUPS[0], ESTIMATOR_SETUPS[2], ESTIMATOR_SETUPS[3]],
        ids=["first_order-linear", "series-smooth", "exact-smooth"],
    )
    def test_batch_larger_than_unpack_chunk(
        self, setup, lr_model, X_train, german_train, sp_metric, test_ctx
    ):
        name, kwargs = setup
        estimator = make_estimator(
            name, lr_model, X_train, german_train.labels, sp_metric, test_ctx, **kwargs
        )
        count = _PACKED_CHUNK + 37  # force at least two unpack chunks
        masks = random_mask_matrix(estimator.num_train, count, seed=4)
        packed = pack_rows(masks)
        n = estimator.num_train
        bias = estimator.bias_change_batch(packed, num_rows=n)
        assert bias.shape == (count,)
        np.testing.assert_allclose(
            bias, estimator.bias_change_batch(masks), atol=1e-12, rtol=0
        )
        np.testing.assert_allclose(
            estimator.param_change_batch(packed, num_rows=n),
            estimator.param_change_batch(masks),
            atol=1e-12,
            rtol=0,
        )

    def test_empty_packed_batch(self, fo_estimator):
        packed = np.zeros((0, (fo_estimator.num_train + 7) // 8), dtype=np.uint8)
        assert fo_estimator.bias_change_batch(packed, num_rows=fo_estimator.num_train).shape == (0,)
        assert fo_estimator.param_change_batch(
            packed, num_rows=fo_estimator.num_train
        ).shape == (0, fo_estimator.model.num_params)


class TestPackedValidation:
    def test_wrong_num_rows_rejected(self, fo_estimator):
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=5)
        with pytest.raises(ValueError, match="cover"):
            fo_estimator.bias_change_batch(pack_rows(masks), num_rows=fo_estimator.num_train + 1)

    def test_bool_matrix_with_num_rows_rejected(self, fo_estimator):
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=6)
        with pytest.raises(ValueError, match="packed batch"):
            fo_estimator.bias_change_batch(masks, num_rows=fo_estimator.num_train)

    def test_wrong_byte_width_rejected(self, fo_estimator):
        packed = np.zeros((3, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="byte columns"):
            fo_estimator.bias_change_batch(packed, num_rows=fo_estimator.num_train)

    def test_uint8_without_num_rows_still_rejected(self, fo_estimator):
        """The pre-existing guard: a bare 2-D uint8 matrix is ambiguous and
        must not be silently read as packed (or as masks)."""
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=7)
        with pytest.raises(ValueError, match="boolean mask"):
            fo_estimator.bias_change_batch(pack_rows(masks))

    def test_full_row_rejected(self, fo_estimator):
        full = np.ones((1, fo_estimator.num_train), dtype=bool)
        with pytest.raises(ValueError, match="entire training set"):
            fo_estimator.bias_change_batch(pack_rows(full), num_rows=fo_estimator.num_train)


class TestPaddingBits:
    """Bits past row n in a packed row's last byte are refused by name.

    Every scorer ignores them, while first-order's whole-training-set guard
    counted them: a mask removing 149 of 150 rows with its two padding
    bits set was refused as the entire training set by first-order and
    scored by series.
    """

    @pytest.mark.parametrize(
        "setup", [ESTIMATOR_SETUPS[0], ESTIMATOR_SETUPS[2], ESTIMATOR_SETUPS[3]],
        ids=["first_order-linear", "series-smooth", "exact-smooth"],
    )
    def test_padding_bits_rejected(self, setup, X_train, german_train, sp_metric, test_ctx):
        n = 150  # 19 bytes: the last one holds rows 144..149 and 2 padding bits
        name, kwargs = setup
        X, y = X_train[:n], german_train.labels[:n]
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        estimator = make_estimator(name, model, X, y, sp_metric, test_ctx, **kwargs)
        masks = np.zeros((2, n), dtype=bool)
        masks[0, 3:9] = True
        masks[1, 1:] = True
        packed = pack_rows(masks)
        assert estimator.bias_change_batch(packed, num_rows=n).shape == (2,)
        for row in range(2):
            padded = packed.copy()
            padded[row, -1] |= 0b11
            with pytest.raises(ValueError, match="num_rows=150"):
                estimator.bias_change_batch(padded, num_rows=n)
