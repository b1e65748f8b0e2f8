"""The first-order linear column fold behind both mask entry points.

A boolean batch is packed at the door, so boolean and packed batches are
scored by one fold over L2-sized column blocks of training rows, cast
into one reused float64 buffer.  The suite pins its transient memory (no
whole-batch float cast), that the two entry points agree bit for bit
across block boundaries, that both stay within 1e-12 of the scalar loop,
and the empty batch.
"""

import tracemalloc

import numpy as np
import pytest

import repro.mining.bitset as bitset_mod
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.mining.bitset import pack_rows
from repro.models import LogisticRegression


def random_masks(num_train, count, seed, density=0.05):
    rng = np.random.default_rng(seed)
    return rng.random((count, num_train)) < density


@pytest.fixture(scope="module")
def odd_estimator(X_train, german_train, sp_metric, test_ctx):
    """First-order over 597 training rows: the last packed byte is partial."""
    n = 597
    model = LogisticRegression(l2_reg=1e-3).fit(X_train[:n], german_train.labels[:n])
    return make_estimator(
        "first_order", model, X_train[:n], german_train.labels[:n], sp_metric, test_ctx
    )


@pytest.fixture(scope="module")
def wide_estimator():
    """First-order over 20,000 synthetic rows, its point influences built."""
    rng = np.random.default_rng(0)
    n = 20_000
    X = rng.normal(size=(n, 4))
    privileged = rng.random(n) < 0.6
    y = (X[:, 0] + 0.8 * privileged + rng.normal(size=n) > 0).astype(np.int64)
    model = LogisticRegression(l2_reg=1e-3).fit(X, y)
    ctx = FairnessContext(
        X=X[:2000], y=y[:2000], privileged=privileged[:2000], favorable_label=1
    )
    return make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx
    ).warm()


def transient_peak(fn):
    """Bytes allocated by ``fn()`` at its peak, above what was live before."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class TestMemoryBound:
    """256 masks × 20,000 rows: a whole-batch float64 cast is 39 MiB."""

    @pytest.mark.parametrize("packed", [False, True], ids=["boolean", "packed"])
    def test_transient_peak_under_2_mib(self, wide_estimator, packed):
        n = wide_estimator.num_train
        masks = random_masks(n, 256, seed=1)
        if packed:
            batch, kwargs = pack_rows(masks), {"num_rows": n}
        else:
            batch, kwargs = masks, {}
        peak = transient_peak(lambda: wide_estimator.bias_change_batch(batch, **kwargs))
        assert peak <= 2 * 2**20, f"fold peaked at {peak / 2**20:.2f} MiB"


class TestBlockedFold:
    @pytest.mark.parametrize("m", [1, 3, 17, 40])
    def test_boolean_and_packed_bit_identical(self, odd_estimator, monkeypatch, m):
        """With a small buffer a batch spans several column blocks, the
        last one partial; both paths still run the same GEMV calls."""
        monkeypatch.setattr(bitset_mod, "_FOLD_BUFFER_BYTES", 4096)
        n = odd_estimator.num_train
        masks = random_masks(n, m, seed=m, density=0.3)
        boolean = odd_estimator.bias_change_batch(masks)
        packed = odd_estimator.bias_change_batch(pack_rows(masks), num_rows=n)
        np.testing.assert_array_equal(boolean, packed)
        loop = np.array([odd_estimator.bias_change(row) for row in masks])
        np.testing.assert_allclose(boolean, loop, atol=1e-12, rtol=0)
        np.testing.assert_allclose(packed, loop, atol=1e-12, rtol=0)

    def test_empty_boolean_batch(self, fo_estimator):
        empty = np.zeros((0, fo_estimator.num_train), dtype=bool)
        assert fo_estimator.bias_change_batch(empty).shape == (0,)
