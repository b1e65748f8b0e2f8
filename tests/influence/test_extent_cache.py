"""The Δθ extent cache's contract (``ModelArtifacts.cached_param_changes``).

Each estimator spec keeps one row store keyed by packed extent bytes.  A
distinct extent is computed once, on its first occurrence in batch order,
whatever batch it arrives in and however it is represented; specs never
share rows; every returned array belongs to its caller; a failed compute
caches nothing; and an edit empties the cache.
"""

import numpy as np
import pytest

from repro.influence import make_estimator
from repro.influence.artifacts import ModelArtifacts
from repro.mining.bitset import pack_rows, unpack_rows

SPEC = ("gradient_sums",)


@pytest.fixture()
def artifacts(lr_model, X_train, german_train):
    return ModelArtifacts(lr_model, X_train, german_train.labels).enable_extent_caching()


def _masks(num_rows: int, count: int, seed: int = 0) -> np.ndarray:
    """Packed rows of ``count`` random extents: the form the cache keys."""
    return pack_rows(np.random.default_rng(seed).random((count, num_rows)) < 0.1)


def _counts(artifacts) -> tuple[int, int]:
    stats = artifacts.stats
    return stats["param_change_cache_hits"], stats["param_change_cache_misses"]


class Spy:
    """The g_S GEMM as the cache's kernel, recording what it was handed and returned."""

    def __init__(self, artifacts):
        self.artifacts = artifacts
        self.masks: list[np.ndarray] = []
        self.rows: list[np.ndarray] = []

    def __call__(self, masks):
        self.masks.append(np.array(masks))
        self.rows.append(self.artifacts.gradient_sums(masks))
        return self.rows[-1].copy()


def _estimator(name, artifacts, lr_model, X_train, german_train, sp_metric, test_ctx):
    return make_estimator(
        name, lr_model, X_train, german_train.labels, sp_metric, test_ctx, artifacts=artifacts
    )


def test_a_duplicate_in_one_batch_is_computed_once(artifacts):
    masks = _masks(artifacts.num_train, 4)
    order = [0, 1, 0, 2, 1, 3]
    spy = Spy(artifacts)
    out = artifacts.cached_param_changes(SPEC, masks[order], spy)
    (handed,) = spy.masks
    np.testing.assert_array_equal(handed, masks)  # first occurrences, in batch order
    np.testing.assert_array_equal(out, spy.rows[0][order])
    assert _counts(artifacts) == (2, 4)


def test_a_later_batch_hits(artifacts):
    masks = _masks(artifacts.num_train, 6)
    spy = Spy(artifacts)
    first = artifacts.cached_param_changes(SPEC, masks[:4], spy)
    second = artifacts.cached_param_changes(SPEC, masks[2:], spy)
    np.testing.assert_array_equal(spy.masks[1], masks[4:])  # only the novel extents
    np.testing.assert_array_equal(second[:2], first[2:])
    assert _counts(artifacts) == (2, 6)
    third = artifacts.cached_param_changes(SPEC, masks[::-1], spy)
    assert len(spy.masks) == 2
    np.testing.assert_array_equal(third, np.concatenate([first, second[2:]])[::-1])
    assert _counts(artifacts) == (8, 6)


def test_exact_and_series_never_share_rows(
    artifacts, lr_model, X_train, german_train, sp_metric, test_ctx
):
    masks = _masks(artifacts.num_train, 5)
    args = (artifacts, lr_model, X_train, german_train, sp_metric, test_ctx)
    exact, series = (_estimator(name, *args) for name in ("exact", "series"))
    n = artifacts.num_train
    exact_rows = exact.param_change_batch(masks, num_rows=n)
    series_rows = series.param_change_batch(masks, num_rows=n)
    assert _counts(artifacts) == (0, 10)
    assert not np.allclose(exact_rows, series_rows)
    np.testing.assert_array_equal(series.param_change_batch(masks, num_rows=n), series_rows)
    np.testing.assert_array_equal(exact.param_change_batch(masks, num_rows=n), exact_rows)
    assert _counts(artifacts) == (10, 10)


@pytest.mark.parametrize("cached", [0, 2], ids=["all-new", "mixed"])
def test_a_mutated_result_leaves_later_hits_intact(artifacts, cached):
    masks = _masks(artifacts.num_train, 4)
    spy = Spy(artifacts)
    if cached:
        artifacts.cached_param_changes(SPEC, masks[:cached], spy)
    out = artifacts.cached_param_changes(SPEC, masks, spy)
    expected = out.copy()
    out[:] = np.nan
    again = artifacts.cached_param_changes(SPEC, masks, spy)
    np.testing.assert_array_equal(again, expected)
    again[:] = 0.0
    np.testing.assert_array_equal(artifacts.cached_param_changes(SPEC, masks, spy), expected)
    np.testing.assert_array_equal(np.concatenate(spy.rows), expected)  # never recomputed


def test_masks_and_packed_rows_count_alike(lr_model, X_train, german_train, sp_metric, test_ctx):
    n = len(X_train)
    masks = _masks(n, 6)[[0, 1, 2, 0, 3, 4, 5, 1]]
    counts, rows = {}, {}
    for form in ("masks", "packed"):
        artifacts = ModelArtifacts(lr_model, X_train, german_train.labels)
        estimator = _estimator(
            "exact", artifacts.enable_extent_caching(), lr_model, X_train, german_train,
            sp_metric, test_ctx,
        )
        for half in (masks[:5], masks[3:]):
            if form == "masks":
                rows[form] = estimator.param_change_batch(unpack_rows(half, n))
            else:
                rows[form] = estimator.param_change_batch(half, num_rows=n)
        counts[form] = _counts(artifacts)
    assert counts["masks"] == counts["packed"] == (4, 6)
    np.testing.assert_array_equal(rows["masks"], rows["packed"])
    # On one bundle, a mask batch hits the rows packed batches stored.
    np.testing.assert_array_equal(
        estimator.param_change_batch(unpack_rows(masks, n))[3:], rows["packed"]
    )
    assert _counts(estimator.artifacts) == (12, 6)


def test_a_failed_compute_caches_nothing(artifacts):
    masks = _masks(artifacts.num_train, 3)
    spy = Spy(artifacts)
    artifacts.cached_param_changes(SPEC, masks[:1], spy)

    def failing(_):
        raise np.linalg.LinAlgError("kernel failed")

    with pytest.raises(np.linalg.LinAlgError):
        artifacts.cached_param_changes(SPEC, masks, failing)
    out = artifacts.cached_param_changes(SPEC, masks, spy)
    np.testing.assert_array_equal(spy.masks[1], masks[1:])
    np.testing.assert_array_equal(out, np.concatenate(spy.rows))


def test_apply_edit_empties_the_cache(artifacts):
    n = artifacts.num_train
    spy = Spy(artifacts)
    artifacts.cached_param_changes(SPEC, _masks(n, 4), spy)
    assert artifacts._param_change_cache
    artifacts.apply_edit(remove_indices=[0, 1])
    assert not artifacts._param_change_cache
    artifacts.cached_param_changes(SPEC, _masks(n - 2, 4), spy)
    assert _counts(artifacts) == (0, 8)
