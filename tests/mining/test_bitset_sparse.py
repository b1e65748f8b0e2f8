"""Density-adaptive tidlist representations of ``repro.mining.bitset``.

Every operation the miner dispatches on — intersection, popcount,
coverage — must give identical answers whether a tidlist arrives
as a packed uint8 row or as a sorted index array, across the degenerate
shapes (empty, singleton, all-rows) and across the density threshold.
The int64 regression pins index dtype selection past the int32 range.
"""

import numpy as np
import pytest

from repro.mining.bitset import (
    SPARSE_DENSITY,
    bit_test,
    covers_all,
    galloping_intersect,
    intersect,
    is_sparse,
    pack_rows,
    popcount,
    sparse_eligible,
    sparse_index_dtype,
    to_packed,
    to_sparse,
    unpack_rows,
)

N = 203  # deliberately not a multiple of 8, so padding bits exist


def random_mask(rng, density):
    return rng.random(N) < density


def as_both(mask):
    """(packed, sparse) forms of one boolean row mask."""
    packed = pack_rows(mask)
    return packed, np.flatnonzero(mask).astype(np.int32)


EDGE_MASKS = [
    np.zeros(N, dtype=bool),                      # empty
    np.eye(1, N, 7, dtype=bool)[0],               # singleton
    np.ones(N, dtype=bool),                       # all rows
]


class TestRepresentationRoundTrip:
    @pytest.mark.parametrize("density", [0.0, 0.01, 0.2, 0.9, 1.0])
    def test_to_sparse_to_packed_round_trip(self, density):
        rng = np.random.default_rng(int(density * 100))
        mask = random_mask(rng, density)
        packed, sparse = as_both(mask)
        np.testing.assert_array_equal(to_sparse(packed, N), sparse)
        np.testing.assert_array_equal(to_packed(sparse, N), packed)
        # Converting a tidlist to the form it is already in is the identity.
        np.testing.assert_array_equal(to_sparse(sparse, N), sparse)
        np.testing.assert_array_equal(to_packed(packed, N), packed)

    @pytest.mark.parametrize("mask", EDGE_MASKS, ids=["empty", "singleton", "all-rows"])
    def test_edge_masks(self, mask):
        packed, sparse = as_both(mask)
        assert is_sparse(sparse) and not is_sparse(packed)
        assert popcount(sparse) == popcount(packed) == int(mask.sum())
        np.testing.assert_array_equal(unpack_rows(to_packed(sparse, N), N), mask)
        np.testing.assert_array_equal(to_sparse(packed, N), np.flatnonzero(mask))


class TestDispatchEquivalence:
    @pytest.mark.parametrize("seed", range(5))
    def test_intersect_all_representation_pairs(self, seed):
        rng = np.random.default_rng(seed)
        a_mask = random_mask(rng, 0.04 + 0.2 * rng.random())
        b_mask = random_mask(rng, 0.04 + 0.2 * rng.random())
        expected = np.flatnonzero(a_mask & b_mask)
        a_packed, a_sparse = as_both(a_mask)
        b_packed, b_sparse = as_both(b_mask)
        for a in (a_packed, a_sparse):
            for b in (b_packed, b_sparse):
                got = intersect(a, b)
                got_rows = to_sparse(got, N) if not is_sparse(got) else got
                np.testing.assert_array_equal(got_rows, expected)
                assert popcount(got) == expected.size

    @pytest.mark.parametrize("mask", EDGE_MASKS, ids=["empty", "singleton", "all-rows"])
    def test_intersect_edge_masks(self, mask):
        rng = np.random.default_rng(9)
        other = random_mask(rng, 0.3)
        expected = np.flatnonzero(mask & other)
        for a in as_both(mask):
            for b in as_both(other):
                got = intersect(a, b)
                got_rows = got if is_sparse(got) else to_sparse(got, N)
                np.testing.assert_array_equal(got_rows, expected)

    @pytest.mark.parametrize("seed", range(4))
    def test_covers_all_both_extent_forms(self, seed):
        rng = np.random.default_rng(100 + seed)
        items = pack_rows(np.stack([random_mask(rng, 0.5) for _ in range(6)]))
        extent_mask = random_mask(rng, 0.05)
        packed, sparse = as_both(extent_mask)
        np.testing.assert_array_equal(covers_all(items, sparse), covers_all(items, packed))

    def test_covers_all_empty_sparse_extent_is_vacuous(self):
        rng = np.random.default_rng(3)
        items = pack_rows(np.stack([random_mask(rng, 0.5) for _ in range(4)]))
        empty = np.zeros(0, dtype=np.int32)
        assert covers_all(items, empty).all()

    def test_bit_test_matches_unpacked_mask(self):
        rng = np.random.default_rng(11)
        mask = random_mask(rng, 0.4)
        packed = pack_rows(mask)
        probes = rng.integers(0, N, size=50)
        np.testing.assert_array_equal(bit_test(packed, probes), mask[probes])

    @pytest.mark.parametrize("seed", range(6))
    def test_galloping_intersect_matches_intersect1d(self, seed):
        rng = np.random.default_rng(200 + seed)
        a = np.unique(rng.integers(0, 5000, size=rng.integers(0, 80)))
        b = np.unique(rng.integers(0, 5000, size=rng.integers(0, 800)))
        np.testing.assert_array_equal(galloping_intersect(a, b), np.intersect1d(a, b))
        np.testing.assert_array_equal(galloping_intersect(b, a), np.intersect1d(a, b))


class TestDensityRule:
    def test_sparse_eligibility_threshold(self):
        assert sparse_eligible(0, 64)
        assert sparse_eligible(2, 64)
        assert not sparse_eligible(3, 64)
        # Exactly on the boundary counts as sparse.
        assert sparse_eligible(100, 100 * SPARSE_DENSITY)

    def test_index_dtype_pins_int64_past_int32_range(self):
        """Regression: a >2^31-row table must not wrap its row indices."""
        assert sparse_index_dtype(2**31 - 1) == np.int32
        assert sparse_index_dtype(2**31) == np.int64
        assert sparse_index_dtype(10**10) == np.int64

    def test_popcount_dispatch(self):
        sparse = np.arange(17, dtype=np.int64)
        assert popcount(sparse) == 17
        packed = pack_rows(np.ones(17, dtype=bool))
        assert popcount(packed) == 17
        # 0-d / scalar uint8 inputs keep their historical behavior.
        assert popcount(np.uint8(255)) == 8
