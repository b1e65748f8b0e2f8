"""Tests for the reference containment score of the top-k oracle (Def. 3.6)."""

import numpy as np
import pytest
from oracles.topk_loop import containment


class TestContainment:
    def test_full_containment(self):
        a = np.array([True, True, False, False])
        b = np.array([True, True, True, False])
        assert containment(a, b) == 1.0

    def test_partial(self):
        a = np.array([True, True, True, True])
        b = np.array([True, True, False, False])
        assert containment(a, b) == 0.5

    def test_disjoint(self):
        a = np.array([True, False])
        b = np.array([False, True])
        assert containment(a, b) == 0.0

    def test_asymmetric(self):
        small = np.array([True, False, False, False])
        big = np.array([True, True, True, False])
        assert containment(small, big) == 1.0
        assert containment(big, small) == pytest.approx(1 / 3)

    def test_empty_pattern_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            containment(np.zeros(3, dtype=bool), np.ones(3, dtype=bool))

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shapes"):
            containment(np.ones(3, dtype=bool), np.ones(4, dtype=bool))
