"""Tests for the Definition-3.1 root-cause window in pruning and selection."""

import numpy as np
import pytest

from repro.patterns.lattice import _parent_bar
from repro.patterns.topk import select_top_k

from test_topk import make_stats  # same-directory test helper


class TestParentBar:
    def test_both_valid_takes_max(self):
        assert _parent_bar(0.3, 0.6, cap=1.25) == 0.6

    def test_overshooting_parent_ignored(self):
        assert _parent_bar(1.56, 0.6, cap=1.25) == 0.6

    def test_negative_parent_ignored(self):
        assert _parent_bar(-0.4, 0.2, cap=1.25) == 0.2

    def test_no_valid_parents_no_bar(self):
        assert _parent_bar(1.6, -0.1, cap=1.25) == -np.inf

    def test_boundary_inclusive(self):
        assert _parent_bar(1.25, 0.1, cap=1.25) == 1.25

    def test_zero_is_invalid(self):
        assert _parent_bar(0.0, 0.0, cap=1.25) == -np.inf


class TestSelectionWindow:
    def test_overshooting_candidate_excluded(self):
        pool = [
            make_stats("broad", [1] * 8 + [0] * 2, 1.6),   # overshoots
            make_stats("tight", [0] * 8 + [1] * 2, 0.5),
        ]
        selected = select_top_k(pool, k=2, containment_threshold=0.99)
        assert [str(s.pattern) for s in selected] == ["tight = v"]

    def test_cap_configurable(self):
        pool = [make_stats("broad", [1, 1, 0, 0], 1.6)]
        selected = select_top_k(
            pool, k=1, containment_threshold=0.99, max_responsibility=float("inf")
        )
        assert len(selected) == 1

    def test_invalid_cap(self):
        with pytest.raises(ValueError, match="max_responsibility"):
            select_top_k([], k=1, max_responsibility=0.0)

    def test_near_one_estimates_kept(self):
        """Near-total fixes (R slightly above 1) survive the default slack."""
        pool = [make_stats("fix", [1, 1, 0, 0], 1.05)]
        selected = select_top_k(pool, k=1, containment_threshold=0.99)
        assert len(selected) == 1
