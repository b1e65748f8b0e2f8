"""Tests for the Definition-3.1 root-cause window in pruning and selection.

The window is (0, ``_MAX_RESPONSIBILITY``], read through one predicate,
``_in_window``; every reader is checked at both of its edges.
"""

import numpy as np
import pytest

from repro.patterns.lattice import (
    _MAX_RESPONSIBILITY,
    _in_window,
    _parent_bar,
    _root_cause,
)
from repro.patterns.topk import select_top_k

from test_topk import make_stats  # same-directory test helper

CAP = _MAX_RESPONSIBILITY
ABOVE_CAP = np.nextafter(CAP, np.inf)
ABOVE_ZERO = np.nextafter(0.0, np.inf)
# (responsibility, inside the window?) at both edges and beyond.
EDGES = [
    (CAP, True),
    (ABOVE_CAP, False),
    (0.0, False),
    (ABOVE_ZERO, True),
    (-0.4, False),
    (1.0, True),
    (np.inf, False),
    (np.nan, False),
]


def test_the_cap_is_a_quarter_above_a_total_fix():
    assert CAP == 1.25


class TestInWindow:
    @pytest.mark.parametrize("responsibility,inside", EDGES)
    def test_scalar(self, responsibility, inside):
        assert bool(_in_window(float(responsibility))) is inside

    def test_array(self):
        values = np.array([r for r, _ in EDGES])
        np.testing.assert_array_equal(_in_window(values), [inside for _, inside in EDGES])


class TestRootCause:
    def test_keeps_in_window_values_and_drops_the_rest(self):
        values = np.array([r for r, _ in EDGES])
        want = [r if inside else -np.inf for r, inside in EDGES]
        np.testing.assert_array_equal(_root_cause(values), want)


class TestParentBar:
    def test_both_valid_takes_max(self):
        assert _parent_bar(0.3, 0.6) == 0.6

    def test_overshooting_parent_ignored(self):
        assert _parent_bar(1.56, 0.6) == 0.6

    def test_negative_parent_ignored(self):
        assert _parent_bar(-0.4, 0.2) == 0.2

    def test_no_valid_parents_no_bar(self):
        assert _parent_bar(1.6, -0.1) == -np.inf

    def test_boundary_inclusive(self):
        assert _parent_bar(CAP, 0.1) == CAP

    def test_zero_is_invalid(self):
        assert _parent_bar(0.0, 0.0) == -np.inf

    @pytest.mark.parametrize("responsibility,inside", EDGES)
    def test_window_edges(self, responsibility, inside):
        bar = _parent_bar(responsibility, 0.1)
        assert bar == (max(responsibility, 0.1) if inside else 0.1)


class TestSelectionWindow:
    def test_overshooting_candidate_excluded(self):
        pool = [
            make_stats("broad", [1] * 8 + [0] * 2, 1.6),   # overshoots
            make_stats("tight", [0] * 8 + [1] * 2, 0.5),
        ]
        selected = select_top_k(pool, k=2, containment_threshold=0.99)
        assert [str(s.pattern) for s in selected] == ["tight = v"]

    def test_near_one_estimates_kept(self):
        """Near-total fixes (R slightly above 1) survive the slack."""
        pool = [make_stats("fix", [1, 1, 0, 0], 1.05)]
        selected = select_top_k(pool, k=1, containment_threshold=0.99)
        assert len(selected) == 1

    @pytest.mark.parametrize("responsibility,inside", EDGES)
    def test_window_edges(self, responsibility, inside):
        pool = [make_stats("edge", [1, 1, 0, 0], float(responsibility))]
        selected = select_top_k(pool, k=1, containment_threshold=0.99)
        assert len(selected) == int(inside)
