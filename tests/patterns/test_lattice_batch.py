"""Regression tests for the batched lattice search.

Golden guarantee: ``compute_candidates`` returns *the identical candidate
set* — patterns, supports, responsibilities — and identical per-level
accounting as the per-candidate query loop of ``oracles.influence_loop``, on
the seeded synthetic dataset.  Plus the support-threshold boundary: a
pattern covering exactly τ of the rows is excluded at every lattice level,
in the array gather and the per-merge oracle alike, matching the "strictly
more than τ" contract.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles import lattice_gather as oracle_gather
from oracles.influence_loop import LoopEstimator

from repro.influence import make_estimator
from repro.mining.alphabet import PredicateAlphabet
from repro.patterns import compute_candidates
from repro.patterns.lattice import gather_level, level_one, merge_pairs
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table


@pytest.fixture(scope="module", params=["first_order", "second_order"])
def lattice_pair(request, german_train, fo_estimator, so_estimator):
    estimator = {"first_order": fo_estimator, "second_order": so_estimator}[request.param]
    alphabet = PredicateAlphabet(german_train.table, 0.05)
    oracle = LoopEstimator(estimator)
    loop = compute_candidates(alphabet, oracle, max_predicates=3)
    # Every evaluation went through the oracle's scalar loop.
    assert oracle.scalar_calls == loop.num_evaluated > 0
    batched = compute_candidates(alphabet, estimator, max_predicates=3)
    return loop, batched


class TestGoldenEquivalence:
    def test_identical_patterns(self, lattice_pair):
        loop, batched = lattice_pair
        assert [s.pattern for s in loop.candidates] == [s.pattern for s in batched.candidates]

    def test_identical_supports_and_sizes(self, lattice_pair):
        loop, batched = lattice_pair
        assert [s.support for s in loop.candidates] == [s.support for s in batched.candidates]
        assert [s.size for s in loop.candidates] == [s.size for s in batched.candidates]

    def test_identical_responsibilities(self, lattice_pair):
        loop, batched = lattice_pair
        np.testing.assert_allclose(
            [s.responsibility for s in batched.candidates],
            [s.responsibility for s in loop.candidates],
            atol=1e-10,
            rtol=0.0,
        )
        np.testing.assert_allclose(
            [s.bias_change for s in batched.candidates],
            [s.bias_change for s in loop.candidates],
            atol=1e-10,
            rtol=0.0,
        )

    def test_level_accounting_preserved(self, lattice_pair):
        loop, batched = lattice_pair
        assert [
            (lv.level, lv.num_candidates, lv.num_merges_tried) for lv in loop.levels
        ] == [(lv.level, lv.num_candidates, lv.num_merges_tried) for lv in batched.levels]

    def test_exact_kernel_search_matches_the_dense_step_loop(
        self, german_train, lr_model, X_train, sp_metric, test_ctx
    ):
        """The exact kernel's search against the dense per-subset step, one
        scalar query per evaluation."""
        estimator = make_estimator(
            "exact", lr_model, X_train, german_train.labels, sp_metric, test_ctx
        )
        oracle = LoopEstimator(estimator)
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        loop = compute_candidates(alphabet, oracle, max_predicates=2)
        assert oracle.scalar_calls == loop.num_evaluated > 0
        batched = compute_candidates(alphabet, estimator, max_predicates=2)
        assert [s.pattern for s in loop.candidates] == [s.pattern for s in batched.candidates]
        np.testing.assert_allclose(
            [s.responsibility for s in batched.candidates],
            [s.responsibility for s in loop.candidates],
            atol=1e-10,
            rtol=0.0,
        )

    def test_batched_search_is_deterministic(self, german_train, fo_estimator):
        runs = [
            compute_candidates(
                PredicateAlphabet(german_train.table, 0.05), fo_estimator, max_predicates=2
            )
            for _ in range(2)
        ]
        assert [s.pattern for s in runs[0].candidates] == [s.pattern for s in runs[1].candidates]
        assert [s.responsibility for s in runs[0].candidates] == [
            s.responsibility for s in runs[1].candidates
        ]

    def test_small_batch_size_chunks_identically(self, german_train, fo_estimator):
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        whole = compute_candidates(alphabet, fo_estimator, max_predicates=2)
        chunked = compute_candidates(alphabet, fo_estimator, max_predicates=2, batch_size=7)
        assert [s.pattern for s in whole.candidates] == [s.pattern for s in chunked.candidates]
        np.testing.assert_allclose(
            [s.responsibility for s in whole.candidates],
            [s.responsibility for s in chunked.candidates],
            atol=1e-10,
            rtol=0.0,
        )

    def test_invalid_batch_size(self, german_train, fo_estimator):
        with pytest.raises(ValueError, match="batch_size"):
            compute_candidates(
                PredicateAlphabet(german_train.table, 0.05), fo_estimator, batch_size=0
            )


# ----------------------------------------------------------------------
# Support-threshold boundary: strictly-more-than τ at every level.
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def boundary_table():
    """20-row table engineered so several patterns sit exactly at τ = 0.2.

    Level 1: ``b = w`` covers exactly 4/20 rows.  Level 2: ``a = x ∧ b = u``
    covers exactly 4/20, while ``a = x ∧ b = v`` (6/20) and ``a = y ∧ b = u``
    (6/20) clear the bar.
    """
    a = ["x"] * 10 + ["y"] * 10
    b = ["u"] * 4 + ["v"] * 6 + ["u"] * 6 + ["w"] * 4
    return Table.from_dict({"a": a, "b": b})


@pytest.mark.parametrize(
    "gather", [gather_level, oracle_gather.gather_level], ids=["array", "oracle"]
)
class TestSupportBoundary:
    """Level 1 is the alphabet's entries; level 2 is the gather over their
    merge pairs, in the array form and the per-merge oracle alike."""

    TAU = 0.2

    def _levels(self, table, gather) -> list[list[tuple[Pattern, int]]]:
        index, level1 = level_one(PredicateAlphabet(table, self.TAU, 4))
        left, right, rows, _ = merge_pairs(level1.rows, index.conflicts)
        level2 = gather(level1, left, right, rows, table.num_rows, self.TAU)
        return [
            [(index.pattern(row), int(size)) for row, size in zip(level.rows, level.sizes)]
            for level in (level1, level2)
        ]

    def test_no_candidate_at_exactly_tau(self, boundary_table, gather):
        for level in self._levels(boundary_table, gather):
            assert level
            for _, size in level:
                assert size / boundary_table.num_rows > self.TAU

    def test_level1_boundary_predicate_excluded(self, boundary_table, gather):
        level1, _ = self._levels(boundary_table, gather)
        assert Pattern([Predicate("b", "=", "w")]) not in {p for p, _ in level1}

    def test_level2_boundary_merge_excluded(self, boundary_table, gather):
        _, level2 = self._levels(boundary_table, gather)
        patterns = {p for p, _ in level2}
        assert Pattern([Predicate("a", "=", "x"), Predicate("b", "=", "u")]) not in patterns

    def test_level2_above_boundary_kept(self, boundary_table, gather):
        _, level2 = self._levels(boundary_table, gather)
        patterns = {p for p, _ in level2}
        assert Pattern([Predicate("a", "=", "x"), Predicate("b", "=", "v")]) in patterns
        assert Pattern([Predicate("a", "=", "y"), Predicate("b", "=", "u")]) in patterns
