"""Tests for repro.patterns.lattice (Algorithm 1)."""

import numpy as np
import pytest
from oracles.lattice_gather import _mergeable_pairs

from repro.patterns import compute_candidates
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate


@pytest.fixture(scope="module")
def lattice(german_train, so_estimator):
    return compute_candidates(
        german_train.table,
        so_estimator,
        support_threshold=0.05,
        max_predicates=3,
    )


class TestComputeCandidates:
    def test_produces_candidates(self, lattice):
        assert lattice.num_candidates > 20

    def test_supports_above_threshold(self, lattice):
        for stats in lattice.candidates:
            assert stats.support >= 0.05

    def test_masks_consistent_with_support(self, lattice, german_train):
        for stats in lattice.candidates[:20]:
            mask = stats.mask()
            assert mask.sum() == stats.size
            np.testing.assert_array_equal(mask, stats.pattern.mask(german_train.table))

    def test_level_sizes_reported(self, lattice):
        assert lattice.levels[0].level == 1
        assert all(lv.seconds >= 0 for lv in lattice.levels)

    def test_max_predicates_respected(self, lattice):
        assert all(len(s.pattern) <= 3 for s in lattice.candidates)

    def test_interestingness_is_resp_over_support(self, lattice):
        for stats in lattice.candidates[:10]:
            assert stats.interestingness == pytest.approx(
                stats.responsibility / stats.support
            )

    def test_no_duplicate_patterns(self, lattice):
        patterns = [s.pattern for s in lattice.candidates]
        assert len(patterns) == len(set(patterns))

    def test_merged_patterns_satisfiable(self, lattice):
        for stats in lattice.candidates:
            assert stats.pattern.is_satisfiable()


class TestPruning:
    def test_responsibility_prune_reduces_candidates(self, german_train, fo_estimator):
        pruned = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=2,
            prune_by_responsibility=True,
        )
        unpruned = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=2,
            prune_by_responsibility=False,
        )
        assert pruned.num_candidates < unpruned.num_candidates

    def test_responsibility_increases_along_merges(self, german_train, fo_estimator):
        result = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=2,
            prune_by_responsibility=True,
        )
        singles = {
            s.pattern.predicates[0]: s.responsibility
            for s in result.candidates
            if len(s.pattern) == 1
        }
        for stats in result.candidates:
            if len(stats.pattern) == 2:
                parents = [singles.get(p) for p in stats.pattern.predicates]
                known = [r for r in parents if r is not None]
                # Only parents inside the root-cause window constrain the
                # merge (see lattice module docstring).
                valid = [r for r in known if 0.0 < r <= 1.25]
                if len(known) == 2 and valid:
                    assert stats.responsibility > max(valid)

    def test_higher_threshold_fewer_candidates(self, german_train, fo_estimator):
        low = compute_candidates(german_train.table, fo_estimator, 0.05, max_predicates=2)
        high = compute_candidates(german_train.table, fo_estimator, 0.25, max_predicates=2)
        assert high.num_candidates < low.num_candidates

    def test_min_responsibility_filters_results(self, german_train, fo_estimator):
        filtered = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=2,
            min_responsibility=0.05,
        )
        assert all(s.responsibility >= 0.05 for s in filtered.candidates)


class TestFullCoveragePatterns:
    def test_full_coverage_single_predicate_skipped(self, german_train, fo_estimator):
        """foreign_worker = Yes covers ~96% but a constant column would cover
        100%; full-coverage patterns must never reach the estimator."""
        result = compute_candidates(
            german_train.table, fo_estimator, 0.05, max_predicates=1
        )
        assert all(s.support < 1.0 for s in result.candidates)


class TestValidation:
    def test_row_mismatch_rejected(self, german_test, so_estimator):
        with pytest.raises(ValueError, match="must match"):
            compute_candidates(german_test.table, so_estimator, 0.05)

    def test_invalid_max_predicates(self, german_train, so_estimator):
        with pytest.raises(ValueError, match="max_predicates"):
            compute_candidates(german_train.table, so_estimator, 0.05, max_predicates=0)


class TestMergeablePairs:
    @staticmethod
    def _entry(*preds):
        return (Pattern(list(preds)), np.ones(1, dtype=bool), 0.0)

    def test_level1_all_pairs(self):
        entries = [self._entry(Predicate(f, "=", 1)) for f in "abc"]
        pairs = list(_mergeable_pairs(entries))
        assert len(pairs) == 3

    def test_level2_only_one_predicate_difference(self):
        a, b, c, d = (Predicate(f, "=", 1) for f in "abcd")
        entries = [self._entry(a, b), self._entry(a, c), self._entry(c, d)]
        pairs = {tuple(sorted(p)) for p in _mergeable_pairs(entries)}
        # (ab, ac) share a; (ac, cd) share c; (ab, cd) share nothing.
        assert (0, 1) in pairs
        assert (1, 2) in pairs
        assert (0, 2) not in pairs

    def test_no_duplicate_pairs(self):
        a, b, c = (Predicate(f, "=", 1) for f in "abc")
        entries = [self._entry(a, b), self._entry(a, c), self._entry(b, c)]
        pairs = list(_mergeable_pairs(entries))
        assert len(pairs) == len(set(pairs))

    def test_empty_input(self):
        assert list(_mergeable_pairs([])) == []
