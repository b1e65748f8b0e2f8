"""Property-based tests (hypothesis) for the pattern algebra."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles.topk_loop import containment

from repro.patterns import Pattern, Predicate
from repro.tabular import Table

FEATURES = ["age", "hours", "grade"]


@st.composite
def tables(draw):
    n = draw(st.integers(min_value=5, max_value=40))
    data = {}
    for name in FEATURES:
        data[name] = draw(
            st.lists(
                st.integers(min_value=0, max_value=9).map(float),
                min_size=n,
                max_size=n,
            )
        )
    data["cat"] = draw(
        st.lists(st.sampled_from(["a", "b", "c"]), min_size=n, max_size=n)
    )
    return Table.from_dict(data)


@st.composite
def predicates(draw):
    if draw(st.booleans()):
        feature = draw(st.sampled_from(FEATURES))
        op = draw(st.sampled_from(["=", "<", "<=", ">", ">="]))
        value = float(draw(st.integers(min_value=0, max_value=9)))
        return Predicate(feature, op, value)
    return Predicate("cat", "=", draw(st.sampled_from(["a", "b", "c"])))


@st.composite
def patterns(draw):
    preds = draw(st.lists(predicates(), min_size=1, max_size=4))
    return Pattern(preds)


class TestPatternAlgebraProperties:
    @given(patterns(), tables())
    @settings(max_examples=60, deadline=None)
    def test_support_in_unit_interval(self, pattern, table):
        assert 0.0 <= pattern.support(table) <= 1.0

    @given(patterns(), patterns(), tables())
    @settings(max_examples=60, deadline=None)
    def test_merge_support_anti_monotone(self, a, b, table):
        """Sup(a ∧ b) <= min(Sup(a), Sup(b)) — the Apriori property."""
        merged = a.merge(b)
        assert merged.support(table) <= min(a.support(table), b.support(table)) + 1e-12

    @given(patterns(), patterns())
    @settings(max_examples=60, deadline=None)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(patterns())
    @settings(max_examples=60, deadline=None)
    def test_merge_idempotent(self, a):
        assert a.merge(a) == a

    @given(patterns(), tables())
    @settings(max_examples=60, deadline=None)
    def test_mask_matches_per_predicate_and(self, pattern, table):
        expected = np.ones(table.num_rows, dtype=bool)
        for predicate in pattern.predicates:
            expected &= predicate.mask(table)
        np.testing.assert_array_equal(pattern.mask(table), expected)

    @given(patterns(), tables())
    @settings(max_examples=60, deadline=None)
    def test_unsatisfiable_implies_empty(self, pattern, table):
        """Structural conflict detection is sound: a conflicting pattern can
        never match a row."""
        if not pattern.is_satisfiable():
            assert not pattern.mask(table).any()

    @given(predicates(), predicates())
    @settings(max_examples=60, deadline=None)
    def test_conflict_symmetric(self, a, b):
        assert a.conflicts_with(b) == b.conflicts_with(a)

    @given(patterns(), patterns())
    @settings(max_examples=60, deadline=None)
    def test_merge_contains_both_parents(self, a, b):
        merged = a.merge(b)
        assert merged.contains_pattern(a)
        assert merged.contains_pattern(b)


class TestContainmentProperties:
    @given(tables(), patterns(), patterns())
    @settings(max_examples=60, deadline=None)
    def test_containment_in_unit_interval(self, table, a, b):
        mask_a, mask_b = a.mask(table), b.mask(table)
        if mask_a.any():
            assert 0.0 <= containment(mask_a, mask_b) <= 1.0

    @given(tables(), patterns())
    @settings(max_examples=60, deadline=None)
    def test_self_containment_is_one(self, table, a):
        mask = a.mask(table)
        if mask.any():
            assert containment(mask, mask) == 1.0

    @given(tables(), patterns(), patterns())
    @settings(max_examples=60, deadline=None)
    def test_subset_containment_is_one(self, table, a, b):
        """A merged (more specific) pattern is always fully contained in
        each parent."""
        merged = a.merge(b)
        mask_m = merged.mask(table)
        if mask_m.any():
            assert containment(mask_m, a.mask(table)) == 1.0
