"""Tests for repro.patterns.pattern."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.patterns import Pattern, Predicate
from repro.tabular import Table

# Prints the canonical order of a pattern and of a predicate index over
# predicates whose sort keys tie (1 and "1" print alike).
_TIED_ORDER = """
from repro.patterns import Pattern, Predicate
from repro.patterns.lattice import PredicateIndex
vocabulary = [Predicate(f, "=", v) for f in ("age", "gender", "job") for v in (0, 1, 2, "1")]
print([p.value for p in Pattern(vocabulary).predicates])
index, ids = PredicateIndex.of(vocabulary)
print([p.value for p in index.predicates], index.ranks.tolist(), ids.tolist())
"""


@pytest.fixture
def table():
    return Table.from_dict(
        {
            "age": [20.0, 45.0, 60.0, 50.0],
            "gender": ["F", "M", "F", "F"],
        }
    )


def P(*preds):
    return Pattern(list(preds))


class TestConstruction:
    def test_canonical_order(self):
        a = P(Predicate("b", "=", "x"), Predicate("a", ">", 1.0))
        b = P(Predicate("a", ">", 1.0), Predicate("b", "=", "x"))
        assert a == b
        assert hash(a) == hash(b)

    def test_tied_sort_keys_order_by_type_not_hash_seed(self):
        """Set order follows the hash seed; the canonical order must not."""
        src = str(Path(repro.__file__).resolve().parents[1])
        outputs = [
            subprocess.run(
                [sys.executable, "-c", _TIED_ORDER],
                env={**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("0", "8")
        ]
        assert outputs[0] == outputs[1]
        assert outputs[0].splitlines()[0] == str([0, 1, "1", 2] * 3)

    def test_duplicates_collapse(self):
        p = P(Predicate("a", "=", 1), Predicate("a", "=", 1))
        assert len(p) == 1

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            Pattern([])

    def test_immutable(self):
        p = P(Predicate("a", "=", 1))
        with pytest.raises(AttributeError):
            p.predicates = ()

    def test_str_joins_with_conjunction(self):
        p = P(Predicate("age", ">=", 45.0), Predicate("gender", "=", "F"))
        assert str(p) == "age >= 45 ∧ gender = F"


class TestMatching:
    def test_mask_conjunction(self, table):
        p = P(Predicate("age", ">=", 45.0), Predicate("gender", "=", "F"))
        np.testing.assert_array_equal(p.mask(table), [False, False, True, True])

    def test_support(self, table):
        p = P(Predicate("gender", "=", "F"))
        assert p.support(table) == pytest.approx(0.75)

    def test_support_empty_table_rejected(self, table):
        p = P(Predicate("gender", "=", "F"))
        with pytest.raises(ValueError, match="empty"):
            p.support(table.filter(np.zeros(4, dtype=bool)))

    def test_features(self):
        p = P(Predicate("a", "=", 1), Predicate("b", "<", 2.0))
        assert p.features() == {"a", "b"}


class TestAlgebra:
    def test_merge_union(self):
        a = P(Predicate("a", "=", 1))
        b = P(Predicate("b", "=", 2))
        merged = a.merge(b)
        assert len(merged) == 2

    def test_merge_overlapping(self):
        shared = Predicate("a", "=", 1)
        a = P(shared, Predicate("b", "=", 2))
        b = P(shared, Predicate("c", "=", 3))
        assert len(a.merge(b)) == 3

    def test_differs_in_one(self):
        shared = Predicate("a", "=", 1)
        a = P(shared, Predicate("b", "=", 2))
        b = P(shared, Predicate("c", "=", 3))
        assert a.differs_in_one(b)

    def test_differs_in_one_false_for_disjoint(self):
        a = P(Predicate("a", "=", 1), Predicate("b", "=", 2))
        b = P(Predicate("c", "=", 3), Predicate("d", "=", 4))
        assert not a.differs_in_one(b)

    def test_differs_in_one_false_for_different_sizes(self):
        a = P(Predicate("a", "=", 1))
        b = P(Predicate("a", "=", 1), Predicate("b", "=", 2))
        assert not a.differs_in_one(b)

    def test_satisfiable(self):
        ok = P(Predicate("age", ">=", 30.0), Predicate("age", "<", 50.0))
        assert ok.is_satisfiable()
        bad = P(Predicate("age", "<", 30.0), Predicate("age", ">", 50.0))
        assert not bad.is_satisfiable()

    def test_unsatisfiable_pattern_matches_nothing(self, table):
        bad = P(Predicate("gender", "=", "F"), Predicate("gender", "=", "M"))
        assert not bad.mask(table).any()

    def test_contains_pattern(self):
        small = P(Predicate("a", "=", 1))
        big = P(Predicate("a", "=", 1), Predicate("b", "=", 2))
        assert big.contains_pattern(small)
        assert not small.contains_pattern(big)
