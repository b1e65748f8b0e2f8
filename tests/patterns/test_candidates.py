"""Tests for level-1 generation: the predicate specs of
``repro.patterns.candidates`` behind the alphabet's support filter."""

import numpy as np
import pytest

from repro.mining.alphabet import PredicateAlphabet
from repro.tabular import Table


def level1_entries(table, support_threshold, num_bins=4, exclude_features=None):
    """The level-1 (predicate, mask) entries the lattice starts from."""
    return PredicateAlphabet(
        table, support_threshold, num_bins, exclude_features, packed=False
    ).entries


@pytest.fixture
def table():
    rng = np.random.default_rng(0)
    return Table.from_dict(
        {
            "color": ["red"] * 50 + ["blue"] * 45 + ["green"] * 5,
            "value": rng.normal(50, 10, 100).round(),
            "rate": np.tile([1.0, 2.0, 3.0, 4.0], 25),
        }
    )


class TestGeneration:
    def test_all_supports_above_threshold(self, table):
        for predicate, mask in level1_entries(table, 0.1):
            assert mask.mean() > 0.1, str(predicate)

    def test_low_support_category_pruned(self, table):
        predicates = {
            str(p) for p, _ in level1_entries(table, 0.1)
        }
        assert "color = green" not in predicates
        assert "color = red" in predicates

    def test_masks_match_predicates(self, table):
        for predicate, mask in level1_entries(table, 0.05):
            np.testing.assert_array_equal(mask, predicate.mask(table))

    def test_numeric_gets_threshold_pairs(self, table):
        predicates = [p for p, _ in level1_entries(table, 0.05)]
        ops = {p.op for p in predicates if p.feature == "value"}
        assert ops == {">=", "<"}

    def test_low_cardinality_numeric_gets_equality(self, table):
        predicates = [p for p, _ in level1_entries(table, 0.05)]
        eq = [p for p in predicates if p.feature == "rate" and p.op == "="]
        assert len(eq) == 4

    def test_integer_column_integer_thresholds(self, table):
        predicates = [p for p, _ in level1_entries(table, 0.05)]
        for p in predicates:
            if p.feature == "value" and p.op in (">=", "<"):
                assert float(p.value) == round(float(p.value))

    def test_exclude_features(self, table):
        predicates = [
            p for p, _ in level1_entries(table, 0.05, exclude_features={"color"})
        ]
        assert all(p.feature != "color" for p in predicates)

    def test_more_bins_more_thresholds(self, table):
        few = level1_entries(table, 0.01, num_bins=2)
        many = level1_entries(table, 0.01, num_bins=8)
        assert len(many) > len(few)

    def test_invalid_threshold(self, table):
        with pytest.raises(ValueError, match="support_threshold"):
            level1_entries(table, 1.0)
