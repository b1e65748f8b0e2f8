"""Tests for repro.core.explanation result types."""

import numpy as np
import pytest

from repro.core.explanation import Explanation, ExplanationSet
from repro.patterns import Pattern, Predicate
from repro.patterns.lattice import CandidateResult, PatternStats


def make_stats(responsibility=0.4, support=0.1):
    mask = np.zeros(20, dtype=bool)
    mask[: int(support * 20)] = True
    return PatternStats(
        pattern=Pattern([Predicate("age", ">=", 45.0)]),
        support=support,
        size=int(mask.sum()),
        responsibility=responsibility,
        bias_change=-responsibility * 0.2,
        _packed_mask=np.packbits(mask),
        _num_rows=20,
    )


def make_set(explanations):
    return ExplanationSet(
        explanations=explanations,
        metric_name="statistical_parity",
        original_bias=0.2,
        search_seconds=1.0,
        filter_seconds=0.01,
        lattice=CandidateResult.of_stats([]),
    )


class TestExplanation:
    def test_from_stats(self):
        stats = make_stats()
        explanation = Explanation.from_stats(1, stats)
        assert explanation.pattern == stats.pattern
        assert explanation.est_responsibility == stats.responsibility
        assert explanation.gt_bias_change is None

    def test_bias_reduction_pct(self):
        explanation = Explanation.from_stats(1, make_stats())
        assert explanation.bias_reduction_pct is None
        explanation.gt_responsibility = 0.55
        assert explanation.bias_reduction_pct == pytest.approx(55.0)

    def test_describe_mentions_pattern(self):
        explanation = Explanation.from_stats(2, make_stats())
        assert "age >= 45" in explanation.describe()
        assert "#2" in explanation.describe()


class TestExplanationSet:
    def test_len_iter_getitem(self):
        explanations = [Explanation.from_stats(i + 1, make_stats()) for i in range(3)]
        result = make_set(explanations)
        assert len(result) == 3
        assert result[1].rank == 2
        assert [e.rank for e in result] == [1, 2, 3]

    def test_patterns(self):
        result = make_set([Explanation.from_stats(1, make_stats())])
        assert result.patterns() == [Pattern([Predicate("age", ">=", 45.0)])]

    def test_render_marks_unverified(self):
        result = make_set([Explanation.from_stats(1, make_stats())])
        assert "*" in result.render()

    def test_render_verified_without_star(self):
        explanation = Explanation.from_stats(1, make_stats())
        explanation.gt_responsibility = 0.5
        text_line = make_set([explanation]).render().splitlines()[2]
        assert "*" not in text_line

    def test_to_records_serializable(self):
        import json

        explanation = Explanation.from_stats(1, make_stats())
        explanation.gt_responsibility = 0.5
        explanation.gt_bias_change = -0.1
        records = make_set([explanation]).to_records()
        payload = json.dumps(records)
        assert "age" in payload
        assert records[0]["rank"] == 1
        assert records[0]["predicates"][0]["op"] == ">="
        assert records[0]["ground_truth_responsibility"] == 0.5
        assert records[0]["metric"] == "statistical_parity"
