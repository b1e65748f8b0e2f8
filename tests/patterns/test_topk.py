"""Tests for repro.patterns.topk (Algorithm 2)."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import topk_loop

from repro.patterns import Pattern, Predicate, select_top_k
from repro.patterns.lattice import CandidateResult, PatternStats


def make_stats(name, mask, responsibility):
    return make_pattern_stats(Pattern([Predicate(name, "=", "v")]), mask, responsibility)


def make_pattern_stats(pattern, mask, responsibility):
    mask = np.asarray(mask, dtype=bool)
    return PatternStats(
        pattern=pattern,
        support=float(mask.mean()),
        size=int(mask.sum()),
        responsibility=responsibility,
        bias_change=-responsibility,
        _packed_mask=np.packbits(mask),
        _num_rows=len(mask),
    )


@pytest.fixture
def candidates():
    return [
        make_stats("a", [1, 1, 1, 1, 0, 0, 0, 0], 0.4),   # U = 0.8
        make_stats("b", [1, 1, 1, 0, 0, 0, 0, 0], 0.45),  # U = 1.2, inside a
        make_stats("c", [0, 0, 0, 0, 1, 1, 0, 0], 0.2),   # U = 0.8, disjoint
        make_stats("d", [0, 0, 0, 0, 0, 0, 1, 1], 0.1),   # U = 0.4, disjoint
        make_stats("e", [1, 0, 0, 0, 0, 0, 0, 0], -0.5),  # negative responsibility
    ]


class TestSelectTopK:
    def test_ranked_by_interestingness(self, candidates):
        selected = select_top_k(candidates, k=1, containment_threshold=0.99)
        assert str(selected[0].pattern) == "b = v"

    def test_diversity_filter_drops_contained(self, candidates):
        # b is selected first (highest U); then a is skipped because
        # C(a, b) = |a ∧ b| / |a| = 3/4 exceeds the 0.5 threshold.
        selected = select_top_k(candidates, k=3, containment_threshold=0.5)
        names = [str(s.pattern) for s in selected]
        assert "b = v" in names
        assert "a = v" not in names

    def test_high_threshold_keeps_overlapping(self, candidates):
        selected = select_top_k(candidates, k=3, containment_threshold=0.99)
        names = [str(s.pattern) for s in selected]
        assert {"a = v", "b = v"} <= set(names)

    def test_negative_responsibility_excluded_by_default(self, candidates):
        selected = select_top_k(candidates, k=5, containment_threshold=0.99)
        assert all(s.responsibility > 0 for s in selected)

    def test_k_respected(self, candidates):
        selected = select_top_k(candidates, k=2, containment_threshold=0.99)
        assert len(selected) == 2

    def test_selected_pairwise_containment_below_threshold(self, candidates):
        threshold = 0.6
        selected = select_top_k(candidates, k=4, containment_threshold=threshold)
        masks = [s.mask() for s in selected]
        for i, a in enumerate(masks):
            for j, b in enumerate(masks):
                if i < j:
                    assert topk_loop.containment(b, a) <= threshold

    def test_returns_a_list_of_pattern_stats(self, candidates):
        selected = select_top_k(candidates, k=2, containment_threshold=0.75)
        assert isinstance(selected, list)
        assert len(selected) == 2
        assert all(isinstance(s, PatternStats) for s in selected)

    def test_deterministic_tie_break(self):
        mask1 = [1, 1, 0, 0]
        mask2 = [0, 0, 1, 1]
        a = make_stats("z", mask1, 0.2)
        b = make_stats("a", mask2, 0.2)  # same interestingness
        selected = select_top_k([a, b], k=1, containment_threshold=0.99)
        assert str(selected[0].pattern) == "a = v"  # canonical order wins

    def test_invalid_k(self, candidates):
        with pytest.raises(ValueError, match="k must be"):
            select_top_k(candidates, k=0, containment_threshold=0.75)

    def test_invalid_threshold(self, candidates):
        with pytest.raises(ValueError, match="containment_threshold"):
            select_top_k(candidates, k=1, containment_threshold=0.0)

    def test_empty_candidates(self):
        selected = select_top_k([], k=3, containment_threshold=0.75)
        assert selected == []

    def test_exclude_features_only_drops_vacuous(self):
        pool = [
            make_stats("gender", [1, 1, 0, 0], 0.9),   # protected-only -> dropped
            make_stats("hours", [0, 0, 1, 1], 0.2),
        ]
        selected = select_top_k(
            pool, k=2, containment_threshold=0.99, exclude_features_only={"gender"}
        )
        assert [str(s.pattern) for s in selected] == ["hours = v"]

    def test_exclude_features_only_keeps_combinations(self):
        from repro.patterns import Pattern, Predicate
        mask = np.array([1, 1, 0, 0], dtype=bool)
        combined = PatternStats(
            pattern=Pattern([Predicate("gender", "=", "F"), Predicate("age", ">=", 45.0)]),
            support=0.5,
            size=2,
            responsibility=0.3,
            bias_change=-0.06,
            _packed_mask=np.packbits(mask),
            _num_rows=4,
        )
        selected = select_top_k(
            [combined], k=1, containment_threshold=0.99, exclude_features_only={"gender"}
        )
        assert len(selected) == 1


# ----------------------------------------------------------------------
# The column selection against the list loop it replaced.

_VOCABULARY = [
    Predicate(feature, "=", value)
    for feature in ("age", "gender", "job")
    for value in (0, 1, 2, "1")  # 1 and "1" print alike: one sort-key rank
]
_RESPONSIBILITIES = [-0.5, 0.0, 0.125, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 2.0]


@st.composite
def pools(draw):
    """A random candidate pool with ties, shared extents, protected-only
    rows, empty masks and containment ratios that hit the thresholds."""
    num_rows = draw(st.integers(1, 16))
    stats = []
    for _ in range(draw(st.integers(0, 10))):
        if stats and draw(st.booleans()):
            # A parent/child pair on one extent: same mask and R, one more
            # predicate, so only the sort key breaks the tie.
            parent = stats[draw(st.integers(0, len(stats) - 1))]
            extra = draw(st.sampled_from(_VOCABULARY))
            pattern = Pattern(list(parent.pattern.predicates) + [extra])
            mask = parent.mask()
            responsibility = parent.responsibility
        else:
            size = draw(st.integers(1, 3))
            predicates = st.lists(st.sampled_from(_VOCABULARY), min_size=1, max_size=size)
            pattern = Pattern(draw(predicates))
            mask = np.array(draw(st.lists(st.booleans(), min_size=num_rows, max_size=num_rows)))
            responsibility = draw(st.sampled_from(_RESPONSIBILITIES))
        stats.append(make_pattern_stats(pattern, mask, responsibility))
    return stats


def _outcome(select, candidates, **kwargs):
    try:
        return select(candidates, **kwargs)
    except ValueError as error:
        return str(error)


def _fields(selected):
    if isinstance(selected, str):
        return selected
    return [
        (s.pattern, s.support, s.size, s.responsibility, s.bias_change, s._packed_mask.tobytes())
        for s in selected
    ]


class TestColumnsMatchTheLoop:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        pool=pools(),
        k=st.integers(-1, 12),
        threshold=st.sampled_from([0.0, 0.25, 0.5, 2 / 3, 0.75, 1.0, 1.5]),
        protected=st.sampled_from([None, {"gender"}, {"gender", "job"}]),
    )
    def test_random_pools(self, pool, k, threshold, protected):
        kwargs = dict(k=k, containment_threshold=threshold, exclude_features_only=protected)
        want = _outcome(topk_loop.select_top_k, pool, **kwargs)
        # A list keeps its own objects.
        got = _outcome(select_top_k, pool, **kwargs)
        if isinstance(want, str):
            assert got == want
        else:
            assert [id(s) for s in got] == [id(s) for s in want]
        # Columns without a built list build the selected rows themselves.
        columns = CandidateResult.of_stats(pool)
        columns._built = None
        assert _fields(_outcome(select_top_k, columns, **kwargs)) == _fields(want)

    def test_containment_exactly_at_the_threshold_is_kept(self):
        first = make_pattern_stats(Pattern([Predicate("a", "=", 1)]), [1, 1, 0, 0], 0.9)
        half = make_pattern_stats(Pattern([Predicate("b", "=", 1)]), [0, 1, 1, 0], 0.8)
        selected = select_top_k([first, half], k=2, containment_threshold=0.5)
        assert selected == [first, half]
        assert select_top_k([first, half], k=2, containment_threshold=0.49) == [first]

    def test_empty_mask_after_a_selection_raises(self):
        full = make_pattern_stats(Pattern([Predicate("a", "=", 1)]), [1, 1, 0, 0], 0.5)
        empty = make_pattern_stats(Pattern([Predicate("b", "=", 1)]), [0, 0, 0, 0], 0.4)
        with pytest.raises(ValueError, match="containment is undefined for an empty pattern"):
            select_top_k([full, empty], k=2, containment_threshold=0.75)


class TestFilterSpan:
    def test_records_pool_and_visited(self, candidates):
        from repro.obs import trace

        with trace.tracing() as tracer:
            with trace.span("explain.filter", k=2):
                select_top_k(candidates, k=2, containment_threshold=0.5)
        (span,) = tracer.roots
        # e is outside the window; b, then a (inside b), then c are read.
        assert span.attrs["pool"] == 4
        assert span.attrs["visited"] == 3
