"""The array level step equals the per-merge reference.

``repro.patterns.lattice.merge_pairs`` enumerates, deduplicates and checks
a whole level on arrays, and ``gather_level`` ANDs the pairs it is handed
and keeps the supported ones.  ``oracles.lattice_gather`` keeps the
per-merge loop they replaced.  Every level of a search runs through both on
the same input, and they must agree: pair sequence, merged patterns and
pairs tried, then positions, parents, packed masks, sizes and collapse
codes.  Pair order is part of the answer — heuristic 2 takes a candidate's
bar from the first pair that produces it — so it is compared exactly.  A
whole search with the oracle gather swapped in must also return the same
candidates, level stats and :class:`LatticeRecord`, and the delta
replay's level 2 after an edit must be the oracle's over the patched
entries.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import lattice_gather as oracle

from repro.core.delta import replay_geometry
from repro.datasets import TabularEncoder, random_edit
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.mining.alphabet import PredicateAlphabet
from repro.models import LogisticRegression
from repro.patterns import lattice
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table

FIELDS = ("positions", "left", "right", "rows", "packed", "sizes", "known")


def _assert_same_merges(got, want):
    for name in FIELDS:
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


def _checked_level(calls: list, index):
    """``merge_pairs`` and ``gather_level`` that also run the oracle and
    assert they agree; ``index`` numbers the search's level 1."""
    array_merge, array_gather = lattice.merge_pairs, lattice.gather_level

    def merge_pairs(rows, conflicts):
        left, right, merged, tried = array_merge(rows, conflicts)
        want, want_tried = oracle.merges_of([index.pattern(row) for row in rows])
        assert tried == want_tried
        assert list(zip(left.tolist(), right.tolist())) == [(i, j) for i, j, _ in want]
        assert [index.pattern(row) for row in merged] == [pattern for _, _, pattern in want]
        calls.append(tried)
        return left, right, merged, tried

    def gather(level, left, right, rows, num_rows, support_threshold):
        got = array_gather(level, left, right, rows, num_rows, support_threshold)
        _assert_same_merges(
            got, oracle.gather_level(level, left, right, rows, num_rows, support_threshold)
        )
        return got

    return merge_pairs, gather


def _search(alphabet, estimator, monkeypatch, patches: dict, **kwargs):
    with monkeypatch.context() as patch:
        for name, value in patches.items():
            patch.setattr(lattice, name, value)
        return lattice.compute_candidates(alphabet, estimator, **kwargs)


def _assert_same_search(a, b):
    assert [s.pattern for s in a.candidates] == [s.pattern for s in b.candidates]
    assert [s.size for s in a.candidates] == [s.size for s in b.candidates]
    assert [s.responsibility for s in a.candidates] == [s.responsibility for s in b.candidates]
    assert [(lv.level, lv.num_candidates, lv.num_merges_tried) for lv in a.levels] == [
        (lv.level, lv.num_candidates, lv.num_merges_tried) for lv in b.levels
    ]
    assert a.num_evaluated == b.num_evaluated
    assert (a.record is None) == (b.record is None)
    if a.record is not None:
        for name, value in vars(a.record).items():
            np.testing.assert_array_equal(value, getattr(b.record, name), err_msg=name)


def _check_search(table, estimator, monkeypatch, support_threshold, **kwargs):
    calls: list[int] = []
    alphabet = PredicateAlphabet(table, support_threshold)
    index, _ = lattice.level_one(alphabet)
    merge_pairs, gather = _checked_level(calls, index)
    checked = _search(
        alphabet, estimator, monkeypatch,
        dict(merge_pairs=merge_pairs, gather_level=gather), **kwargs,
    )
    reference = _search(
        alphabet, estimator, monkeypatch, dict(gather_level=oracle.gather_level), **kwargs
    )
    _assert_same_search(checked, reference)
    return calls


@pytest.mark.parametrize("prune", [True, False], ids=["prune", "no_prune"])
@pytest.mark.parametrize("depth", [2, 3])
def test_german_levels_match_oracle(german_train, fo_estimator, monkeypatch, depth, prune):
    calls = _check_search(
        german_train.table, fo_estimator, monkeypatch,
        support_threshold=0.05, max_predicates=depth, prune_by_responsibility=prune,
    )
    assert len(calls) == depth - 1 and min(calls) > 0


@st.composite
def small_problems(draw):
    """Tables of n ≤ 60 rows and ≤ 4 columns, with a fitted estimator.

    The estimator measures the smooth surrogate: on tables this small the
    thresholded bias is often exactly zero, which no search may score."""
    n = draw(st.integers(min_value=12, max_value=60))
    num_columns = draw(st.integers(min_value=1, max_value=4))
    data = {}
    for c in range(num_columns):
        if draw(st.booleans()):
            values = st.integers(min_value=0, max_value=draw(st.integers(1, 6))).map(float)
        else:
            values = st.sampled_from("abcd"[: draw(st.integers(1, 4))])
        data[f"c{c}"] = draw(st.lists(values, min_size=n, max_size=n))
    table = Table.from_dict(data)
    seed = draw(st.integers(min_value=0, max_value=2**16))
    rng = np.random.default_rng(seed)
    X = TabularEncoder().fit(table).transform(table)
    y = rng.permutation(np.arange(n) % 2)
    model = LogisticRegression(l2_reg=1e-2).fit(X, y)
    ctx = FairnessContext(X=X, y=y, privileged=rng.random(n) < 0.5, favorable_label=1)
    estimator = make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx, evaluation="smooth"
    )
    return table, estimator


@settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(
    problem=small_problems(),
    depth=st.integers(min_value=2, max_value=4),
    prune=st.booleans(),
    tau=st.sampled_from([0.0, 0.05, 0.2]),
)
def test_random_tables_match_oracle(problem, depth, prune, tau, monkeypatch):
    table, estimator = problem
    if estimator.baseline == 0.0:
        # A model that ignores every feature has no bias to explain.
        with pytest.raises(ZeroDivisionError, match="bias is zero"):
            lattice.compute_candidates(PredicateAlphabet(table, tau), estimator)
        return
    _check_search(
        table, estimator, monkeypatch,
        support_threshold=tau, max_predicates=depth, prune_by_responsibility=prune,
    )


def test_enumeration_order_matches_mergeable_pairs():
    """The raw pair sequence, before any filter, follows the oracle's."""
    a, b, c, d = (Predicate(f, "=", 1) for f in "abcd")
    patterns = [Pattern([a, b]), Pattern([a, c]), Pattern([b, c]), Pattern([c, d]), Pattern([a, d])]
    index, _ = lattice.PredicateIndex.of([a, b, c, d])
    ids = {p: i for i, p in enumerate(index.predicates)}
    rows = np.array([[ids[p] for p in pattern.predicates] for pattern in patterns])
    left, right, merged, tried = lattice.merge_pairs(rows, index.conflicts)
    expected = list(oracle._mergeable_pairs([(pattern,) for pattern in patterns]))
    assert tried == len(expected)
    # Every pair here merges into a fresh, satisfiable triple except the
    # repeats of abc / acd / ..., which keep only their first producer.
    seen, first = set(), []
    for i, j in expected:
        triple = patterns[i].merge(patterns[j])
        if triple not in seen:
            seen.add(triple)
            first.append((i, j))
    assert list(zip(left.tolist(), right.tolist())) == first
    assert [index.pattern(row) for row in merged] == [
        patterns[i].merge(patterns[j]) for i, j in first
    ]


def test_pair_skeleton_is_the_level_two_enumeration(german_train):
    """The delta-audit skeleton reuses the lattice's level-1 merges."""
    alphabet = PredicateAlphabet(german_train.table, 0.05, 4)
    left, right = alphabet.pair_skeleton()
    want, _ = oracle.merges_of([Pattern([predicate]) for predicate, _ in alphabet.entries])
    assert list(zip(left.tolist(), right.tolist())) == [(i, j) for i, j, _ in want]


def test_replay_geometry_is_the_oracle_level_two_after_an_edit(german_train):
    """The delta replay's level 2 over the cached skeleton, after an edit
    that keeps the entry list, is the oracle's enumeration and gather over
    the patched alphabet's level 1."""
    alphabet = PredicateAlphabet(german_train.table, 0.05, 4)
    skeleton = alphabet.pair_skeleton()
    edit = random_edit(german_train, "remove", count=8, seed=3)
    alphabet.apply_edit(edit, german_train.apply_edit(edit).table)
    assert alphabet.pair_skeleton() is skeleton

    geometry = replay_geometry(alphabet, max_predicates=2)
    index, level1 = lattice.level_one(alphabet)
    want, tried = oracle.merges_of([index.pattern(row) for row in level1.rows])
    assert geometry.num_skeleton == len(want) and tried > len(want)
    left = np.array([i for i, _, _ in want], dtype=np.int64)
    right = np.array([j for _, j, _ in want], dtype=np.int64)
    ids = {predicate: i for i, predicate in enumerate(index.predicates)}
    rows = np.array([sorted(ids[p] for p in pattern.predicates) for _, _, pattern in want])
    _assert_same_merges(
        geometry.merges,
        oracle.gather_level(level1, left, right, rows, alphabet.num_rows, 0.05),
    )
    assert 0 < len(geometry.merges.positions) < geometry.num_skeleton
    # A depth-1 search gathers no level 2.
    assert len(replay_geometry(alphabet, max_predicates=1).merges.positions) == 0
