"""The array gather equals the per-merge reference gather.

``repro.patterns.lattice.gather_level`` enumerates, deduplicates, checks
and ANDs a whole level on arrays.  ``oracles.lattice_gather`` keeps the
per-merge loop it replaced.  Every level of a search runs through both on
the same input, and the merges must agree field for field: pair sequence,
merged patterns, packed masks, sizes, collapse codes, parent bars and
pairs tried.  Pair order is part of the answer — heuristic 2 takes a
candidate's bar from the first pair that produces it — so it is compared
exactly.  A whole search with the oracle swapped in must also return the
same candidates, level stats and :class:`LatticeRecord`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import lattice_gather as oracle

from repro.datasets import TabularEncoder
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.mining.alphabet import PredicateAlphabet
from repro.models import LogisticRegression
from repro.patterns import lattice
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table

FIELDS = ("left", "right", "rows", "packed", "sizes", "known", "bars")


def _checked_gather(calls: list):
    """``gather_level`` that also runs the oracle and asserts they agree."""
    array_gather = lattice.gather_level

    def gather(level, index, num_rows, support_threshold, max_responsibility):
        got = array_gather(level, index, num_rows, support_threshold, max_responsibility)
        want = oracle.gather_level(level, index, num_rows, support_threshold, max_responsibility)
        for name in FIELDS:
            np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)
        assert got.tried == want.tried
        calls.append(got.tried)
        return got

    return gather


def _search(table, estimator, monkeypatch, gather, **kwargs):
    with monkeypatch.context() as patch:
        patch.setattr(lattice, "gather_level", gather)
        return lattice.compute_candidates(table, estimator, **kwargs)


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


def _check_search(table, estimator, monkeypatch, **kwargs):
    calls: list[int] = []
    checked = _search(table, estimator, monkeypatch, _checked_gather(calls), **kwargs)
    reference = _search(table, estimator, monkeypatch, oracle.gather_level, **kwargs)
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
            lattice.compute_candidates(table, estimator, support_threshold=tau)
        return
    _check_search(
        table, estimator, monkeypatch,
        support_threshold=tau, max_predicates=depth, prune_by_responsibility=prune,
        min_responsibility=-np.inf,
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
    entries = [(Pattern([predicate]),) for predicate, _ in alphabet.entries]
    seen, expected = set(), []
    for i, j in oracle._mergeable_pairs(entries):
        merged = entries[i][0].merge(entries[j][0])
        if len(merged) != 2 or merged in seen:
            continue
        seen.add(merged)
        if merged.is_satisfiable():
            expected.append((i, j))
    assert list(zip(left.tolist(), right.tolist())) == expected
