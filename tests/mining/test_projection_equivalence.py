"""Conditional-database projection must be invisible in the results.

``projection="never"`` is the flat traversal; ``"auto"`` re-packs
shrunken branches into local coordinate spaces, swaps extent identity to
digests, and streams sparse extents to the estimator as index batches.
Across randomized instances — including support thresholds below the
1/SPARSE_DENSITY density cutoff, where the sparse representation actually
carries survivors — both modes must visit the same closed extents and emit
identical candidates, scores, masks, and evaluation counts.

The projected (digest) search keys extents through its alphabet's
:class:`~repro.mining.alphabet.ExtentIdentities` store, which every query
on the alphabet shares until an edit empties it; sharing, emptying and
missing the store must not change a single candidate either.
"""

import numpy as np
import pytest

from repro.datasets import DataEdit
from repro.datasets._synth import bernoulli
from repro.datasets.encoding import TabularEncoder
from repro.fairness import FairnessContext, get_metric, list_metrics
from repro.influence import make_estimator
from repro.mining import mine_closed_candidates, unpack_rows
from repro.mining.alphabet import ExtentIdentities, PredicateAlphabet
from repro.models import LogisticRegression
from repro.obs.trace import Tracer, tracing
from repro.tabular import Table

MODES = ("never", "auto")


@pytest.fixture(autouse=True)
def _auto_projects_at_test_scale(request, monkeypatch):
    """"auto" falls back to the flat search below _AUTO_DIGEST_MIN_ROWS
    (131072 rows); these instances are hundreds of rows, so drop the gate
    to exercise the projected machinery.  TestAutoGate opts out to pin the
    gate itself."""
    if request.node.get_closest_marker("keep_auto_gate"):
        return
    import repro.mining.closed as closed_mod

    monkeypatch.setattr(closed_mod, "_AUTO_DIGEST_MIN_ROWS", 0)


def scale_instance(seed, n=700, metric="statistical_parity"):
    """A mid-sized instance whose deep extents cross the density cutoff."""
    rng = np.random.default_rng(seed)
    cats = np.array([f"c{i}" for i in range(8)], dtype=object)
    regions = np.array([f"r{i}" for i in range(10)], dtype=object)
    table = Table.from_dict(
        {
            "group": rng.choice(np.array(["A", "B"], dtype=object), size=n, p=[0.65, 0.35]),
            "cat": cats[rng.integers(0, len(cats), n)],
            "region": regions[rng.integers(0, len(regions), n)],
            "flag": rng.choice(np.array(["Yes", "No"], dtype=object), size=n, p=[0.2, 0.8]),
            "score": rng.normal(50, 12, size=n).round(1),
        }
    )
    b = table.column("group").values == "B"
    flagged = table.column("flag").values == "Yes"
    logits = (
        0.05 * (table.column("score").values - 50)
        - 1.8 * (b & flagged)
        - 0.3 * b
    )
    y = bernoulli(logits, rng)
    if len(np.unique(y)) < 2:  # pragma: no cover - seed guard
        y[: n // 2] = 1 - y[: n // 2]
    encoder = TabularEncoder().fit(table)
    X = encoder.transform(table)
    model = LogisticRegression(l2_reg=1e-3).fit(X, y)
    ctx = FairnessContext(X=X, y=y, privileged=~b, favorable_label=1)
    estimator = make_estimator("first_order", model, X, y, get_metric(metric), ctx)
    return table, estimator


def correlated_instance(seed=0, n=900, k=40):
    """Three noisy copies of a 40-way latent code: item extents land below
    the sparse-density cutoff (~22 of 900 rows), yet pairs still clear a
    1.5% support floor — the regime where co-parents compress to index
    form and the sparse dispatch actually fires."""
    rng = np.random.default_rng(seed)
    latent = rng.integers(0, k, n)
    cats = np.array([f"v{i:02d}" for i in range(k)], dtype=object)

    def noisy():
        keep = rng.random(n) < 0.9
        return cats[np.where(keep, latent, rng.integers(0, k, n))]

    flag = rng.choice(np.array(["Yes", "No"], dtype=object), size=n, p=[0.2, 0.8])
    score = rng.normal(50, 12, size=n).round(1)
    table = Table.from_dict(
        {"a": noisy(), "b": noisy(), "c": noisy(), "flag": flag, "score": score}
    )
    logits = 0.05 * (score - 50) - 1.5 * (latent < 5) - 0.5 * (flag == "Yes")
    y = bernoulli(logits, rng)
    if len(np.unique(y)) < 2:  # pragma: no cover - seed guard
        y[: n // 2] = 1 - y[: n // 2]
    encoder = TabularEncoder().fit(table)
    X = encoder.transform(table)
    model = LogisticRegression(l2_reg=1e-3).fit(X, y)
    ctx = FairnessContext(X=X, y=y, privileged=flag == "No", favorable_label=1)
    estimator = make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx
    )
    return table, estimator


def mine(table, estimator, **kwargs):
    """Mine under a tracer; the number of closed extents visited rides the
    ``mining.frontier`` span."""
    tracer = Tracer()
    with tracing(tracer):
        result = mine_closed_candidates(table, estimator, **kwargs)
    (frontier,) = (s for s in tracer.walk() if s.name == "mining.frontier")
    return result, frontier.attrs["closed"]


def assert_identical(mined_a, mined_b):
    (a, closed_a), (b, closed_b) = mined_a, mined_b
    assert a.num_evaluated == b.num_evaluated
    assert closed_a == closed_b
    assert len(a.candidates) == len(b.candidates)
    for x, y in zip(a.candidates, b.candidates):
        assert str(x.pattern) == str(y.pattern)
        assert x.size == y.size
        assert x.support == y.support
        assert abs(x.responsibility - y.responsibility) < 1e-10
        assert abs(x.bias_change - y.bias_change) < 1e-10
        np.testing.assert_array_equal(x._packed_mask, y._packed_mask)


def assert_bit_identical(a, b):
    """Two search results agree exactly: evaluation count, level stats, and
    every candidate's pattern, size, support, scores (to the last bit) and
    mask."""

    def signature(result):
        return (
            result.num_evaluated,
            [(lv.level, lv.num_candidates, lv.num_merges_tried) for lv in result.levels],
            [
                (str(c.pattern), c.size, c.support, repr(c.responsibility),
                 repr(c.bias_change), c._packed_mask.tobytes())
                for c in result.candidates
            ],
        )

    assert signature(a) == signature(b)


class TestModeEquivalence:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("tau,depth", [(0.05, 3), (0.02, 3)])
    def test_modes_emit_identical_results(self, seed, tau, depth):
        table, estimator = scale_instance(seed)
        results = {
            mode: mine(
                table, estimator, support_threshold=tau,
                max_predicates=depth, projection=mode,
            )
            for mode in MODES
        }
        assert results["never"][0].candidates  # non-vacuous instance
        assert_identical(results["never"], results["auto"])

    def test_sparse_survivors_below_density_cutoff(self):
        """τ < 1/SPARSE_DENSITY forces surviving extents through the sparse
        index path; the flat mode must still be matched exactly."""
        table, estimator = scale_instance(17, n=900)
        never, auto = (
            mine(
                table, estimator, support_threshold=0.02,
                max_predicates=4, projection=mode,
            )
            for mode in MODES
        )
        assert_identical(never, auto)

    def test_correlated_sparse_coparents_equivalent(self):
        """The instance whose co-parents compress to index form must also
        match the flat traversal exactly."""
        table, estimator = correlated_instance()
        never, auto = (
            mine(
                table, estimator, support_threshold=0.015,
                max_predicates=3, projection=mode,
            )
            for mode in MODES
        )
        assert_identical(never, auto)

    def test_packed_alphabet_equivalence(self):
        """An alphabet built ahead of the search feeds the same mining
        results as the one the search builds for itself."""
        table, estimator = scale_instance(5)
        supplied = PredicateAlphabet(table, 0.03, 4, None)
        a = mine(table, estimator, support_threshold=0.03, max_predicates=3)
        b = mine(
            table, estimator, support_threshold=0.03, max_predicates=3, alphabet=supplied
        )
        assert_identical(a, b)

    @pytest.mark.parametrize("projection", ["sometimes", "always"])
    def test_invalid_projection_rejected(self, projection):
        table, estimator = scale_instance(2, n=400)
        with pytest.raises(ValueError, match="projection"):
            mine_closed_candidates(table, estimator, projection=projection)


class TestObservabilityAndCounters:
    def test_projection_spans_and_counters(self):
        """The projected search opens its spans, counts its co-parent
        builds on the frontier span instead of opening one span per node,
        and every co-parent lookup is answered by the identity store or by
        a dispatch that runs.

        The flat search walks the same traversal and dispatches every
        co-parent lookup, so its dispatch count is the lookup count.  A
        repeat search on the same alphabet keys nothing anew and returns
        the same candidates.
        """
        table, estimator = correlated_instance()
        search = dict(support_threshold=0.015, max_predicates=3)
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        tracer = Tracer()
        with tracing(tracer):
            first = mine_closed_candidates(
                table, estimator, projection="auto", alphabet=alphabet, **search
            )
        names = {span.name for span in tracer.walk()}
        assert "mining.project" in names
        assert "mining.sparse_and" not in names
        stats = alphabet._stats
        assert stats["projection_builds"] > 0
        assert stats["identity_hits"] > 0
        assert stats["identity_misses"] > 0

        (frontier,) = (s for s in tracer.walk() if s.name == "mining.frontier")
        assert frontier.attrs["coparent_nodes"] > 0
        assert frontier.attrs["coparents_built"] >= 2 * frontier.attrs["coparent_nodes"]
        dispatches = stats["sparse_dispatch_hits"] + stats["dense_dispatch_hits"]
        flat = PredicateAlphabet(table, 0.015, 4, None)
        mine_closed_candidates(table, estimator, projection="never", alphabet=flat, **search)
        lookups = flat._stats["dense_dispatch_hits"]
        assert flat._stats["sparse_dispatch_hits"] == 0
        assert lookups > 0
        assert frontier.attrs["coparent_hits"] + dispatches == lookups

        misses, hits = stats["identity_misses"], stats["identity_hits"]
        second = mine_closed_candidates(
            table, estimator, projection="auto", alphabet=alphabet, **search
        )
        assert stats["identity_misses"] == misses
        assert stats["identity_hits"] > hits
        assert stats["identity_builds"] == 1
        assert_bit_identical(first, second)

    def test_store_misses_run_both_dispatches(self, monkeypatch):
        """With every store lookup missing, each co-parent refinement runs —
        sparse and dense both — and the candidates do not change."""
        table, estimator = correlated_instance()
        search = dict(support_threshold=0.015, max_predicates=3, projection="auto")
        reference = mine_closed_candidates(
            table, estimator, alphabet=PredicateAlphabet(table, 0.015, 4, None), **search
        )
        monkeypatch.setattr(ExtentIdentities, "key_of", lambda self, path: None)
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        missed = mine_closed_candidates(table, estimator, alphabet=alphabet, **search)
        assert_bit_identical(reference, missed)
        assert alphabet._stats["identity_hits"] == 0
        assert alphabet._stats["sparse_dispatch_hits"] > 0
        assert alphabet._stats["dense_dispatch_hits"] > 0

    @pytest.mark.keep_auto_gate
    def test_auto_gate_runs_flat_below_min_rows(self):
        """On a small table, "auto" is byte-for-byte the flat search: no
        digest keys, no projections, no compressions — the overhead of the
        machinery is only paid where projection can pay for it."""
        table, estimator = scale_instance(3)
        alphabet = PredicateAlphabet(table, 0.05, 4, None)
        auto = mine(
            table, estimator, support_threshold=0.05,
            max_predicates=3, projection="auto", alphabet=alphabet,
        )
        never = mine(
            table, estimator, support_threshold=0.05,
            max_predicates=3, projection="never", alphabet=alphabet,
        )
        assert_identical(never, auto)
        assert alphabet._stats["projection_builds"] == 0
        assert alphabet._stats["tidlist_compressions"] == 0

    def test_never_mode_records_no_projection_work(self):
        table, estimator = scale_instance(7, n=400)
        alphabet = PredicateAlphabet(table, 0.05, 4, None)
        mine_closed_candidates(
            table, estimator, support_threshold=0.05,
            max_predicates=3, projection="never", alphabet=alphabet,
        )
        assert alphabet._stats["projection_builds"] == 0
        assert alphabet._stats["tidlist_compressions"] == 0


class TestSharedIdentityStore:
    SEARCH = dict(support_threshold=0.02, max_predicates=3, projection="auto")

    def test_metric_queries_share_one_store(self):
        """Four metric searches on one alphabet return, bit for bit, what
        each returns on an alphabet of its own, and the later ones reuse
        the identities the earlier ones keyed."""
        shared = None
        fresh_misses = 0
        for metric in list_metrics():
            table, estimator = scale_instance(5, metric=metric)
            if shared is None:
                shared = PredicateAlphabet(table, 0.02, 4, None)
            own = PredicateAlphabet(table, 0.02, 4, None)
            alone = mine_closed_candidates(table, estimator, alphabet=own, **self.SEARCH)
            reused = mine_closed_candidates(table, estimator, alphabet=shared, **self.SEARCH)
            assert_bit_identical(alone, reused)
            assert alone.candidates
            fresh_misses += own._stats["identity_misses"]
        assert shared._stats["identity_builds"] == 1
        assert 0 < shared._stats["identity_misses"] < fresh_misses

    def test_searches_of_other_depths_share_one_store(self):
        """Generator sets are keyed by depth as well as by extent: a depth-3
        search stores 3-item generators a depth-2 search must not report,
        and the reverse.  Pruning is off, so every extent is reported under
        the smallest of all its generators and a stale set shows at once."""
        table, estimator = correlated_instance()
        search = dict(support_threshold=0.015, projection="auto", prune_by_responsibility=False)
        shared = PredicateAlphabet(table, 0.015, 4, None)
        for depth in (3, 2, 4):
            alone = mine_closed_candidates(
                table, estimator, max_predicates=depth,
                alphabet=PredicateAlphabet(table, 0.015, 4, None), **search,
            )
            reused = mine_closed_candidates(
                table, estimator, max_predicates=depth, alphabet=shared, **search
            )
            assert_bit_identical(alone, reused)
        assert shared._stats["identity_builds"] == 1

    def test_row_edit_empties_the_store(self):
        """After a remove edit that shrinks a mined extent, mining on the
        patched alphabet equals mining on one built over the edited table.

        ``score`` is excluded so the edit cannot move a bin edge: the fresh
        alphabet then has exactly the patched alphabet's predicates.
        """
        table, estimator = scale_instance(2)
        exclude = {"score"}
        alphabet = PredicateAlphabet(table, 0.02, 4, exclude)
        before = mine_closed_candidates(
            table, estimator, alphabet=alphabet, exclude_features=exclude, **self.SEARCH
        )
        deep = max(
            (c for c in before.candidates if len(c.pattern) >= 2), key=lambda c: c.size
        )
        removed = np.flatnonzero(unpack_rows(deep._packed_mask, table.num_rows))[:10]
        edit = DataEdit.remove(removed)
        keep = np.ones(table.num_rows, dtype=bool)
        keep[removed] = False
        edited = table.take(np.flatnonzero(keep))
        alphabet.apply_edit(edit, edited)
        edited_estimator = make_estimator(
            "first_order", estimator.model, estimator.X_train[keep],
            estimator.y_train[keep], estimator.metric, estimator.test_ctx,
        )
        after = mine_closed_candidates(
            edited, edited_estimator, alphabet=alphabet, exclude_features=exclude,
            **self.SEARCH,
        )
        fresh = mine_closed_candidates(
            edited, edited_estimator, alphabet=PredicateAlphabet(edited, 0.02, 4, exclude),
            exclude_features=exclude, **self.SEARCH,
        )
        assert_bit_identical(fresh, after)
        # The edit shrank an extent the first search keyed and emitted.
        assert deep.pattern.mask(edited).sum() == deep.size - len(removed)
        # The edit emptied the store in place; the search built no other.
        assert alphabet._stats["identity_builds"] == 1
