"""The closed miner's representations must be invisible in its results.

The miner has one traversal.  Inside it, a branch whose extent has shrunk
below ``1/_PROJECT_SHRINK`` of its space is re-packed into a conditional
database, and a tidlist below the ``1/SPARSE_DENSITY`` density cutoff of
``repro.mining.bitset`` switches to sorted row indices (for keys, for
co-parent refinement and for scoring).  Two references pin that neither
changes an answer, across randomized instances — including support
thresholds below the density cutoff, where index tidlists actually carry
survivors:

* **representation invariance** — each instance is mined again with
  projection switched off, with index tidlists switched off, and with
  both; every run must visit the same closed extents and emit identical
  candidates, scores, masks and evaluation counts, and must show that
  its switch took effect;
* **the lattice**, an independent engine, in the settings where the two
  engines agree by construction (pruning off at depth 3, pruning on at
  depth 2): the same set of extents, each under the same canonically
  smallest pattern, with the same responsibility.

The search keys extents through its alphabet's
:class:`~repro.mining.alphabet.ExtentIdentities` store, which every query
on the alphabet shares until an edit empties it; sharing, emptying and
missing the store must not change a single candidate either.
"""

import functools
import sys

import numpy as np
import pytest

import repro.mining.bitset as bitset
import repro.mining.closed as closed
from repro.datasets import DataEdit, load_synth_scale
from repro.datasets._synth import bernoulli
from repro.datasets.encoding import TabularEncoder
from repro.fairness import FairnessContext, get_metric, list_metrics
from repro.influence import make_estimator
from repro.mining import mine_closed_candidates, unpack_rows
from repro.mining.alphabet import ExtentIdentities, PredicateAlphabet
from repro.models import LogisticRegression
from repro.obs.trace import Tracer, tracing
from repro.patterns import compute_candidates
from repro.tabular import Table


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


def synth_scale_instance(n=20_000):
    """``synth_scale`` (seed 0): 40 regions and 12 channels of ~2.5% and
    ~8% support, so depth-2 and depth-3 branches project into small
    conditional databases whose extents are sparse even locally."""
    data = load_synth_scale(n, seed=0)
    table = data.table
    X = TabularEncoder().fit(table).transform(table)
    model = LogisticRegression(l2_reg=1e-3).fit(X, data.labels)
    ctx = FairnessContext(
        X=X, y=data.labels, privileged=table.column("group").values == "A", favorable_label=1
    )
    estimator = make_estimator(
        "first_order", model, X, data.labels, get_metric("statistical_parity"), ctx
    )
    return table, estimator


@functools.lru_cache(maxsize=None)
def instance(kind, *args):
    """A cached (table, estimator) pair; the tests only read it."""
    build = {
        "correlated": correlated_instance,
        "scale": scale_instance,
        "synth_scale": synth_scale_instance,
    }[kind]
    return build(*args)


#: (instance, τ, depth) triples: seeds 0–3 at two support floors, a deeper
#: search below the density cutoff, and the instance whose co-parents
#: compress to index form.
DEPTH3_INSTANCES = [
    *(
        pytest.param(("scale", seed), tau, 3, id=f"scale{seed}-tau{tau}")
        for seed in range(4)
        for tau in (0.05, 0.02)
    ),
    pytest.param(("correlated",), 0.015, 3, id="correlated-tau0.015"),
]
INSTANCES = [
    *DEPTH3_INSTANCES,
    pytest.param(("scale", 17, 900), 0.02, 4, id="scale17-n900-tau0.02-depth4"),
]

#: A shrink factor or density no extent reaches: the switch is off.
OFF = 2**60

#: Each representation switch and the counters that must read 0 with it off.
SWITCHES = {
    "projection": ["projection_builds"],
    "index": ["tidlist_compressions", "sparse_dispatch_hits"],
    "both": ["projection_builds", "tidlist_compressions", "sparse_dispatch_hits"],
}


def switch_off(monkeypatch, switch):
    if switch in ("projection", "both"):
        monkeypatch.setattr(closed, "_PROJECT_SHRINK", OFF)
    if switch in ("index", "both"):
        monkeypatch.setattr(bitset, "SPARSE_DENSITY", OFF)


def mine_counted(spec, tau, depth):
    """Mine ``spec`` on a fresh alphabet: (result, closed extents, counters)."""
    table, estimator = instance(*spec)
    alphabet = PredicateAlphabet(table, tau, 4, None)
    result, closed_extents = mine(alphabet, estimator, max_predicates=depth)
    counters = {name: alphabet._stats[name] for name in SWITCHES["both"]}
    return result, closed_extents, counters


default_run = functools.lru_cache(maxsize=None)(mine_counted)


def by_extent(candidates):
    """Candidates grouped by packed mask: each extent's canonically
    smallest pattern (Algorithm 2's tie-break order) and its
    responsibility."""
    out = {}
    for c in candidates:
        key = c._packed_mask.tobytes()
        best = out.get(key)
        if best is None or c.pattern.sort_key() < best[0].sort_key():
            out[key] = (c.pattern, c.responsibility)
    return out


def mine(alphabet, estimator, **kwargs):
    """Mine under a tracer; the number of closed extents visited rides the
    ``mining.frontier`` span."""
    tracer = Tracer()
    with tracing(tracer):
        result = mine_closed_candidates(alphabet, estimator, **kwargs)
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


class TestRepresentationInvariance:
    @pytest.mark.parametrize("switch", list(SWITCHES))
    @pytest.mark.parametrize("spec,tau,depth", INSTANCES)
    def test_switching_a_representation_off_changes_nothing(
        self, monkeypatch, spec, tau, depth, switch
    ):
        result, closed_extents, counters = default_run(spec, tau, depth)
        assert result.candidates  # non-vacuous instance
        # The default used what the switch turns off.  Index tidlists need
        # an extent at or below the density cutoff, which only a support
        # floor below it admits.
        if switch != "index":
            assert counters["projection_builds"] > 0
        if switch != "projection" and tau * bitset.SPARSE_DENSITY < 1:
            assert counters["tidlist_compressions"] > 0
        switch_off(monkeypatch, switch)
        variant, variant_closed, variant_counters = mine_counted(spec, tau, depth)
        assert_identical((result, closed_extents), (variant, variant_closed))
        for name in SWITCHES[switch]:
            assert variant_counters[name] == 0, name

    def test_packed_alphabet_equivalence(self):
        """An alphabet whose miner views were built ahead of the search
        feeds the same mining results as one the search packs itself."""
        table, estimator = scale_instance(5)
        warmed = PredicateAlphabet(table, 0.03, 4, None).warm()
        a = mine(PredicateAlphabet(table, 0.03, 4, None), estimator, max_predicates=3)
        b = mine(warmed, estimator, max_predicates=3)
        assert_identical(a, b)


class TestIndexTidlistsInConditionalDatabases:
    """A conditional database holds at most ``1/_PROJECT_SHRINK`` (1/8) of
    its parent's rows, and an extent takes index form once count·32 is at
    most the rows of its space, so a search keys an index tidlist inside a
    conditional database only when its support floor is below 1/256 of
    the rows — below every instance above.  ``synth_scale`` at 20,000 rows
    and τ = 0.002 (a 40-row floor) keys dozens."""

    def test_local_index_keys_are_global_identities(self, monkeypatch):
        """The search keys those tidlists, returns what the projection-off
        and index-off searches return, and stores the key of every item path
        that the projection-off search, keying in global coordinates only,
        stores for it."""
        table, estimator = instance("synth_scale")
        tau = 0.002
        search = dict(max_predicates=3)
        keyed = []

        def probe(tid):
            """``is_sparse``, noting each index tidlist ``space_key`` digests
            in a conditional database (a space with its own row map)."""
            sparse = bitset.is_sparse(tid)
            caller = sys._getframe(1)
            if (
                sparse
                and caller.f_code.co_name == "space_key"
                and caller.f_locals["space"].rows is not None
            ):
                keyed.append(tid.size)
            return sparse

        default = PredicateAlphabet(table, tau, 4, None)
        with monkeypatch.context() as patch:
            patch.setattr(closed, "is_sparse", probe)
            reference = mine(default, estimator, **search)
        assert keyed, "no index tidlist was keyed inside a conditional database"
        assert reference[0].candidates
        for switch in ("projection", "index"):
            with monkeypatch.context() as patch:
                switch_off(patch, switch)
                alphabet = PredicateAlphabet(table, tau, 4, None)
                assert_identical(reference, mine(alphabet, estimator, **search))
            for name in SWITCHES[switch]:
                assert alphabet._stats[name] == 0, name
            if switch == "projection":
                stored = alphabet.extent_identities()
                assert default.extent_identities().paths == stored.paths
                assert default.extent_identities().generators == stored.generators


class TestLatticeReference:
    """Without pruning, both engines report every extent above τ under its
    smallest pattern; at depth 2 the miner's DFS parent and extension item
    are exactly the lattice's merge pair.  (At depth 3 with pruning the
    engines can differ — see :mod:`repro.mining.closed` — so that setting
    is not asserted.)"""

    @pytest.mark.parametrize(
        "prune,search_depth",
        [pytest.param(False, 3, id="unpruned-depth3"), pytest.param(True, 2, id="pruned-depth2")],
    )
    @pytest.mark.parametrize("spec,tau,depth", DEPTH3_INSTANCES)
    def test_miner_extents_match_the_lattice(self, spec, tau, depth, prune, search_depth):
        table, estimator = instance(*spec)
        alphabet = PredicateAlphabet(table, tau)
        search = dict(max_predicates=search_depth, prune_by_responsibility=prune)
        mined = mine_closed_candidates(alphabet, estimator, **search).candidates
        lattice = by_extent(compute_candidates(alphabet, estimator, **search).candidates)
        extents = by_extent(mined)
        assert len(extents) == len(mined)  # one candidate per extent
        assert extents.keys() == lattice.keys()
        for key, (pattern, responsibility) in lattice.items():
            mined_pattern, mined_responsibility = extents[key]
            assert str(mined_pattern) == str(pattern)
            assert abs(mined_responsibility - responsibility) <= 1e-12


class TestObservabilityAndCounters:
    def test_projection_spans_and_counters(self, monkeypatch):
        """The search counts its conditional databases and co-parent
        builds on the frontier span instead of opening one span per
        database or node, and every co-parent lookup is answered by the
        identity store or by a dispatch that runs.

        A search whose store misses every lookup, and which builds no
        conditional database (inside one a co-parent can be the whole
        space, which needs no refinement), dispatches every co-parent
        lookup, so its dispatch count is the lookup count.  A repeat search
        on the same alphabet keys nothing anew and returns the same
        candidates.
        """
        table, estimator = correlated_instance()
        search = dict(max_predicates=3)
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        tracer = Tracer()
        with tracing(tracer):
            first = mine_closed_candidates(alphabet, estimator, **search)
        names = {span.name for span in tracer.walk()}
        assert "mining.project" not in names
        assert "mining.sparse_and" not in names
        stats = alphabet._stats
        assert stats["projection_builds"] > 0
        assert stats["identity_hits"] > 0
        assert stats["identity_misses"] > 0

        (frontier,) = (s for s in tracer.walk() if s.name == "mining.frontier")
        assert frontier.attrs["projections"] == stats["projection_builds"]
        assert frontier.attrs["coparent_nodes"] > 0
        assert frontier.attrs["coparents_built"] >= 2 * frontier.attrs["coparent_nodes"]
        dispatches = stats["sparse_dispatch_hits"] + stats["dense_dispatch_hits"]

        misses, hits = stats["identity_misses"], stats["identity_hits"]
        second = mine_closed_candidates(alphabet, estimator, **search)
        assert stats["identity_misses"] == misses
        assert stats["identity_hits"] > hits
        assert stats["identity_builds"] == 1
        assert_bit_identical(first, second)

        monkeypatch.setattr(ExtentIdentities, "key_of", lambda self, path: None)
        switch_off(monkeypatch, "projection")
        missed = PredicateAlphabet(table, 0.015, 4, None)
        mine_closed_candidates(missed, estimator, **search)
        lookups = missed._stats["sparse_dispatch_hits"] + missed._stats["dense_dispatch_hits"]
        assert lookups > 0
        assert frontier.attrs["coparent_hits"] + dispatches == lookups

    def test_frontier_children_are_batches(self):
        """Inside the frontier the only spans are the scoring batches: the
        conditional databases the search builds are a count, not spans."""
        table, estimator = correlated_instance()
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        tracer = Tracer()
        with tracing(tracer):
            mine_closed_candidates(alphabet, estimator, max_predicates=3)
        (frontier,) = (s for s in tracer.walk() if s.name == "mining.frontier")
        assert frontier.children
        assert {child.name for child in frontier.children} == {"mining.batch"}
        assert alphabet._stats["projection_builds"] > 0
        assert frontier.attrs["projections"] == alphabet._stats["projection_builds"]

    def test_store_misses_run_both_dispatches(self, monkeypatch):
        """With every store lookup missing, each co-parent refinement runs —
        sparse and dense both — and the candidates do not change."""
        table, estimator = correlated_instance()
        search = dict(max_predicates=3)
        reference = mine_closed_candidates(
            PredicateAlphabet(table, 0.015, 4, None), estimator, **search
        )
        monkeypatch.setattr(ExtentIdentities, "key_of", lambda self, path: None)
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        missed = mine_closed_candidates(alphabet, estimator, **search)
        assert_bit_identical(reference, missed)
        assert alphabet._stats["identity_hits"] == 0
        assert alphabet._stats["sparse_dispatch_hits"] > 0
        assert alphabet._stats["dense_dispatch_hits"] > 0


class TestSharedIdentityStore:
    SEARCH = dict(max_predicates=3)

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
            alone = mine_closed_candidates(own, estimator, **self.SEARCH)
            reused = mine_closed_candidates(shared, estimator, **self.SEARCH)
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
        search = dict(prune_by_responsibility=False)
        shared = PredicateAlphabet(table, 0.015, 4, None)
        for depth in (3, 2, 4):
            alone = mine_closed_candidates(
                PredicateAlphabet(table, 0.015, 4, None), estimator, max_predicates=depth, **search
            )
            reused = mine_closed_candidates(shared, estimator, max_predicates=depth, **search)
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
        before = mine_closed_candidates(alphabet, estimator, **self.SEARCH)
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
        after = mine_closed_candidates(alphabet, edited_estimator, **self.SEARCH)
        fresh = mine_closed_candidates(
            PredicateAlphabet(edited, 0.02, 4, exclude), edited_estimator, **self.SEARCH
        )
        assert_bit_identical(fresh, after)
        # The edit shrank an extent the first search keyed and emitted.
        assert deep.pattern.mask(edited).sum() == deep.size - len(removed)
        # The edit emptied the store in place; the search built no other.
        assert alphabet._stats["identity_builds"] == 1
