"""Conditional-database projection must be invisible in the results.

``projection="never"`` is the flat traversal; ``"auto"`` re-packs
shrunken branches into local coordinate spaces, swaps extent identity to
digests, and streams sparse extents to the estimator as index batches.
Across randomized instances — including support thresholds below the
1/SPARSE_DENSITY density cutoff, where the sparse representation actually
carries survivors — both modes must visit the same closed extents and emit
identical candidates, scores, masks, and evaluation counts.
"""

import numpy as np
import pytest

from repro.datasets._synth import bernoulli
from repro.datasets.encoding import TabularEncoder
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.mining import mine_closed_candidates
from repro.mining.alphabet import PredicateAlphabet
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


def scale_instance(seed, n=700):
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
    estimator = make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx
    )
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
        table, estimator = correlated_instance()
        alphabet = PredicateAlphabet(table, 0.015, 4, None)
        tracer = Tracer()
        with tracing(tracer):
            mine_closed_candidates(
                table, estimator, support_threshold=0.015,
                max_predicates=3, projection="auto", alphabet=alphabet,
            )
        names = set()

        def walk(spans):
            for span in spans:
                names.add(span.name)
                walk(span.children)

        walk(tracer.roots)
        assert "mining.project" in names
        assert "mining.sparse_and" in names
        assert alphabet._stats["projection_builds"] > 0
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
