"""End-to-end observability acceptance on a German-credit audit.

One traced audit must tell a complete cost story: every query's leaf
spans are the named search stages, exactly one query pays the GEMM/solve
FLOPs for the shared extent set (in the exact kernel) while the rest are
served entirely from the session's extent caches, the combined export
passes the same validator CI runs over ``--trace-out`` files, and the
trace stays bounded: the audit opens spans per batch, never per subset,
so leaving the instrumentation in the hot loops is free.
"""

import itertools
from collections import Counter

import numpy as np
import pytest

from repro.core import AuditSession
from repro.datasets import random_edit
from repro.obs import trace
from repro.obs.trace import Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)
LIFECYCLE_METRICS = ["statistical_parity", "equal_opportunity"]
# Leaves the level-1 alphabet stable on the fixture split, so every delta
# query is a certified replay.
EDIT_SEED = 3


@pytest.fixture(scope="module")
def traced_audit(lr_model, german_train, german_test):
    session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
    tracer = Tracer()
    with trace.tracing(tracer):
        result = session.audit(k=2, verify=False)
    return session, tracer, result


@pytest.fixture(scope="module")
def traced_mining_audit(lr_model, german_train, german_test):
    """A first-order miner audit at depth 3: the closed miner's frontier,
    conditional databases and generator replay, traced."""
    session = AuditSession(
        lr_model, estimator="first_order", engine="mining",
        max_predicates=3, support_threshold=0.05,
    ).fit(german_train, german_test)
    tracer = Tracer()
    with trace.tracing(tracer):
        result = session.audit(k=2, verify=False)
    return session, tracer, result


@pytest.fixture(scope="module")
def traced_exact_mining_audit(lr_model, german_train, german_test):
    """An exact miner audit at depth 3: packed flush groups through the
    exact kernel, traced."""
    session = AuditSession(
        lr_model, engine="mining", max_predicates=3, support_threshold=0.05
    ).fit(german_train, german_test)
    tracer = Tracer()
    with trace.tracing(tracer):
        result = session.audit(k=2, verify=False)
    return session, tracer, result


def run_lifecycle(lr_model, train, test):
    """A session's fit, an audit, a verified update search and a delta audit."""
    session = AuditSession(lr_model, retrain_jobs=1, **SEARCH).fit(train, test)
    result = session.audit(metrics=LIFECYCLE_METRICS, k=2, verify=False)
    updates = session.explainer(metric=LIFECYCLE_METRICS[0]).explain_updates(
        result[0].explanations, verify=True, num_steps=10
    )
    edit = random_edit(session.train_data, "remove", count=4, seed=EDIT_SEED)
    delta = session.delta_audit(edit, metrics=LIFECYCLE_METRICS, k=2, recheck="never")
    return session, result, updates, delta


@pytest.fixture(scope="module")
def traced_lifecycle(lr_model, german_train, german_test):
    tracer = Tracer()
    with trace.tracing(tracer):
        run = run_lifecycle(lr_model, german_train, german_test)
    return tracer, run


def named(root, name: str) -> list:
    """Spans called ``name`` under a tracer or span, in depth-first order."""
    return [span for span in root.walk() if span.name == name]


class TestCostAttribution:
    def test_every_query_carries_a_cost_report(self, traced_audit):
        _, _, result = traced_audit
        assert len(result.queries) > 0
        for query in result.queries:
            assert query.cost is not None
            assert query.cost.name == "audit.query"
            assert query.cost.wall_seconds > 0

    def test_leaf_spans_are_the_expected_stages(self, traced_audit):
        """Every query's leaves are named stages, and the work sits where
        the cache says it should.

        Structural rather than a wall-clock ratio: every query runs the
        search stages; exactly one query — the one that pays for the
        shared extents — runs the exact kernel, which scores every extent
        it misses; and no query builds a per-subset solver.
        """
        _, tracer, result = traced_audit
        queries = [span for span in tracer.walk() if span.name == "audit.query"]
        assert len(queries) == len(result.queries)
        stages = {"lattice.gather", "lattice.prune", "influence.evaluate", "explain.filter"}
        solving = []
        for span in queries:
            leaves = Counter(node.name for node in span.walk() if not node.children)
            assert stages <= set(leaves)
            assert "influence.subset_hessian" not in leaves
            assert leaves["hessian.factorize"] <= 1  # the shared solver, built once
            if "hessian.reduced_solve" in leaves:
                solving.append(span)
        assert len(solving) == 1
        solved = sum(
            node.attrs["subsets"]
            for node in solving[0].walk()
            if node.name == "hessian.reduced_solve"
        )
        paying = [q.cost for q in result.queries if q.cost.gemm_flops > 0]
        assert 0 < solved <= paying[0].cache_misses
        assert len({q.cost.influence_evaluations for q in result.queries}) == 1

    def test_flops_evaluations_and_cache_hits(self, traced_audit):
        """One query pays the linear algebra; the rest ride the extent cache.

        The grid's metrics all score the same candidate extents, so the
        first query computes every Δθ (nonzero GEMM/solve FLOPs, extent
        cache misses) and each later query is served entirely from the
        session's extent caches — zero fresh FLOPs, perfect hit ratio.
        """
        _, _, result = traced_audit
        costs = [query.cost for query in result.queries]
        for cost in costs:
            assert cost.influence_evaluations > 0
            assert cost.cache_hits > 0
        paying = [cost for cost in costs if cost.gemm_flops > 0]
        assert len(paying) == 1  # one GEMM per distinct extent set, not per metric
        assert paying[0].solve_flops > 0
        assert paying[0].cache_misses > 0
        for cost in costs:
            if cost is paying[0]:
                continue
            assert cost.gemm_flops == 0
            assert cost.solve_flops == 0
            assert cost.cache_hit_ratio == 1.0
        total_hits = sum(cost.cache_hits for cost in costs)
        total_misses = sum(cost.cache_misses for cost in costs)
        assert total_hits / (total_hits + total_misses) > 0.5

    def test_cost_is_none_when_tracing_disabled(self, lr_model, german_train, german_test):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        result = session.audit(
            metrics=["statistical_parity"], k=1, verify=False
        )
        assert all(query.cost is None for query in result.queries)


class TestTraceShape:
    def test_span_tree_has_the_expected_stages(self, traced_audit):
        _, tracer, _ = traced_audit
        names = {span.name for span in tracer.walk()}
        assert {"audit.grid", "audit.query", "explain.search",
                "explain.filter"} <= names
        # The estimator's batch entry point ran on the lattice's packed rows.
        assert "influence.batch" in names

    def test_export_passes_the_ci_validator(self, traced_audit):
        validate_trace = pytest.importorskip("tools.validate_trace")
        _, tracer, _ = traced_audit
        summary = validate_trace.validate(tracer.export())
        assert summary.startswith("ok:")

    def test_query_seconds_cover_their_span(self, traced_lifecycle):
        """Every reported duration is read off the span that brackets its
        work, so it equals that span's duration exactly."""
        tracer, (session, result, updates, delta) = traced_lifecycle
        (fit,) = named(tracer, "session.fit")
        assert session.setup_seconds == result.setup_seconds == fit.seconds > 0

        queries = named(tracer, "audit.query")
        assert len(queries) == len(result.queries)
        for query, span in zip(result.queries, queries):
            assert span.attrs["metric"] == query.metric
            assert query.seconds == span.seconds > 0
            (search,) = named(span, "explain.search")
            (selection,) = named(span, "explain.filter")
            assert query.explanations.search_seconds == search.seconds
            assert query.explanations.filter_seconds == selection.seconds
            levels = query.explanations.lattice.levels
            assert len(levels) == 2
            assert [lv.seconds for lv in levels] == [
                s.seconds for s in named(span, "lattice.level")
            ]

        (update_search,) = named(tracer, "update.search")
        (update_verify,) = named(tracer, "update.verify")
        assert updates.search_seconds == update_search.seconds > 0
        assert updates.verify_seconds == update_verify.seconds > 0

        (audit,) = named(tracer, "delta.audit")
        assert delta.seconds == audit.seconds > 0
        delta_queries = named(audit, "delta.query")
        assert len(delta_queries) == len(delta.queries)
        for query, after, span in zip(delta.queries, delta.after, delta_queries):
            assert query.certified
            assert query.seconds == after.seconds == span.seconds > 0
            (replay,) = named(span, "delta.replay")
            selections = named(span, "delta.filter")
            assert 1 <= len(selections) <= 2
            assert query.after.search_seconds == replay.seconds
            assert query.after.filter_seconds == sum(s.seconds for s in selections)


class TestUntracedDurations:
    def test_every_duration_reads_the_module_clock(
        self, lr_model, german_train, german_test, monkeypatch
    ):
        """With tracing off, spans still time themselves on ``trace.clock``.

        A fake clock that advances exactly 1.0 per read makes every
        reported duration a positive whole number of reads — which holds
        only if each one is a span's exit reading minus its entry reading.
        """
        ticks = itertools.count()
        monkeypatch.setattr(trace, "clock", lambda: float(next(ticks)))
        assert not trace.get_tracer().enabled
        session, result, updates, delta = run_lifecycle(lr_model, german_train, german_test)
        durations = [("setup", session.setup_seconds), ("setup", result.setup_seconds)]
        for query in result:
            explanations = query.explanations
            durations += [
                ("audit.query", query.seconds),
                ("explain.search", explanations.search_seconds),
                ("explain.filter", explanations.filter_seconds),
            ]
            durations += [("lattice.level", lv.seconds) for lv in explanations.lattice.levels]
        durations += [
            ("update.search", updates.search_seconds),
            ("update.verify", updates.verify_seconds),
            ("delta.audit", delta.seconds),
        ]
        for query in delta:
            assert query.certified
            durations += [
                ("delta.query", query.seconds),
                ("delta.replay", query.after.search_seconds),
                ("delta.filter", query.after.filter_seconds),
            ]
        assert len(durations) > 15
        for name, seconds in durations:
            assert seconds >= 1.0 and seconds == int(seconds), (name, seconds)
        assert all(query.cost is None for query in result)


class TestEditedGradientNorm:
    @pytest.mark.parametrize("kind", ["relabel", "remove", "add"])
    def test_delta_audit_span_carries_gradient_norms(
        self, kind, lr_model, german_train, german_test
    ):
        """``apply_edit`` never refits, so the ``delta.audit`` span records
        ‖∇L(θ; D)‖ before and after the edit, read off the patched
        per-sample gradients; each equals recomputing them from scratch."""
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        metrics = LIFECYCLE_METRICS[:1]
        session.audit(metrics=metrics, k=2, verify=False)
        X, y = session.X_train, session.train_data.labels
        edit = random_edit(session.train_data, kind, count=8, seed=EDIT_SEED)
        tracer = Tracer()
        with trace.tracing(tracer):
            session.delta_audit(edit, metrics=metrics, k=2)
        (span,) = named(tracer, "delta.audit")

        def norm(X, y):
            return np.linalg.norm(session.model.per_sample_grads(X, y).mean(axis=0))

        before, after = span.attrs["grad_norm_before"], span.attrs["grad_norm_after"]
        assert before == pytest.approx(norm(X, y), rel=1e-12, abs=1e-15)
        assert after == pytest.approx(
            norm(session.X_train, session.train_data.labels), rel=1e-12, abs=1e-15
        )
        assert after > before

    def test_untraced_delta_audit_computes_no_norm(
        self, lr_model, german_train, german_test, monkeypatch
    ):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)

        def refuse(self):
            raise AssertionError("gradient norm computed with tracing off")

        monkeypatch.setattr(AuditSession, "_gradient_norm", refuse)
        assert not trace.get_tracer().enabled
        edit = random_edit(session.train_data, "remove", count=8, seed=EDIT_SEED)
        session.delta_audit(edit, metrics=LIFECYCLE_METRICS[:1], k=2)


class TestDisabledOverhead:
    @pytest.mark.parametrize(
        "audit", ["traced_audit", "traced_mining_audit", "traced_exact_mining_audit"]
    )
    def test_span_count_is_under_1pct_of_subsets_scored(self, request, audit):
        """Spans are opened per batch and per stage, never per subset.

        Structural rather than a wall-clock ratio: the audit scores
        thousands of candidate subsets, and the trace must stay two orders
        of magnitude smaller — a span per scored subset (say, one per
        kernel solve, or one per conditional database the miner builds)
        would break the bound at once, on any machine.  Both engines, and
        the miner with both a gather-sum and a kernel estimator.
        """
        _, tracer, result = request.getfixturevalue(audit)
        scored = sum(query.cost.influence_evaluations for query in result.queries)
        assert scored > 1000
        assert tracer.span_count() < 0.01 * scored, (
            f"{tracer.span_count()} spans for {scored} scored subsets"
        )

    def test_disabled_helpers_return_self_timing_spans(self):
        with trace.span("anything", k=1) as span:
            assert trace.add("gemm_flops", 5.0) is None
            assert trace.get_tracer().current() is None  # joined no tree
        assert span.set(metric="spd") is span
        assert not hasattr(span, "attrs")  # recorded no attributes
        assert span.seconds >= 0.0
