"""End-to-end observability acceptance on a German-credit audit.

One traced audit must tell a complete cost story: every query's leaf
spans are the named search stages, exactly one query pays the GEMM/solve
FLOPs for the shared extent set (in the exact kernel) while the rest are
served entirely from the session's extent caches, the combined export
passes the same validator CI runs over ``--trace-out`` files, and the
trace stays bounded: the audit opens spans per batch, never per subset,
so leaving the instrumentation in the hot loops is free.
"""

from collections import Counter

import pytest

from repro.core import AuditSession
from repro.obs import trace
from repro.obs.trace import NULL_SPAN, Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)


@pytest.fixture(scope="module")
def traced_audit(lr_model, german_train, german_test):
    session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
    tracer = Tracer()
    with trace.tracing(tracer):
        result = session.audit(k=2, verify=False)
    return session, tracer, result


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
        # The estimator's batch entry point ran in one of its two forms.
        assert names & {"influence.batch", "influence.batch_packed"}

    def test_export_passes_the_ci_validator(self, traced_audit):
        validate_trace = pytest.importorskip("tools.validate_trace")
        _, tracer, _ = traced_audit
        summary = validate_trace.validate(tracer.export())
        assert summary.startswith("ok:")

    def test_query_seconds_histogram_observed(self, traced_audit):
        session, _, result = traced_audit
        hist = session.metrics.snapshot()["histograms"]["audit.query_seconds"]
        assert hist["count"] >= len(result.queries)
        assert hist["sum"] > 0


class TestDisabledOverhead:
    def test_span_count_is_under_1pct_of_subsets_scored(self, traced_audit):
        """Spans are opened per batch and per stage, never per subset.

        Structural rather than a wall-clock ratio: the audit scores
        thousands of candidate subsets, and the trace must stay two orders
        of magnitude smaller — a span per scored subset (say, one per
        kernel solve) would break the bound at once, on any machine.
        """
        _, tracer, result = traced_audit
        scored = sum(query.cost.influence_evaluations for query in result.queries)
        assert scored > 1000
        assert tracer.span_count() < 0.01 * scored, (
            f"{tracer.span_count()} spans for {scored} scored subsets"
        )

    def test_disabled_helpers_return_the_shared_null_span(self):
        assert trace.span("anything", k=1) is NULL_SPAN
        assert trace.add("gemm_flops", 5.0) is None
