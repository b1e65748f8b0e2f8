"""Within-audit amortization: cached answers must equal per-query answers.

A multi-metric audit serves every metric after the first largely from the
session's extent caches — ``g_S`` gradient sums and per-estimator-spec
Δθ rows keyed by packed extent bytes — and every ``explain_updates``
view shares one metric-independent update context.  These tests pin the
two halves of that contract:

* **equivalence** — a whole audit (and the §5 repairs of its queries)
  answers identically (1e-10) to fresh per-metric ``GopherExplainer``
  pipelines that recompute everything from scratch, across metrics ×
  both candidate engines × the three closed-form search estimators;
* **accounting** — one ``g_S`` GEMM per *distinct extent set* (not per
  metric), zero Δθ recomputation on later metrics, and exactly one
  update-context build per audit however many views repair explanations.
"""

import numpy as np
import pytest

from repro.core import AuditSession, GopherExplainer
from repro.fairness import list_metrics
from repro.obs import trace
from repro.obs.trace import Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)
ESTIMATORS = ["first_order", "series", "exact"]
ENGINES = ["lattice", "mining"]
METRICS = list_metrics()


def assert_same_explanations(fresh, amortized, abs_tol=1e-10):
    assert [e.pattern for e in fresh] == [e.pattern for e in amortized]
    for a, b in zip(fresh, amortized):
        assert b.est_responsibility == pytest.approx(a.est_responsibility, abs=abs_tol)
        assert b.est_bias_change == pytest.approx(a.est_bias_change, abs=abs_tol)
        assert b.support == pytest.approx(a.support, abs=1e-12)


def assert_same_updates(fresh, amortized, abs_tol=1e-10):
    assert [u.pattern for u in fresh] == [u.pattern for u in amortized]
    for a, b in zip(fresh, amortized):
        np.testing.assert_allclose(b.delta, a.delta, atol=abs_tol)
        assert b.est_bias_change == pytest.approx(a.est_bias_change, abs=abs_tol)
        assert b.changed_features == a.changed_features


class TestAmortizedVsPerQuery:
    """The audit's cache-served queries equal from-scratch pipelines."""

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_audit_matches_fresh_per_metric_explainers(
        self, lr_model, german_train, german_test, engine, estimator
    ):
        session = AuditSession(
            lr_model, engine=engine, estimator=estimator, **SEARCH
        ).fit(german_train, german_test)
        result = session.audit(metrics=METRICS, k=2, verify=False)
        assert len(result) == len(METRICS)
        for query in result.queries:
            fresh = GopherExplainer(
                lr_model, metric=query.metric, engine=engine, estimator=estimator,
                **SEARCH,
            ).fit(german_train, german_test)
            assert_same_explanations(
                fresh.explain(k=2, verify=False), query.explanations
            )

    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_explain_updates_matches_fresh(
        self, lr_model, german_train, german_test, estimator
    ):
        session = AuditSession(lr_model, estimator=estimator, **SEARCH).fit(
            german_train, german_test
        )
        result = session.audit(metrics=METRICS[:2], k=2, verify=False)
        for query in result.queries:
            view = session.explainer(metric=query.metric, estimator=estimator)
            view_updates = view.explain_updates(query.explanations, verify=False)
            fresh = GopherExplainer(
                lr_model, metric=query.metric, estimator=estimator, **SEARCH
            ).fit(german_train, german_test)
            fresh_updates = fresh.explain_updates(
                fresh.explain(k=2, verify=False), verify=False
            )
            assert_same_updates(fresh_updates, view_updates)


class TestAccounting:
    """Counters prove the work was amortized, not merely equal."""

    def test_one_gs_gemm_per_distinct_extent_set(
        self, lr_model, german_train, german_test
    ):
        session = AuditSession(lr_model, estimator="series", **SEARCH).fit(
            german_train, german_test
        )
        tracer = Tracer()
        with trace.tracing(tracer):
            session.audit(metrics=METRICS, k=2, verify=False)
        # Raw g_S GEMM spans (the kind-less influence.gemm spans) cover
        # exactly the cache-miss rows: one row per distinct extent,
        # however many metrics re-enumerated it.
        gemm_rows = sum(
            span.attrs["m"]
            for span in tracer.walk()
            if span.name == "influence.gemm" and "kind" not in span.attrs
        )
        stats = session.stats
        assert stats["influence.gradient_sum_cache_misses"] > 0
        assert gemm_rows == stats["influence.gradient_sum_cache_misses"]
        assert stats["influence.gradient_sum_cache_misses"] == len(
            session.artifacts._grad_sum_cache
        )
        # Within one estimator family the Δθ cache fronts the g_S cache
        # (later metrics never reach it), so raw-row reuse shows up when a
        # *second* gradient-sum family re-enumerates the same extents.
        view = session.explainer(metric=METRICS[0], estimator="one_step_gd")
        view.explain(k=2, verify=False)
        assert session.stats["influence.gradient_sum_cache_hits"] > 0

    def test_later_metrics_recompute_no_param_changes(
        self, lr_model, german_train, german_test
    ):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        session.audit(metrics=[METRICS[0]], k=2, verify=False)
        misses = session.stats["influence.param_change_cache_misses"]
        assert misses > 0
        session.audit(metrics=METRICS[1:], k=2, verify=False)
        # Every later metric re-enumerates the same extents: all hits.
        assert session.stats["influence.param_change_cache_misses"] == misses
        assert session.stats["influence.param_change_cache_hits"] > 0

    def test_one_update_context_build_per_audit(
        self, lr_model, german_train, german_test
    ):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        result = session.audit(metrics=METRICS[:3], k=2, verify=False)
        for query in result.queries:
            view = session.explainer(metric=query.metric)
            view.explain_updates(query.explanations, verify=False)
        # Three metric views repaired their explanations; the Hessian/η
        # half of the search context was built exactly once.
        assert session.stats["influence.update_context_builds"] == 1

    def test_bare_estimator_keeps_per_call_accounting(self, fo_estimator):
        # Estimators built outside a session never key or cache extents:
        # per-call accounting reflects executed work.
        assert fo_estimator.artifacts.extent_caching is False
        rng = np.random.default_rng(3)
        masks = rng.random((6, fo_estimator.num_train)) < 0.1
        fo_estimator.param_change_batch(masks)
        assert fo_estimator.artifacts.stats["param_change_cache_misses"] == 0
        assert fo_estimator.artifacts.stats["gradient_sum_cache_misses"] == 0

    def test_apply_edit_invalidates_extent_caches(
        self, lr_model, german_train, german_test
    ):
        from repro.datasets import random_edit

        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        session.audit(metrics=[METRICS[0]], k=2, verify=False)
        assert session.artifacts._param_change_cache
        edit = random_edit(session.train_data, "relabel", 5, seed=0)
        session.delta_audit(edit, k=2, verify=False)
        # The edit moved the model: every cached g_S / Δθ row is stale
        # and must have been dropped, not served.
        artifacts = session.artifacts
        before = dict(artifacts.stats)
        session.audit(metrics=[METRICS[0]], k=2, verify=False)
        assert (
            artifacts.stats["param_change_cache_misses"]
            > before["param_change_cache_misses"]
        )
