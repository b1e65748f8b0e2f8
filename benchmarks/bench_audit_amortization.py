"""Within-audit amortization: extent caches + shared update context.

`bench_audit_session` measures what a session amortizes *across* queries
when start-up is expensive (model training, factorization, alphabet).
This benchmark pins the complementary case that used to gain almost
nothing (~1.2×): a **cheap-to-train** model under a **deep search**,
where per-query cost is dominated by the influence linear algebra the
search re-runs for every metric.  Candidate masks are metric-independent,
so within one audit the session now pays each distinct extent's GEMMs
and solves exactly once:

* ``g_S = M @ grads`` rows and per-estimator-spec Δθ rows are cached on
  ``ModelArtifacts`` keyed by packed extent bytes — later metrics serve
  every repeated extent from the cache and only re-run the metric-bound
  ∇F dot products;
* ``explain_updates`` views share one metric-independent update context
  (Hessian + η) built once per audit, and the §5 ascent runs all k
  patterns of a query through one batched gradient stream.

The baseline is one fresh ``GopherExplainer`` per metric — explain plus
Section-5 repairs, everything recomputed from scratch.  Claims:

1. **≥1.5× end-to-end** on the 4-metric deep-search German workload
   (logistic regression, ``max_predicates=3``), audit + repairs
   (≥1.3× under ``--smoke`` for shared CI runners).
2. **Identical answers** — patterns, responsibilities, bias changes, and
   update deltas match the fresh baseline to 1e-10.
3. **Amortization accounting** — every distinct extent's Δθ is computed
   exactly once (the miss counter equals the cache population and a
   repeated audit over the same grid recomputes nothing), and exactly
   one ``update_context_builds`` across all repair views.

``--smoke`` shrinks the dataset; every assertion is kept.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import build_pipeline, emit, render_table
from repro.core import AuditSession, GopherExplainer

METRICS = [
    "statistical_parity",
    "equal_opportunity",
    "predictive_parity",
    "average_odds",
]


def _search_config() -> dict:
    # Deep search, default (exact second-order) estimator: the per-query
    # cost is candidate enumeration + per-extent linear algebra, not
    # model training — the regime the extent caches exist for.
    return dict(support_threshold=0.05, max_predicates=3)


def _assert_identical(fresh_answers, audit_result, view_updates):
    for (metric, fresh_set, fresh_updates), query in zip(fresh_answers, audit_result):
        assert query.metric == metric
        assert [e.pattern for e in fresh_set] == [
            e.pattern for e in query.explanations
        ], f"{metric}: explanation patterns diverged"
        for a, b in zip(fresh_set, query.explanations):
            assert abs(a.est_responsibility - b.est_responsibility) < 1e-10
            assert abs(a.est_bias_change - b.est_bias_change) < 1e-10
        amortized = view_updates[metric]
        assert [u.pattern for u in fresh_updates] == [u.pattern for u in amortized]
        for a, b in zip(fresh_updates, amortized):
            np.testing.assert_allclose(b.delta, a.delta, atol=1e-10)
            assert abs(a.est_bias_change - b.est_bias_change) < 1e-10


def _run_workload(rows: int, k: int = 3):
    bundle = build_pipeline("german", "logistic_regression", n_rows=rows, seed=1)
    config = _search_config()
    from repro.bench.workloads import MODELS

    factory = MODELS["logistic_regression"]

    # Baseline: one fresh pipeline per metric, explain + Section-5 repairs.
    fresh_answers = []
    fresh_start = time.perf_counter()
    for metric in METRICS:
        gopher = GopherExplainer(factory(), metric=metric, **config)
        gopher.fit(bundle.train, bundle.test)
        explanations = gopher.explain(k=k, verify=False)
        updates = gopher.explain_updates(explanations, verify=False)
        fresh_answers.append((metric, explanations, updates))
    fresh_seconds = time.perf_counter() - fresh_start

    # Session: one audit over the same metrics, then one repair view each.
    session_start = time.perf_counter()
    session = AuditSession(factory(), **config)
    session.fit(bundle.train, bundle.test)
    result = session.audit(metrics=METRICS, k=k, verify=False)
    view_updates = {}
    for query in result.queries:
        view = session.explainer(metric=query.metric)
        view_updates[query.metric] = view.explain_updates(
            query.explanations, verify=False
        )
    session_seconds = time.perf_counter() - session_start

    _assert_identical(fresh_answers, result, view_updates)
    stats = session.stats
    assert stats["influence.update_context_builds"] == 1, (
        f"update context built {stats['influence.update_context_builds']}× across "
        f"{len(METRICS)} repair views; the shared half failed to amortize"
    )
    assert stats["influence.param_change_cache_hits"] > 0
    return fresh_seconds, session_seconds, result, session


def _assert_one_compute_per_distinct_extent(session: AuditSession):
    """Counter half of claim 3: Δθ is computed once per distinct extent.

    A deep score-guided search legitimately explores some metric-specific
    level-3 candidates (those are genuine misses), but no extent is ever
    computed twice — the miss counter equals the cache population — and a
    repeated audit over the same grid recomputes nothing at all.
    """
    stats = session.stats
    assert stats["influence.param_change_cache_misses"] == len(
        session.artifacts._param_change_cache
    ), "an already-cached extent was recomputed"
    misses = stats["influence.param_change_cache_misses"]
    session.audit(metrics=METRICS, k=3, verify=False)
    assert session.stats["influence.param_change_cache_misses"] == misses, (
        "re-auditing the same grid recomputed Δθ rows"
    )


def test_audit_amortization(benchmark, smoke):
    rows = 400 if smoke else 800
    bar = 1.3 if smoke else 1.5  # shared CI runners are noisy at smoke size

    def run():
        return _run_workload(rows)

    fresh_s, session_s, result, session = benchmark.pedantic(run, rounds=1, iterations=1)
    stats = session.stats
    _assert_one_compute_per_distinct_extent(session)
    speedup = fresh_s / session_s
    emit(
        render_table(
            "Within-audit amortization: 4 metrics, deep search, audit + repairs"
            + (" (smoke)" if smoke else ""),
            [
                "workload", "queries", "fresh (s)", "session (s)",
                "speedup", "Δθ cache hits", "identical",
            ],
            [
                [
                    f"german (n={rows}, lr, lattice, max_predicates=3)",
                    len(result),
                    f"{fresh_s:.2f}",
                    f"{session_s:.2f}",
                    f"{speedup:.1f}x",
                    stats["influence.param_change_cache_hits"],
                    "yes",
                ]
            ],
            note="fresh = one GopherExplainer per metric (explain + Section-5 "
            "repairs from scratch); session = one AuditSession.audit plus one "
            "repair view per metric; identical = same patterns, scores, and "
            "update deltas to 1e-10, with each distinct extent's Δθ computed "
            "exactly once and one update-context build across all views",
        ),
        filename="audit_amortization.txt",
    )
    assert speedup >= bar, (
        f"within-audit amortization speedup fell below {bar}x: {speedup:.2f}x"
    )
