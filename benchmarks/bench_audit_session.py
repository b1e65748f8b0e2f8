"""Artifact-cached `AuditSession` vs one fresh explainer per query.

A real audit asks many questions of one model — here 3 fairness metrics ×
2 protected attributes, the workload the session API exists for.  The
per-query cost split (see ``repro.core.session``):

* **per-model, paid once by the session** — model training, the encoder,
  per-sample gradients, the Hessian build + factorization, and the
  level-1 predicate alphabet (plus packed tidlists under the mining
  engine);
* **per-query, paid 6×** — ∇F, the original bias, the group context, and
  the candidate search itself.

The fresh baseline is what the pre-session API forces: one
``GopherExplainer`` per (metric, group), each re-running the entire
start-up — exactly the per-query rebuild the session eliminates.

Three claims:

1. **End-to-end amortization** — the 3-metric × 2-group audit through one
   session is ≥3× faster than six fresh explainers (≥2× under ``--smoke``
   for shared CI runners), on German and Adult with the neural network
   (the model whose training cost makes per-query refits hurt most).
2. **Identical answers** — every query's explanations (patterns and
   estimated responsibilities to 1e-10) match the fresh explainer's; the
   caches change where work happens, never the result.
3. **Single-build accounting** — after the whole audit the session's
   stats counters show exactly one Hessian factorization, one per-sample
   gradient build, and one alphabet build; a mining-engine audit
   additionally shows exactly one packed-tidlist build.  Asserted, not
   inferred from timings.

``--smoke`` shrinks the datasets and drops Adult; every structural
assertion (parity, counters) is kept.
"""

from __future__ import annotations

import time

from repro.bench import build_pipeline, emit, render_table
from repro.core import AuditSession, GopherExplainer
from repro.datasets import ProtectedGroup

METRICS = ["statistical_parity", "equal_opportunity", "average_odds"]

GROUPS = {
    "german": [
        ProtectedGroup(attribute="age", privileged_threshold=45.0),
        ProtectedGroup(attribute="gender", privileged_category="Male"),
    ],
    "adult": [
        ProtectedGroup(attribute="gender", privileged_category="Male"),
        ProtectedGroup(attribute="age", privileged_threshold=40.0),
    ],
}


def _workloads(smoke: bool):
    if smoke:
        return [("german", 400)]
    return [("german", 1000), ("adult", 2500)]


def _search_config(engine: str = "lattice") -> dict:
    return dict(
        estimator="series",
        estimator_kwargs={"evaluation": "smooth"},
        engine=engine,
        support_threshold=0.05,
        max_predicates=2,
    )


def _assert_identical(name, fresh_sets, audit_result):
    for (metric, group, fresh), query in zip(fresh_sets, audit_result):
        assert query.metric == metric and query.group == group
        fresh_patterns = [e.pattern for e in fresh]
        audit_patterns = [e.pattern for e in query.explanations]
        assert fresh_patterns == audit_patterns, (
            f"{name}: {metric} × {group.describe()} diverged:\n"
            f"  fresh:   {[str(p) for p in fresh_patterns]}\n"
            f"  session: {[str(p) for p in audit_patterns]}"
        )
        for a, b in zip(fresh, query.explanations):
            assert abs(a.est_responsibility - b.est_responsibility) < 1e-10
            assert abs(a.est_bias_change - b.est_bias_change) < 1e-10


def _run_audit(dataset: str, rows: int, model_factory, engine: str, k: int = 3):
    """One workload: fresh-per-query baseline vs one session, timed."""
    bundle = build_pipeline(dataset, "logistic_regression", n_rows=rows, seed=1)
    groups = GROUPS[dataset]
    config = _search_config(engine)

    # Baseline: one fresh explainer per (group, metric) — each pays model
    # training, gradients, factorization, and alphabet generation again.
    fresh_sets = []
    fresh_start = time.perf_counter()
    for group in groups:
        train = bundle.train.with_protected(group)
        test = bundle.test.with_protected(group)
        for metric in METRICS:
            gopher = GopherExplainer(model_factory(), metric=metric, **config)
            gopher.fit(train, test)
            fresh_sets.append((metric, group, gopher.explain(k=k, verify=False)))
    fresh_seconds = time.perf_counter() - fresh_start

    # Session: the per-model start-up once, then 6 cheap queries.
    session_start = time.perf_counter()
    session = AuditSession(model_factory(), **config)
    session.fit(bundle.train, bundle.test)
    result = session.audit(metrics=METRICS, groups=groups, k=k, verify=False)
    session_seconds = time.perf_counter() - session_start

    _assert_identical(f"{dataset} ({engine})", fresh_sets, result)
    stats = session.stats
    for counter in (
        "influence.hessian_factorizations",
        "influence.per_sample_grad_builds",
        "mining.alphabet_builds",
    ):
        assert stats[counter] == 1, (
            f"{dataset} ({engine}): {counter} = {stats[counter]} after a "
            f"{len(result)}-query audit; the session failed to amortize"
        )
    if engine == "mining":
        assert stats["mining.tidlist_builds"] == 1, (
            f"{dataset} (mining): tidlist_builds = {stats['mining.tidlist_builds']}"
        )
    return fresh_seconds, session_seconds, result, stats


def test_audit_session(benchmark, smoke):
    bar = 2.0 if smoke else 3.0
    from repro.bench.workloads import MODELS

    nn_factory = MODELS["neural_network"]
    lr_factory = MODELS["logistic_regression"]

    def run():
        rows_out, speedups = [], {}
        for dataset, rows in _workloads(smoke):
            fresh_s, session_s, result, _ = _run_audit(dataset, rows, nn_factory, "lattice")
            speedup = fresh_s / session_s
            speedups[dataset] = speedup
            rows_out.append(
                [
                    f"{dataset} (n={rows}, nn, lattice)",
                    len(result),
                    f"{fresh_s:.2f}",
                    f"{session_s:.2f}",
                    f"{result.setup_seconds:.2f}",
                    f"{speedup:.1f}x",
                    "yes",
                ]
            )
        # The mining engine rides the same caches plus the packed-tidlist
        # build; the counter assertion is the point, not the timing.
        mine_rows = 400 if smoke else 600
        fresh_s, session_s, result, stats = _run_audit(
            "german", mine_rows, lr_factory, "mining"
        )
        rows_out.append(
            [
                f"german (n={mine_rows}, lr, mining)",
                len(result),
                f"{fresh_s:.2f}",
                f"{session_s:.2f}",
                f"{result.setup_seconds:.2f}",
                f"{fresh_s / session_s:.1f}x",
                "yes",
            ]
        )
        return rows_out, speedups

    rows_out, speedups = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "AuditSession amortization: 3 metrics × 2 protected groups, one model"
            + (" (smoke)" if smoke else ""),
            [
                "workload", "queries", "fresh (s)", "session (s)",
                "setup once (s)", "speedup", "identical",
            ],
            rows_out,
            note="fresh = one GopherExplainer per query (model refit + full start-up "
            "each time); session = one AuditSession.audit over the same grid; "
            "identical = same patterns, responsibilities to 1e-10, and the session "
            "performed exactly one Hessian factorization / gradient build / "
            "alphabet build (one tidlist build under the mining engine)",
        ),
        filename="audit_session.txt",
    )
    for dataset, speedup in speedups.items():
        assert speedup >= bar, (
            f"audit-session speedup on {dataset} fell below {bar}x: {speedup:.1f}x"
        )
