"""Incremental ``delta_audit`` vs a cold rebuild after a training-data edit.

The §5 debugging loop is audit → repair → re-audit.  The naive re-audit
pays the whole per-model start-up again — re-encode, rebuild gradients,
re-factorize the Hessian, regenerate the predicate alphabet — and then
re-runs every engine search.  ``delta_audit`` instead patches every cache
in place (row and mask patches, one ``eigh`` of the patched Hessian per
cached solver) and *replays* each recorded search against the patched
artifacts: one packed batch over the recorded candidates plus a
drift-screened boundary re-score, instead of a full lattice merge pass.

Three claims, asserted:

1. **Speedup** — re-certifying a 3-metric audit after a 1%-row removal is
   ≥5× faster (≥3× under ``--smoke``) than a cold rebuild: a brand-new
   session over the edited data with the *same* fitted model and encoder
   (no model refit on either side — influence debugging measures edits
   from the current optimum, so training cost is excluded from both).
   The replay takes tens of milliseconds, so one scheduler hiccup can
   halve a single reading: each side is timed as the best of several
   independent rounds, every round on a freshly fitted session.
2. **Identical answers** — the replayed ranking equals re-running the
   engine search through the patched session, patterns and
   responsibilities to 1e-8, with ``recheck="never"`` pinning the fast
   path (any certificate refusal fails the run instead of silently
   re-searching).  The cold rebuild is a *timing* baseline only: it
   re-derives quantile bin edges from the edited table, so after a
   row-changing edit it speaks a slightly different pattern language by
   design (the frozen-language tests pin cold equality for relabel
   edits, where the table — hence the bins — is unchanged).
3. **No rebuild accounting** — after the delta pass the counters still
   show exactly one Hessian factorization and one alphabet build; the
   edit's cost appears only under ``solver_updates`` /
   ``alphabet_patches``.  The replay also evaluates far fewer subsets
   than the engine did (reported per query).
"""

from __future__ import annotations

import time

from repro.bench import build_pipeline, emit, render_table
from repro.core import AuditSession
from repro.datasets import random_edit

METRICS = ["statistical_parity", "equal_opportunity", "average_odds"]

CONFIG = dict(
    estimator="series",
    estimator_kwargs={"evaluation": "smooth"},
    engine="lattice",
    support_threshold=0.05,
    max_predicates=2,
)


def _assert_identical(delta_after, fresh, abs_tol=1e-8):
    for qd, qf in zip(delta_after, fresh):
        assert qd.metric == qf.metric
        d, f = qd.explanations, qf.explanations
        assert [e.pattern for e in d] == [e.pattern for e in f], (
            f"{qd.metric}: replay diverged from the fresh search:\n"
            f"  replay: {[str(e.pattern) for e in d]}\n"
            f"  fresh:  {[str(e.pattern) for e in f]}"
        )
        for a, b in zip(d, f):
            assert abs(a.est_responsibility - b.est_responsibility) < abs_tol
            assert abs(a.est_bias_change - b.est_bias_change) < abs_tol


def test_delta_audit(benchmark, smoke):
    rows = 400 if smoke else 1000
    bar = 3.0 if smoke else 5.0
    rounds = 5 if smoke else 3
    bundle = build_pipeline("german", "logistic_regression", n_rows=rows, seed=1)

    def one_round():
        session = AuditSession(bundle.model, **CONFIG)
        session.fit(bundle.train, bundle.test)
        session.audit(metrics=METRICS, k=3)  # the "before" side, warm
        # The level-2 merge skeleton is one-time session state: a pure
        # function of the level-1 alphabet, cached inside it and reused by
        # every delta_audit of the debugging loop (edits that keep the
        # entry list keep the skeleton).  Build it with the warm-up so the
        # timed region below measures the steady-state loop iteration.
        cfg = session.config
        session.alphabet_cache.get(
            cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
        ).pair_skeleton()
        edit = random_edit(session.train_data, "remove", max(1, rows // 100), seed=0)

        delta_start = time.perf_counter()
        delta = session.delta_audit(edit, metrics=METRICS, k=3, recheck="never")
        delta_seconds = time.perf_counter() - delta_start
        assert delta.num_certified == len(delta.queries)

        # Claim 3: nothing heavy rebuilt — the edit cost is patch-shaped.
        stats = session.stats
        assert stats["influence.hessian_factorizations"] == 1
        assert stats["mining.alphabet_builds"] == 1
        assert stats["mining.tidlist_builds"] == 0
        assert stats["mining.alphabet_patches"] == 1
        assert stats["influence.edits"] == 1
        assert stats["influence.solver_updates"] >= 1

        # Claim 2 (a): replay == re-running the engine on the patched session.
        fresh = session.audit(metrics=METRICS, k=3)
        _assert_identical(delta.after, fresh)

        # Claim 1: cold rebuild — new session on the edited data, same
        # fitted model and encoder, full start-up + engine searches.
        edited_train = session.train_data
        cold_start = time.perf_counter()
        cold = AuditSession(bundle.model, **CONFIG)
        cold.fit(edited_train, session.test_data, encoder=session.encoder)
        cold_result = cold.audit(metrics=METRICS, k=3)
        cold_seconds = time.perf_counter() - cold_start

        # The cold result is a timing baseline only: a cold session
        # re-derives quantile bin edges from the edited table, so its
        # pattern *language* legitimately differs from the session's frozen
        # one after a row-changing edit (tests/core/test_delta_audit.py
        # pins cold-rebuild equality for relabel edits, where it holds).
        assert len(cold_result.queries) == len(delta.queries)

        evaluated = [
            (bq.explanations.lattice.num_evaluated, dq.after.lattice.num_evaluated)
            for bq, dq in zip(delta.before.queries, delta.queries)
        ]
        return delta_seconds, cold_seconds, delta, evaluated

    def run():
        results = [one_round() for _ in range(rounds)]
        _, _, delta, evaluated = results[0]
        delta_seconds = min(r[0] for r in results)
        cold_seconds = min(r[1] for r in results)
        return delta_seconds, cold_seconds, delta, evaluated

    delta_seconds, cold_seconds, delta, evaluated = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    speedup = cold_seconds / delta_seconds
    rows_out = [
        [
            q.metric,
            "yes" if q.certified else "NO",
            n_fresh,
            n_replay,
            f"{q.seconds * 1e3:.0f}ms",
        ]
        for q, (n_fresh, n_replay) in zip(delta.queries, evaluated)
    ]
    rows_out.append(
        [
            "total",
            f"{delta.num_certified}/{len(delta.queries)}",
            "-",
            "-",
            f"{delta_seconds:.3f}s vs cold {cold_seconds:.3f}s = {speedup:.1f}x",
        ]
    )
    emit(
        render_table(
            f"delta_audit after {delta.edit.describe()}: replay vs cold rebuild "
            f"(german n={rows}, series/smooth{', smoke' if smoke else ''})",
            ["query", "certified", "engine evals", "replay evals", "time"],
            rows_out,
            note="replay = apply_edit (one eigh of the patched Hessian per solver + "
            "mask patches) + "
            "per-query record replay with drift-screened boundary re-scores; "
            "cold = new AuditSession.fit + full engine searches over the edited "
            "data (same fitted model/encoder on both sides; timing baseline "
            f"only — a cold session re-bins the edited table); totals are the "
            f"best of {rounds} rounds.  Asserted: the "
            "replay equals re-running the engine through the patched session "
            "(patterns + responsibilities to 1e-8) and every query certified "
            "under recheck='never'",
        ),
        filename="delta_audit.txt",
    )
    assert speedup >= bar, (
        f"delta_audit speedup fell below {bar}x: {speedup:.1f}x "
        f"({delta_seconds:.3f}s vs cold {cold_seconds:.3f}s)"
    )
