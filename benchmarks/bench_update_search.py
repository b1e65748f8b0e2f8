"""Vectorized §5 update search vs the per-coordinate loop (the PR-2 bar).

Two workloads on German Credit, both over the planted Table-4 patterns:

1. **pattern features** — δ restricted to each pattern's own features, the
   default (and the shape of the paper's Tables 4–6).  Few active
   coordinates, so the loop is merely slow, not pathological.
2. **full repair** — δ may touch *every* feature.  Here the loop pays
   2·|active| ≈ 100 finite-difference objective evaluations per ascent
   step and the analytic ``input_grads`` fast path pays one model call, so
   this workload is where the engine must clear ≥5× (asserted; ≥2× under
   ``--smoke``).

Both workloads assert the batched engine reproduces the outputs of the
per-coordinate loop in ``oracles.update_loop``: the same δ per pattern, the
same estimated bias change, and the same described update.  A third experiment reports the
``verify=True`` ground-truth retrains through the shared process-parallel
helper (serial vs one-worker-per-CPU; informational — single-CPU runners
show ~1×).
"""

from __future__ import annotations

import os
import time

import numpy as np
from oracles import update_loop

from repro.bench import build_pipeline, emit, render_table
from repro.influence import ModelArtifacts
from repro.patterns import Pattern, Predicate
from repro.updates import UpdateSearchContext, find_update_explanations

PATTERNS = [
    Pattern([Predicate("age", ">=", 45.0), Predicate("gender", "=", "Female")]),
    Pattern([Predicate("gender", "=", "Female")]),
    Pattern([Predicate("age", ">=", 45.0)]),
]

DELTA_ATOL = 1e-6
CHANGE_ATOL = 1e-9


def _best_of(fn, repeats: int) -> tuple[float, object]:
    best, result = np.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def _assert_identical(batched, loop) -> None:
    for b, l in zip(batched, loop):
        assert np.allclose(b.delta, l.delta, atol=DELTA_ATOL), (
            f"batched delta diverged for {b.pattern}: "
            f"max |Δ| = {np.abs(b.delta - l.delta).max():.2e}"
        )
        assert abs(b.est_bias_change - l.est_bias_change) < CHANGE_ATOL, (
            f"batched bias change diverged for {b.pattern}: "
            f"{b.est_bias_change} vs {l.est_bias_change}"
        )
        assert b.changed_features == l.changed_features, (
            f"batched update description diverged for {b.pattern}"
        )


def _run(smoke: bool):
    n_rows = 600 if smoke else 1000
    num_steps = 40 if smoke else 120
    repeats = 2 if smoke else 3
    bundle = build_pipeline("german", "logistic_regression", n_rows=n_rows, seed=1)
    subsets = [np.flatnonzero(p.mask(bundle.train.table)) for p in PATTERNS]
    artifacts = ModelArtifacts(bundle.model, bundle.X_train, bundle.train.labels)
    context = UpdateSearchContext(artifacts, bundle.metric, bundle.test_ctx)

    def search(engine=find_update_explanations, **kwargs):
        return engine(
            context, bundle.encoder, PATTERNS, subsets, num_steps=num_steps, **kwargs
        )

    all_features = set(bundle.train.table.column_names)
    rows, speedups = [], {}
    for label, allowed in [("pattern features", None), ("full repair", all_features)]:
        loop_s, loop = _best_of(
            lambda a=allowed: search(update_loop.find_update_explanations, allowed_features=a),
            repeats,
        )
        batch_s, batched = _best_of(lambda a=allowed: search(allowed_features=a), repeats)
        _assert_identical(batched, loop)
        speedups[label] = loop_s / batch_s
        rows.append(
            [
                label,
                len(PATTERNS),
                f"{loop_s * 1e3:.1f}",
                f"{batch_s * 1e3:.1f}",
                f"{speedups[label]:.1f}x",
                "yes",
            ]
        )

    verify_rows = []
    serial_s, _ = _best_of(lambda: search(verify=True, n_jobs=1), 1)
    parallel_s, _ = _best_of(lambda: search(verify=True, n_jobs=None), 1)
    verify_rows.append(
        [
            len(PATTERNS),
            os.cpu_count() or 1,
            f"{serial_s * 1e3:.1f}",
            f"{parallel_s * 1e3:.1f}",
            f"{serial_s / parallel_s:.1f}x",
        ]
    )
    return n_rows, num_steps, rows, speedups, verify_rows


def test_update_search_speedup(benchmark, smoke):
    n_rows, num_steps, rows, speedups, verify_rows = benchmark.pedantic(
        lambda: _run(smoke), rounds=1, iterations=1
    )
    emit(
        render_table(
            f"Vectorized update search (German, {n_rows} rows, {num_steps} steps, "
            "loop vs batched engine)",
            ["workload", "patterns", "loop (ms)", "batch (ms)", "speedup", "identical"],
            rows,
            note="identical = same delta, estimated Δbias, and described update "
            "from both paths (asserted)",
        ),
        filename="update_search_speedup.txt",
    )
    emit(
        render_table(
            "Update verification retrains (shared parallel helper)",
            ["updates", "cpus", "serial (ms)", "parallel (ms)", "speedup"],
            verify_rows,
            note="informational; single-CPU runners resolve to the serial loop",
        ),
        filename="update_search_verify.txt",
    )
    # The acceptance bar: the full-repair workload must clear 5x (2x under
    # --smoke, where step counts are too small to amortize fixed overheads).
    bar = 2.0 if smoke else 5.0
    assert speedups["full repair"] >= bar, (
        f"full-repair update-search speedup fell below {bar}x: "
        f"{speedups['full repair']:.1f}x"
    )
    # The pattern-features workload is reported but not gated: its active
    # sets are 1-3 coordinates, so loop and batch times are both tiny and a
    # hard >=1x bar would flake on noisy shared runners.
