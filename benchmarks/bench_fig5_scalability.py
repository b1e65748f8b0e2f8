"""Figure 5 — influence runtime vs dataset size (§6.6).

German Credit is replicated ×50 … ×400 (50k–400k rows; the paper goes to
1.6M — the ×800/×1600 points exceed this container's memory budget, so the
sweep is truncated but spans the same regime) and the per-query time of
each estimator is measured for a fixed 5% subset.

Expected shape: all methods scale roughly linearly; influence functions
stay orders of magnitude faster than retraining; the one-time
pre-computation (per-sample gradients + Hessian factorization) is reported
separately, as in the paper's discussion.
"""

from __future__ import annotations

import time

import numpy as np

from repro.bench import emit, render_table
from repro.datasets import TabularEncoder, load_german, train_test_split
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LogisticRegression
from repro.utils.rng import ensure_rng

FACTORS = [50, 100, 200, 400]
ESTIMATORS = ["first_order", "second_order", "retrain", "one_step_gd"]


def _run() -> list[list[object]]:
    base = load_german(1000, seed=1)
    train_base, test = train_test_split(base, 0.25, seed=1)
    metric = get_metric("statistical_parity")
    rng = ensure_rng(5)
    rows = []
    for factor in FACTORS:
        train = train_base.replicate(factor)
        encoder = TabularEncoder().fit(train.table)
        X = encoder.transform(train.table)
        model = LogisticRegression(l2_reg=1e-3).fit(X, train.labels)
        ctx = FairnessContext(
            encoder.transform(test.table), test.labels, test.privileged_mask(), 1
        )
        n = len(X)
        idx = rng.choice(n, size=int(0.05 * n), replace=False)
        row: list[object] = [f"{n:,}"]
        for name in ESTIMATORS:
            start = time.perf_counter()
            est = make_estimator(name, model, X, train.labels, metric, ctx)
            est.bias_change(np.arange(10))  # force the pre-computation
            setup_seconds = time.perf_counter() - start
            start = time.perf_counter()
            est.bias_change(idx)
            query_seconds = time.perf_counter() - start
            row.append(f"{query_seconds:.2e}")
            if name == "second_order":
                row_setup = setup_seconds
        row.append(f"{row_setup:.2f}")
        rows.append(row)
    return rows


def test_fig5_runtime_vs_dataset_size(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        render_table(
            "Figure 5: influence runtime vs dataset size (German replicated, 5% subset)",
            ["rows", *ESTIMATORS, "precompute (s)"],
            rows,
            note="per-query seconds after pre-computation; precompute = SO start-up cost",
        ),
        filename="fig5_scalability.txt",
    )
