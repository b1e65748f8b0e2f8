"""Batched vs per-candidate influence throughput (the Figure-5 cost model,
batch edition).

Two experiments:

1. **Subset-evaluation throughput** — for each closed-form estimator, time
   m ``bias_change`` calls in a Python loop against one
   ``bias_change_batch`` call over the same m subsets, for growing batch
   sizes.  The mask matrix is pre-built outside the timed region, so the
   comparison isolates the influence queries themselves.
2. **End-to-end lattice search** — ``compute_candidates`` on the Adult
   workload with the per-candidate loop of ``oracles.influence_loop`` vs the
   batched search, asserting the candidate sets are identical and
   reporting the wall-time drop.

Expected shape: batch throughput grows with batch size (one GEMM amortized
over m subsets) while the loop stays flat; first-order at m ≥ 256 clears
5× comfortably, and second-order (series) gains the most because its
per-candidate path rebuilds a (p, p) subset Hessian per query.  The
end-to-end experiment uses the estimators whose per-candidate path does
real work per query (a solve and/or a surrogate evaluation): first-order
under ``linear`` evaluation already collapses each scalar query to a
masked sum over pre-computed point influences, so batching that path wins
on query throughput but not on whole-search wall time.
"""

from __future__ import annotations

import time

import numpy as np
from oracles.influence_loop import LoopEstimator

from repro.bench import build_pipeline, emit, render_table, subset_mask_matrix
from repro.influence import make_estimator
from repro.mining import PredicateAlphabet
from repro.patterns.lattice import compute_candidates
from repro.utils.rng import ensure_rng

BATCH_SIZES = [64, 256, 512]
ESTIMATOR_SETUPS = [
    ("first_order", "linear", {}),
    ("second_order", "smooth", {"variant": "series"}),
    ("one_step_gd", "hard", {}),
]
LATTICE_SETUPS = [
    ("second_order", "smooth", {"variant": "series"}),  # the paper's default
    ("first_order", "smooth", {}),
]


def _random_subsets(num_train: int, count: int, seed: int = 5) -> list[np.ndarray]:
    rng = ensure_rng(seed)
    sizes = rng.integers(10, max(11, num_train // 10), size=count)
    return [np.sort(rng.choice(num_train, size=int(s), replace=False)) for s in sizes]


def _best_of(fn, repeats: int = 3) -> float:
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _throughput_rows() -> tuple[list[list[object]], dict[tuple[str, int], float]]:
    bundle = build_pipeline("german", "logistic_regression", n_rows=1000, seed=1)
    rows: list[list[object]] = []
    speedups: dict[tuple[str, int], float] = {}
    for name, evaluation, kwargs in ESTIMATOR_SETUPS:
        estimator = make_estimator(
            name,
            bundle.model,
            bundle.X_train,
            bundle.train.labels,
            bundle.metric,
            bundle.test_ctx,
            evaluation=evaluation,
            **kwargs,
        )
        estimator.bias_change_batch([np.arange(10)])  # warm every cache
        for batch_size in BATCH_SIZES:
            subsets = _random_subsets(estimator.num_train, batch_size)
            masks = subset_mask_matrix(subsets, estimator.num_train)
            loop_s = _best_of(lambda: [estimator.bias_change(s) for s in subsets])
            batch_s = _best_of(lambda: estimator.bias_change_batch(masks))
            speedup = loop_s / batch_s
            speedups[(name, batch_size)] = speedup
            rows.append(
                [
                    f"{name} ({evaluation})",
                    batch_size,
                    f"{batch_size / loop_s:,.0f}",
                    f"{batch_size / batch_s:,.0f}",
                    f"{speedup:.1f}x",
                ]
            )
    return rows, speedups


def _lattice_rows() -> list[list[object]]:
    bundle = build_pipeline("adult", "logistic_regression", n_rows=4000, seed=1)
    rows: list[list[object]] = []
    for name, evaluation, kwargs in LATTICE_SETUPS:
        estimator = make_estimator(
            name,
            bundle.model,
            bundle.X_train,
            bundle.train.labels,
            bundle.metric,
            bundle.test_ctx,
            evaluation=evaluation,
            **kwargs,
        )
        oracle = LoopEstimator(estimator)
        start = time.perf_counter()
        loop = compute_candidates(PredicateAlphabet(bundle.train.table, 0.05), oracle, 3)
        loop_s = time.perf_counter() - start
        assert oracle.scalar_calls == loop.num_evaluated, "the loop search did not run its loop"
        start = time.perf_counter()
        batched = compute_candidates(PredicateAlphabet(bundle.train.table, 0.05), estimator, 3)
        batch_s = time.perf_counter() - start
        identical = [s.pattern for s in loop.candidates] == [
            s.pattern for s in batched.candidates
        ]
        assert identical, f"batched lattice diverged from the loop for {name}"
        assert batch_s < loop_s, (
            f"batched compute_candidates was not faster for {name}: "
            f"{batch_s:.2f}s vs {loop_s:.2f}s"
        )
        rows.append(
            [
                f"{name} ({evaluation})",
                loop.num_candidates,
                f"{loop_s:.2f}",
                f"{batch_s:.2f}",
                f"{loop_s / batch_s:.1f}x",
                "yes" if identical else "NO",
            ]
        )
    return rows


def _run() -> tuple[list[list[object]], dict[tuple[str, int], float], list[list[object]]]:
    rows, speedups = _throughput_rows()
    return rows, speedups, _lattice_rows()


def test_batch_influence_throughput(benchmark):
    rows, speedups, lattice = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        render_table(
            "Batched influence throughput (German, per-candidate loop vs one batch call)",
            ["estimator", "batch", "loop subsets/s", "batch subsets/s", "speedup"],
            rows,
            note="pre-computation excluded; mask matrices built outside the timer",
        ),
        filename="batch_influence_throughput.txt",
    )
    emit(
        render_table(
            "Lattice search end-to-end (Adult, 4000 rows, 3 levels)",
            ["estimator", "candidates", "loop (s)", "batch (s)", "speedup", "identical"],
            lattice,
            note="identical = same candidate patterns from both paths",
        ),
        filename="batch_influence_lattice.txt",
    )
    # The acceptance bar: ≥5× on first-order subset evaluation at m ≥ 256.
    for batch_size in (256, 512):
        assert speedups[("first_order", batch_size)] >= 5.0, (
            f"first-order batch speedup at m={batch_size} fell below 5x: "
            f"{speedups[('first_order', batch_size)]:.1f}x"
        )
