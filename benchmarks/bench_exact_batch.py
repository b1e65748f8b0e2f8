"""The exact second-order kernel vs the dense per-subset oracle.

The ``exact`` variant solves a *different* reduced matrix ``n·H − m·H_S``
per subset.  Every exact query now runs one kernel per subset: the lower
triangle of ``n·H − m·ridge·I`` downdated by one ``dsyrk`` of the
subset's curvature rows, then one ``dpotrf`` and one ``dpotrs`` (see
``repro.influence.second_order``).  The reference is the dense step of
``oracles.exact_loop``: ``model.hessian(X_S)``, ``n·H − m·H_S`` and a
fresh ``HessianSolver`` per subset.

Three claims:

1. **Query throughput** — the oracle's m ``bias_change`` calls in a loop
   vs one ``bias_change_batch`` over the same subsets (sizes drawn on both
   sides of |S| = p), for growing batch sizes on German/logistic.
   Asserted ≥2× at m ≥ 256 (relaxed to 1.5× under ``--smoke`` for shared
   CI runners).
2. **One route** — every subset of those batches is solved in the batch's
   one kernel span: there is no |S| crossover and nothing escalates
   (asserted from the span's ``subsets`` and ``escalated``).
3. **End-to-end parity** — the full lattice search under
   ``estimator="exact"`` with the oracle's per-subset loop vs the batched
   search must produce identical top-k explanations (patterns and scores
   to 1e-10; also pinned by ``tests/integration/test_exact_golden.py``).

``--smoke`` shrinks the dataset and batch list for CI and keeps every
assertion (parity and routing are structural, not tuning outcomes).
"""

from __future__ import annotations

import time

import numpy as np
from oracles.exact_loop import ExactLoopEstimator

from repro.bench import build_pipeline, emit, render_table, subset_mask_matrix
from repro.influence import make_estimator
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.patterns import select_top_k
from repro.patterns.lattice import compute_candidates
from repro.utils.rng import ensure_rng

TOP_K = 5


def _build(rows: int):
    bundle = build_pipeline("german", "logistic_regression", n_rows=rows, seed=1)
    estimator = make_estimator(
        "exact", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx, evaluation="smooth",
    )
    return bundle, estimator


def _random_subsets(num_train: int, num_params: int, count: int, seed: int = 5):
    """Random subsets sized on both sides of |S| = p."""
    rng = ensure_rng(seed)
    sizes = rng.integers(10, max(3 * num_params, 12), size=count)
    return [np.sort(rng.choice(num_train, size=int(s), replace=False)) for s in sizes]


def _best_of_pair(fn_a, fn_b, repeats: int = 5) -> tuple[float, float]:
    """Best wall time of each callable, with the repeats interleaved so CPU
    frequency / contention drift hits both sides equally."""
    best_a = best_b = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - start)
        start = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - start)
    return best_a, best_b


def _throughput_rows(estimator, batch_sizes):
    rows, speedups = [], {}
    oracle = ExactLoopEstimator(estimator)
    estimator.bias_change_batch([np.arange(10)])  # warm every cache
    for batch_size in batch_sizes:
        subsets = _random_subsets(
            estimator.num_train, estimator.model.num_params, batch_size
        )
        masks = subset_mask_matrix(subsets, estimator.num_train)
        with trace.tracing(Tracer()) as tracer:
            estimator.bias_change_batch(masks)
        (span,) = [s for s in tracer.walk() if s.name == "hessian.reduced_solve"]
        assert span.attrs["subsets"] == batch_size, "every subset must ride the kernel"
        assert span.attrs["escalated"] == 0
        loop_s, batch_s = _best_of_pair(
            lambda: [oracle.bias_change(s) for s in subsets],
            lambda: estimator.bias_change_batch(masks),
        )
        loop = oracle.bias_change_batch(subsets)
        batch = estimator.bias_change_batch(masks)
        max_err = float(np.abs(batch - loop).max())
        assert max_err < 1e-8, f"the exact kernel diverged from the oracle: {max_err:.2e}"
        speedup = loop_s / batch_s
        speedups[batch_size] = speedup
        rows.append(
            [
                batch_size,
                f"{batch_size / loop_s:,.0f}",
                f"{batch_size / batch_s:,.0f}",
                f"{speedup:.1f}x",
                f"{max_err:.1e}",
            ]
        )
    return rows, speedups


def _parity_rows(bundle, estimator, max_predicates):
    rows = []
    start = time.perf_counter()
    loop = compute_candidates(
        bundle.train.table, ExactLoopEstimator(estimator), 0.05, max_predicates
    )
    loop_s = time.perf_counter() - start
    start = time.perf_counter()
    batched = compute_candidates(bundle.train.table, estimator, 0.05, max_predicates)
    batch_s = time.perf_counter() - start
    top_loop, _ = select_top_k(loop, TOP_K, containment_threshold=0.5)
    top_batch, _ = select_top_k(batched, TOP_K, containment_threshold=0.5)
    assert [s.pattern for s in top_loop] == [s.pattern for s in top_batch], (
        "the exact kernel's lattice search changed the top-k explanations"
    )
    for a, b in zip(top_loop, top_batch):
        assert abs(a.responsibility - b.responsibility) < 1e-10
        assert abs(a.bias_change - b.bias_change) < 1e-10
    rows.append(
        [
            f"exact (smooth), {max_predicates} levels",
            loop.num_candidates,
            f"{loop_s:.2f}",
            f"{batch_s:.2f}",
            f"{loop_s / batch_s:.1f}x",
            "yes",
        ]
    )
    return rows


def test_exact_batch_throughput(benchmark, smoke):
    rows_count = 400 if smoke else 1000
    batch_sizes = [64, 256] if smoke else [64, 256, 512]
    bar = 1.5 if smoke else 2.0
    bundle, estimator = _build(rows_count)

    def run():
        throughput, speedups = _throughput_rows(estimator, batch_sizes)
        parity = _parity_rows(bundle, estimator, 2 if smoke else 3)
        return throughput, speedups, parity

    throughput, speedups, parity = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            f"Exact influence kernel (German {rows_count}, oracle loop vs one batch call)",
            ["batch", "oracle subsets/s", "batch subsets/s", "speedup", "max |Δ|"],
            throughput,
            note="subset sizes on both sides of |S| = p; masks pre-built outside the timer",
        ),
        filename="exact_batch_throughput.txt",
    )
    emit(
        render_table(
            f"Exact-estimator lattice search end-to-end (German {rows_count})",
            ["estimator", "candidates", "oracle (s)", "batch (s)", "speedup", "identical top-k"],
            parity,
            note=f"identical = same top-{TOP_K} patterns and scores from both paths",
        ),
        filename="exact_batch_lattice.txt",
    )
    # The speed floor: >=2x over the oracle on batched exact queries at m >= 256.
    for batch_size in batch_sizes:
        if batch_size < 256:
            continue
        assert speedups[batch_size] >= bar, (
            f"exact batch speedup at m={batch_size} fell below {bar}x: "
            f"{speedups[batch_size]:.1f}x"
        )
