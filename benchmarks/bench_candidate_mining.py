"""Closed-pattern mining engine vs the lattice search (the PR-3 bars).

Three claims, measured on the paper's default estimator configuration
(second-order, series variant, smooth evaluation):

1. **Candidate-space reduction** — the miner scores one candidate per
   distinct *extent* (closed patterns only), so it issues strictly fewer
   influence evaluations than the lattice's per-pattern search
   (``num_evaluated`` on both engines; asserted on every workload).
2. **Bounded working set** — both engines hand the estimator packed
   rows, and every mask product reads them through the L2-sized
   column-block buffer of ``repro.mining.bitset``, so neither search
   holds an (m, n) boolean or float matrix.  Each engine's traced peak
   (``tracemalloc``) during the search is asserted under its own bound:
   the traced peak of one estimator call on ``min(batch_size, evaluated)``
   packed subsets (the fold buffer and the (n_test, m) evaluation
   matrices, measured rather than modelled), plus ``n/8`` bytes of
   packed row and ``_BOOKKEEPING_BYTES`` of Python bookkeeping per
   extent the engine scored or reports, plus one fold buffer for the
   search's own temporaries.  At smoke scale this catches an (m, n)
   float64 matrix (3.7 MB at German's 450 rows and m = 1024) but not an
   (m, n) boolean one (0.46 MB), which is smaller than the bookkeeping
   allowance; the estimator's own working set is pinned at 40,000 rows
   by ``tests/influence/test_packed_batch.py``.
3. **End-to-end parity** — both engines feed ``select_top_k`` and must
   return identical top-k explanations (patterns, supports, and
   responsibilities to 1e-10) on German and Adult.

``--smoke`` shrinks the workloads for CI and keeps the closed-count <
lattice-count assertion — the candidate-space reduction is a structural
property, not a tuning outcome, so it must hold at smoke scale too.
"""

from __future__ import annotations

import time
import tracemalloc

import numpy as np

from repro.bench import build_pipeline, emit, render_table
from repro.influence import make_estimator
from repro.mining import PredicateAlphabet, mine_closed_candidates
from repro.mining.bitset import _FOLD_BUFFER_BYTES, packed_width
from repro.patterns import compute_candidates, select_top_k

TOP_K = 5
SEARCH = dict(support_threshold=0.05, max_predicates=3)
BATCH_SIZE = 1024  # both searches' default batch_size
# Traced bytes per scored or reported extent beyond its packed row: the
# miner's extent keys and score cache measure about 450 B, the lattice's
# level state and pattern objects about 130 B.
_BOOKKEEPING_BYTES = 512


def _workloads(smoke: bool):
    # The (german, 800 rows, depth 3, seed 11) row is the regression anchor
    # for the miner's descent-bar cache: with the one-sided DFS-parent bars
    # it *over*-evaluated the lattice at depth 3 on exactly this workload;
    # the sub-extent bar lookup must keep it at or below the lattice.
    if smoke:
        return [("german", 600, 2, 1), ("adult", 1500, 2, 1), ("german", 800, 3, 11)]
    return [("german", 1000, 3, 1), ("adult", 4000, 3, 1), ("german", 800, 3, 11)]


def _build(dataset: str, rows: int, seed: int = 1):
    bundle = build_pipeline(dataset, "logistic_regression", n_rows=rows, seed=seed)
    estimator = make_estimator(
        "second_order", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx, variant="series", evaluation="smooth",
    )
    return bundle, estimator


def _traced_generate(engine_name: str, table, estimator, max_predicates: int):
    """Run one engine under tracemalloc; returns (result, seconds, peak_bytes)."""
    search = {"lattice": compute_candidates, "mining": mine_closed_candidates}[engine_name]
    tracemalloc.start()
    start = time.perf_counter()
    result = search(
        PredicateAlphabet(table, SEARCH["support_threshold"]), estimator,
        max_predicates=max_predicates,
    )
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def _call_peak(estimator, num_subsets: int, n_train: int) -> int:
    """Traced peak of one ``score_batch`` over random packed subsets."""
    rng = np.random.default_rng(0)
    packed = np.packbits(rng.random((num_subsets, n_train)) < 0.3, axis=1)
    tracemalloc.start()
    estimator.score_batch(packed, num_rows=n_train)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return peak


def _peak_bound(result, call_peak: int, n_train: int) -> int:
    """Traced bytes one engine's search may peak at (claim 2)."""
    extents = result.num_evaluated + result.num_candidates
    return call_peak + (packed_width(n_train) + _BOOKKEEPING_BYTES) * extents + _FOLD_BUFFER_BYTES


def _assert_identical_top_k(name, lattice, mined, k=TOP_K):
    top_lattice = select_top_k(lattice, k, containment_threshold=0.5)
    top_mined = select_top_k(mined, k, containment_threshold=0.5)
    assert [s.pattern for s in top_lattice] == [s.pattern for s in top_mined], (
        f"{name}: top-{k} patterns diverged between engines:\n"
        f"  lattice: {[str(s.pattern) for s in top_lattice]}\n"
        f"  mining:  {[str(s.pattern) for s in top_mined]}"
    )
    for a, b in zip(top_lattice, top_mined):
        assert abs(a.responsibility - b.responsibility) < 1e-10, (
            f"{name}: responsibility diverged for {a.pattern}: "
            f"{a.responsibility} vs {b.responsibility}"
        )
        assert abs(a.support - b.support) < 1e-12


def _run(smoke: bool):
    rows = []
    for name, n_rows, max_predicates, seed in _workloads(smoke):
        bundle, estimator = _build(name, n_rows, seed)
        table = bundle.train.table
        n_train = table.num_rows
        # Warm every estimator cache (per-sample grads, factorization) so
        # tracemalloc sees the search, not the shared start-up state.
        estimator.bias_change_batch([[0, 1, 2]])
        lattice, lattice_s, lattice_peak = _traced_generate(
            "lattice", table, estimator, max_predicates
        )
        mined, mined_s, mined_peak = _traced_generate(
            "mining", table, estimator, max_predicates
        )

        # Claim 1 — closed-only candidate space: strictly fewer influence
        # evaluations (this is the CI smoke assertion).  This holds on the
        # seed-11 depth-3 anchor only since the descent-bar cache; keep it
        # strict so a pruning regression re-opening the over-evaluation
        # fails loudly.
        assert mined.num_evaluated < lattice.num_evaluated, (
            f"{name}: mining evaluated {mined.num_evaluated} candidates, "
            f"lattice {lattice.num_evaluated} — no reduction"
        )
        # Claim 2 — bounded working set: each engine under its own bound.
        bounds = {}
        runs = (("lattice", lattice, lattice_peak), ("mining", mined, mined_peak))
        for engine, result, peak in runs:
            call_peak = _call_peak(estimator, min(BATCH_SIZE, result.num_evaluated), n_train)
            bounds[engine] = _peak_bound(result, call_peak, n_train)
            assert peak < bounds[engine], (
                f"{name}: {engine} peak {peak / 1e6:.2f}MB exceeds its bound "
                f"({bounds[engine] / 1e6:.2f}MB): one estimator call, its packed "
                f"rows and their bookkeeping; an (m, n) matrix is leaking into "
                f"the search"
            )
        # Claim 3 — end-to-end parity of the explanations.
        _assert_identical_top_k(name, lattice, mined)

        rows.append(
            [
                f"{name} (n={n_train}, L={max_predicates}, seed={seed})",
                lattice.num_evaluated,
                mined.num_evaluated,
                f"{1.0 - mined.num_evaluated / lattice.num_evaluated:.1%}",
                f"{lattice_peak / 1e6:.2f} / {bounds['lattice'] / 1e6:.2f}",
                f"{mined_peak / 1e6:.2f} / {bounds['mining'] / 1e6:.2f}",
                f"{lattice_s:.2f}",
                f"{mined_s:.2f}",
                "yes",
            ]
        )
    return rows


def test_candidate_mining(benchmark, smoke):
    rows = benchmark.pedantic(_run, args=(smoke,), rounds=1, iterations=1)
    emit(
        render_table(
            "Closed-pattern mining vs lattice search "
            + ("(smoke)" if smoke else "(second-order series, smooth)"),
            [
                "workload", "lattice evals", "mining evals", "fewer by",
                "lattice peak / bound MB", "mining peak / bound MB",
                "lattice s", "mining s", "top-k identical",
            ],
            rows,
            note="evals = influence evaluations issued during the search; "
            "peak = tracemalloc during candidate generation (start-up caches "
            "pre-warmed); top-k compared at k=5, scores to 1e-10",
        ),
        filename="candidate_mining.txt",
    )
