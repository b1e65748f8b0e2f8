"""Million-row mining: projection + compressed tidlists, bounded memory.

The closed-pattern miner re-packs shrunken branches into conditional
databases and carries sparse extents as sorted row indices
(``repro.mining.closed``).  One claim about that machinery, measured on
the first-order estimator's linear packed path — the configuration whose
per-extent cost is pure byte traffic:

**Bounded mining memory** — the traced peak of a whole mining search
stays under one fixed budget across a 22× sweep of training-set size
(0.45M → 10M rows).  Everything the search touches is either a fixed
buffer (the scoring fold's 1 MiB float block, the 32 MiB flush-group
cap), local to a conditional space (``count/8``-byte tidlists), sparse
(4–8 bytes × count indices), or row-width-scale state carried a handful
of times (digest values, emitted representative masks, the level-1
packed extents) — tens of bytes per training row in total, measured
~0.93 GiB at 10M rows, where one ``(batch, n)`` float materialization
alone would cost ~20 GiB and a frontier-wide boolean mask matrix far
more.  Nothing scales with ``n × frontier``.  Start-up state (model fit,
per-sample gradients, packed alphabet) is warmed outside the traced
region — the claim is about the *search*, not the pipeline.

Every row must also build conditional databases (``projection_builds >
0``), so the sweep exercises the machinery it bounds, and the traced
search — a repeat on the alphabet's warmed identity store — must return
the timed search's candidates (pattern, support, and responsibility to
1e-10).

``--smoke`` keeps one synthetic point (450k training rows); the memory
budget and the identical-candidates assertion are structural and stay
strict.
"""

from __future__ import annotations

import time
import tracemalloc

from repro.bench import build_pipeline, emit, render_table
from repro.influence import make_estimator
from repro.mining.alphabet import PredicateAlphabet
from repro.mining.closed import mine_closed_candidates

NUM_BINS = 4
BATCH_SIZE = 256

#: One fixed traced-peak budget for every sweep point.  Measured peaks:
#: ~115 MiB at 0.45M training rows, ~369 MiB at 4.2M, ~928 MiB at 10M
#: before the scoring fold shrank to 1 MiB (0.45M now reads 43 MiB; the
#: larger points were not re-run) — tens of bytes per row (digest values, sparse frontier extents,
#: emitted representative masks, the fixed fold/flush buffers).  The
#: budget leaves ~1.4× headroom at the top of the sweep yet sits ~16×
#: below the ~20 GiB a single (batch, n) float materialization would
#: cost at 10M rows — the failure mode the budget exists to catch.
MINING_PEAK_BUDGET_MIB = 1280

SCALE_SEARCH = dict(support_threshold=0.003, max_predicates=3)


def _workloads(smoke: bool):
    """(dataset, n_rows, search) rows; train rows = 0.75 · n_rows."""
    sizes = [600_000] if smoke else [600_000, 5_600_000, 13_400_000]
    return [("synth_scale", n_rows, SCALE_SEARCH) for n_rows in sizes]


def _build(dataset: str, n_rows: int, support_threshold: float):
    bundle = build_pipeline(dataset, "logistic_regression", n_rows=n_rows, seed=7)
    estimator = make_estimator(
        "first_order", bundle.model, bundle.X_train, bundle.train.labels,
        bundle.metric, bundle.test_ctx,
    )
    # Warm every shared lazy build — per-sample gradients, the packed
    # tidlist matrix — so the traced region below sees the search and only
    # the search.
    estimator.warm()
    alphabet = PredicateAlphabet(bundle.train.table, support_threshold, NUM_BINS, None).warm()
    return bundle, estimator, alphabet


def _mine(estimator, alphabet, search):
    return mine_closed_candidates(
        alphabet, estimator, max_predicates=search["max_predicates"], batch_size=BATCH_SIZE
    )


def _signature(result):
    return [
        (str(stats.pattern), round(stats.support, 12), round(stats.responsibility, 10))
        for stats in result.candidates
    ]


def _run(smoke: bool):
    rows = []
    for dataset, n_rows, search in _workloads(smoke):
        bundle, estimator, alphabet = _build(
            dataset, n_rows, search["support_threshold"]
        )
        table = bundle.train.table
        start = time.perf_counter()
        mined = _mine(estimator, alphabet, search)
        mine_s = time.perf_counter() - start

        projections = alphabet._stats["projection_builds"]
        assert projections > 0, (
            f"{dataset} n={table.num_rows}: the search never projected — the "
            f"sweep is not exercising the conditional-database path"
        )

        # Traced peak of a full search, warm caches: the memory the mining
        # layer itself is responsible for.
        tracemalloc.start()
        repeat = _mine(estimator, alphabet, search)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert _signature(repeat) == _signature(mined), (
            f"{dataset} n={table.num_rows}: a repeat search on the warmed "
            f"identity store changed the candidates"
        )
        peak_mib = peak / 2**20
        assert peak_mib < MINING_PEAK_BUDGET_MIB, (
            f"{dataset} n={table.num_rows}: mining peak {peak_mib:.1f} MiB "
            f"exceeds the fixed {MINING_PEAK_BUDGET_MIB} MiB budget — "
            f"something in the search scales with n × frontier again"
        )

        rows.append(
            [
                f"{dataset} (train={table.num_rows:,}, "
                f"tau={search['support_threshold']:.3f})",
                f"{mine_s:.2f}",
                f"{peak_mib:.1f}",
                len(mined.candidates),
                projections,
                "yes",
            ]
        )
        del bundle, estimator, alphabet, mined, repeat
    return rows


def test_million_row_mining(benchmark, smoke):
    rows = benchmark.pedantic(_run, args=(smoke,), rounds=1, iterations=1)
    emit(
        render_table(
            "Million-row mining: conditional projection + compressed tidlists "
            + ("(smoke)" if smoke else "(first-order linear, depth 3)"),
            [
                "workload", "mine s", "peak MiB", "candidates",
                "projections", "repeat identical",
            ],
            rows,
            note=f"peak = tracemalloc over one full search (a repeat on the "
            f"warmed identity store), start-up caches warmed outside the "
            f"traced region; fixed budget {MINING_PEAK_BUDGET_MIB} MiB at "
            f"every n (train rows span 0.45M-10M full / one 0.45M point "
            f"smoke); projections = conditional databases built over both "
            f"searches",
        ),
        filename="million_row_mining.txt",
    )
