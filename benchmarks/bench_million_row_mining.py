"""Million-row mining: projection + compressed tidlists.

Two claims about the conditional-database machinery of the closed-pattern
miner (``projection="auto"``), measured on the first-order estimator's
linear packed path — the configuration whose per-extent cost is pure
byte traffic, so representation wins and losses are visible undiluted:

1. **Bounded mining memory** — the traced peak of a whole mining search
   stays under one fixed budget across a 22× sweep of training-set size
   (0.45M → 10M rows).  Everything the search touches is either a fixed
   buffer (the scoring fold's 64 MiB float block, the 32 MiB flush-group
   cap), local to a conditional space (``count/8``-byte tidlists),
   sparse (4–8 bytes × count indices), or row-width-scale state carried
   a handful of times (digest values, emitted representative masks, the
   level-1 packed extents) — tens of bytes per training row in total,
   measured ~0.93 GiB at 10M rows, where one ``(batch, n)`` float
   materialization alone would cost ~20 GiB and a frontier-wide boolean
   mask matrix far more.  Nothing scales with ``n × frontier``.
   Start-up state (model fit, per-sample gradients, packed alphabet) is
   warmed outside the traced region — the claim is about the *search*,
   not the pipeline.
2. **Deep-mining speedup** — at depth 3 under a sparse support threshold
   (τ = 0.3%), ``auto`` beats the flat ``never`` traversal ≥ 2× once the
   table passes a million training rows, with byte-identical candidates
   (pattern, support, and responsibility to 1e-10).  The flat search
   pays ``O(n)`` per deep extent for scoring casts and full-width ANDs;
   the projected search pays ``O(count)`` once the extent lives in a
   conditional space or an index tidlist.

A third row pins the *gate*: below ``_AUTO_DIGEST_MIN_ROWS`` table rows
(sqf at benchmark scale) ``auto`` must run the flat search by
construction — zero projection builds, zero compressions — because on
cache-resident tables the digest machinery can only lose.

``--smoke`` keeps one above-gate synthetic point (450k training rows)
and the sqf gate row, with a relaxed speedup floor for shared CI
runners; the memory budget and the identical-candidates assertions are
structural and stay strict.
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
#: ~115 MiB at 0.45M training rows, ~369 MiB at 4.2M, ~928 MiB at 10M —
#: tens of bytes per row (digest values, sparse frontier extents,
#: emitted representative masks, the fixed fold/flush buffers).  The
#: budget leaves ~1.4× headroom at the top of the sweep yet sits ~16×
#: below the ~20 GiB a single (batch, n) float materialization would
#: cost at 10M rows — the failure mode the budget exists to catch.
MINING_PEAK_BUDGET_MIB = 1280

#: Speedup floors for never/auto at depth 3, τ = 0.3%.  Measured 2.87×
#: at 4.2M training rows and 3.72× at 10M; the 2× floor is the
#: acceptance bar, not the expectation.  Smoke runs a single sub-million
#: point on a shared runner, so its floor only guards against the
#: machinery *losing* outright.
SPEEDUP_FLOOR = 2.0
SPEEDUP_FLOOR_SMOKE = 1.1

SCALE_SEARCH = dict(support_threshold=0.003, max_predicates=3)
GATE_SEARCH = dict(support_threshold=0.01, max_predicates=3)


def _workloads(smoke: bool):
    """(dataset, n_rows, search, floor) rows; train rows = 0.75 · n_rows.

    ``floor=None`` marks the gate row: auto must equal the flat search
    there (no projection machinery), so no speedup is claimed.
    """
    if smoke:
        return [
            ("synth_scale", 600_000, SCALE_SEARCH, SPEEDUP_FLOOR_SMOKE),
            ("sqf", 24_000, GATE_SEARCH, None),
        ]
    return [
        ("synth_scale", 600_000, SCALE_SEARCH, SPEEDUP_FLOOR_SMOKE),
        ("synth_scale", 5_600_000, SCALE_SEARCH, SPEEDUP_FLOOR),
        ("synth_scale", 13_400_000, SCALE_SEARCH, SPEEDUP_FLOOR),
        ("sqf", 72_000, GATE_SEARCH, None),
    ]


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


def _mine(table, estimator, alphabet, search, mode):
    start = time.perf_counter()
    result = mine_closed_candidates(
        table, estimator,
        support_threshold=search["support_threshold"],
        max_predicates=search["max_predicates"],
        alphabet=alphabet, projection=mode, batch_size=BATCH_SIZE,
    )
    return result, time.perf_counter() - start


def _signature(result):
    return [
        (str(stats.pattern), round(stats.support, 12), round(stats.responsibility, 10))
        for stats in result.candidates
    ]


def _run(smoke: bool):
    rows = []
    for dataset, n_rows, search, floor in _workloads(smoke):
        bundle, estimator, alphabet = _build(
            dataset, n_rows, search["support_threshold"]
        )
        table = bundle.train.table
        never, never_s = _mine(table, estimator, alphabet, search, "never")
        auto, auto_s = _mine(table, estimator, alphabet, search, "auto")

        # Identical candidates — representation must never leak into
        # results, whichever side of the gate the workload is on.
        assert _signature(never) == _signature(auto), (
            f"{dataset} n={table.num_rows}: auto and never candidates diverged"
        )

        projections = alphabet._stats["projection_builds"]
        if floor is None:
            # Gate row: the auto search must have been the flat search.
            assert projections == 0, (
                f"{dataset} n={table.num_rows}: {projections} projection "
                f"builds below the auto gate — _AUTO_DIGEST_MIN_ROWS is "
                f"not being honored"
            )
        else:
            assert projections > 0, (
                f"{dataset} n={table.num_rows}: auto never projected — the "
                f"sweep is not exercising the conditional-database path"
            )
            assert never_s / auto_s >= floor, (
                f"{dataset} n={table.num_rows}: speedup "
                f"{never_s / auto_s:.2f}x below the {floor:.1f}x floor "
                f"(never {never_s:.2f}s, auto {auto_s:.2f}s)"
            )

        # Traced peak of a full auto search, warm caches: the memory the
        # mining layer itself is responsible for.
        tracemalloc.start()
        mine_closed_candidates(
            table, estimator,
            support_threshold=search["support_threshold"],
            max_predicates=search["max_predicates"],
            alphabet=alphabet, projection="auto", batch_size=BATCH_SIZE,
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
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
                f"{never_s:.2f}",
                f"{auto_s:.2f}",
                f"{never_s / auto_s:.2f}x"
                + ("" if floor is not None else " (gate)"),
                f"{peak_mib:.1f}",
                len(auto.candidates),
                "yes" if projections else "no",
                "yes",
            ]
        )
        del bundle, estimator, alphabet, never, auto
    return rows


def test_million_row_mining(benchmark, smoke):
    rows = benchmark.pedantic(_run, args=(smoke,), rounds=1, iterations=1)
    emit(
        render_table(
            "Million-row mining: conditional projection + compressed tidlists "
            + ("(smoke)" if smoke else "(first-order linear, depth 3)"),
            [
                "workload", "never s", "auto s", "speedup",
                "auto peak MiB", "candidates", "projected", "identical",
            ],
            rows,
            note=f"peak = tracemalloc over one full auto search, start-up "
            f"caches warmed outside the traced region; fixed budget "
            f"{MINING_PEAK_BUDGET_MIB} MiB at every n (train rows span "
            f"0.45M-10M full / one 0.45M point smoke); the sqf row pins "
            f"the _AUTO_DIGEST_MIN_ROWS gate: auto == flat search below "
            f"it, zero projections, ratio ~1x by construction",
        ),
        filename="million_row_mining.txt",
    )
