"""Table 7 — lattice-search scalability in the number of candidates (§6.6).

Generates the top-5 German explanations with an increasing cap on pattern
length (the lattice "level") and reports, per level: cumulative execution
time, the diversity-filtering time, and the number of candidate patterns —
the three rows of the paper's Table 7.

Expected shape: candidate counts and execution time grow steeply with the
level while the filtering step stays in the milliseconds.
"""

from __future__ import annotations

import os

from repro.bench import build_pipeline, emit, render_table
from repro.influence import FirstOrderInfluence
from repro.patterns import compute_candidates, select_top_k

MAX_LEVEL = int(os.environ.get("REPRO_TABLE7_MAX_LEVEL", "5"))


def _run(max_level: int) -> list[list[object]]:
    bundle = build_pipeline("german", "logistic_regression", n_rows=1000, seed=1)
    estimator = FirstOrderInfluence(
        bundle.model, bundle.X_train, bundle.train.labels, bundle.metric, bundle.test_ctx
    )
    rows = []
    for level in range(1, max_level + 1):
        result = compute_candidates(
            bundle.train.table,
            estimator,
            support_threshold=0.05,
            max_predicates=level,
            num_bins=6,
        )
        _, filter_seconds = select_top_k(result.candidates, k=5, containment_threshold=0.5)
        execution = sum(lv.seconds for lv in result.levels)
        rows.append(
            [
                level,
                f"{execution:.2f}",
                f"{filter_seconds * 1000:.0f}",
                result.num_candidates,
                sum(lv.num_merges_tried for lv in result.levels),
            ]
        )
    return rows


def test_table7_lattice_scalability(benchmark):
    rows = benchmark.pedantic(_run, args=(MAX_LEVEL,), rounds=1, iterations=1)
    emit(
        render_table(
            "Table 7: scalability in the number of candidate patterns (German, top-5)",
            ["level", "execution (s)", "filtering (ms)", "#candidates", "#merges tried"],
            rows,
            note="level = max predicates per pattern; FO influence drives the search "
            f"(set REPRO_TABLE7_MAX_LEVEL to change the cap, default {MAX_LEVEL})",
        ),
        filename="table7_lattice_scalability.txt",
    )
    counts = [row[3] for row in rows]
    assert counts == sorted(counts)  # candidate count is monotone in the level
