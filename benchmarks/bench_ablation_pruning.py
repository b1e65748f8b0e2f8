"""Ablation — how much work Algorithm 1's pruning heuristics save.

Not a table in the paper, but DESIGN.md calls out the two pruning rules as
load-bearing design choices; this bench quantifies them on German:

* responsibility-must-increase merge pruning: candidate count and runtime
  with the rule on vs off;
* support threshold τ sweep: candidate counts at τ ∈ {1%, 5%, 10%, 25%};
* containment threshold c sweep: how diversity changes the selected top-3.
"""

from __future__ import annotations

import time

import pytest

from repro.bench import build_pipeline, emit, render_table
from repro.influence import FirstOrderInfluence
from repro.mining import PredicateAlphabet
from repro.patterns import compute_candidates, select_top_k


@pytest.fixture(scope="module")
def setup():
    bundle = build_pipeline("german", "logistic_regression", n_rows=1000, seed=1)
    estimator = FirstOrderInfluence(
        bundle.model, bundle.X_train, bundle.train.labels, bundle.metric, bundle.test_ctx
    )
    return bundle, estimator


def test_ablation_responsibility_pruning(benchmark, setup):
    bundle, estimator = setup

    def run():
        rows = []
        for prune in (True, False):
            start = time.perf_counter()
            result = compute_candidates(
                PredicateAlphabet(bundle.train.table, 0.05), estimator, max_predicates=3,
                prune_by_responsibility=prune,
            )
            seconds = time.perf_counter() - start
            rows.append(
                [
                    "on" if prune else "off",
                    result.num_candidates,
                    sum(lv.num_merges_tried for lv in result.levels),
                    f"{seconds:.2f}",
                ]
            )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Ablation: responsibility-must-increase pruning (German, 3 predicates)",
            ["pruning", "#candidates", "#merges tried", "seconds"],
            rows,
        ),
        filename="ablation_pruning.txt",
    )
    assert rows[0][1] < rows[1][1]


def test_ablation_support_threshold(benchmark, setup):
    bundle, estimator = setup

    def run():
        rows = []
        for tau in (0.01, 0.05, 0.10, 0.25):
            result = compute_candidates(
                PredicateAlphabet(bundle.train.table, tau), estimator, max_predicates=2
            )
            top = select_top_k(result.candidates, 3, 0.5)
            best = top[0].responsibility if top else float("nan")
            rows.append([f"{tau:.0%}", result.num_candidates, f"{best:.2%}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Ablation: support threshold tau (German, 2 predicates)",
            ["tau", "#candidates", "top-1 est. responsibility"],
            rows,
            note="the paper: tau as low as 1% adds low-support patterns without better bias reduction",
        ),
        filename="ablation_support.txt",
    )
    counts = [row[1] for row in rows]
    assert counts == sorted(counts, reverse=True)


def test_ablation_containment_threshold(benchmark, setup):
    bundle, estimator = setup
    result = compute_candidates(
        PredicateAlphabet(bundle.train.table, 0.05), estimator, max_predicates=2
    )

    def run():
        rows = []
        for c in (0.25, 0.5, 0.75, 1.0):
            top = select_top_k(result.candidates, 3, c)
            overlap = 0.0
            masks = [s.mask() for s in top]
            for i in range(len(masks)):
                for j in range(i + 1, len(masks)):
                    inter = (masks[i] & masks[j]).sum()
                    overlap = max(overlap, inter / masks[i].sum())
            rows.append([f"{c:.2f}", len(top), f"{overlap:.2f}"])
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    emit(
        render_table(
            "Ablation: containment threshold c (German, top-3 diversity)",
            ["c", "selected", "max pairwise overlap"],
            rows,
            note="smaller c forces more diverse (less overlapping) explanations",
        ),
        filename="ablation_containment.txt",
    )
