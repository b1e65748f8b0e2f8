"""§6.7 — detecting anchoring-attack poison with influence-ranked clusters.

Injects non-random anchoring poison into German Credit, then compares three
detectors at the same inspection budget:

* LocalOutlierFactor (the paper's failing baseline),
* k-means clusters ranked by second-order influence,
* GMM clusters ranked by second-order influence.

Expected shape (paper's numbers): LOF recall ≈ 0; the top-2 influence-ranked
clusters contain ~70% (or more) of the poisoned points.
"""

from __future__ import annotations

import numpy as np

from repro.bench import emit, render_table
from repro.cluster import local_outlier_factor
from repro.datasets import TabularEncoder, load_german, train_test_split
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LogisticRegression
from repro.poisoning import AnchoringAttack, rank_clusters_by_influence

POISON_FRACTIONS = [0.05, 0.10]


def _run() -> list[list[object]]:
    metric = get_metric("statistical_parity")
    rows = []
    for fraction in POISON_FRACTIONS:
        data = load_german(1000, seed=1, bias_strength=0.3)
        train, test = train_test_split(data, 0.25, seed=1)
        poisoned = AnchoringAttack(
            poison_fraction=fraction, num_anchors=5, seed=5
        ).poison(train)
        encoder = TabularEncoder().fit(poisoned.dataset.table)
        X = encoder.transform(poisoned.dataset.table)
        model = LogisticRegression(1e-3).fit(X, poisoned.dataset.labels)
        ctx = FairnessContext(
            encoder.transform(test.table), test.labels, test.privileged_mask(), 1
        )
        # Bias amplification caused by the attack (clean model for reference).
        clean_enc = TabularEncoder().fit(train.table)
        clean_model = LogisticRegression(1e-3).fit(
            clean_enc.transform(train.table), train.labels
        )
        clean_ctx = FairnessContext(
            clean_enc.transform(test.table), test.labels, test.privileged_mask(), 1
        )
        clean_bias = metric.value(clean_model, clean_ctx)
        poisoned_bias = metric.value(model, ctx)

        estimator = make_estimator(
            "second_order", model, X, poisoned.dataset.labels, metric, ctx
        )
        recalls = {}
        for method in ("kmeans", "gmm"):
            report = rank_clusters_by_influence(
                X, estimator, n_clusters=8, method=method, seed=0
            )
            recalls[method] = report.fraction_in_top(poisoned.is_poisoned, 2)
        lof = local_outlier_factor(X, n_neighbors=20)
        flagged = np.zeros(len(X), dtype=bool)
        flagged[np.argsort(-lof)[: poisoned.num_poisoned]] = True
        lof_recall = (flagged & poisoned.is_poisoned).sum() / poisoned.num_poisoned

        rows.append(
            [
                f"{fraction:.0%}",
                f"{clean_bias:.3f}",
                f"{poisoned_bias:.3f}",
                f"{lof_recall:.1%}",
                f"{recalls['kmeans']:.1%}",
                f"{recalls['gmm']:.1%}",
            ]
        )
    return rows


def test_poison_detection(benchmark):
    rows = benchmark.pedantic(_run, rounds=1, iterations=1)
    emit(
        render_table(
            "§6.7: anchoring-attack detection on German (top-2 clusters, SO-ranked)",
            ["poison", "clean bias", "poisoned bias", "LOF recall",
             "kmeans top-2 recall", "gmm top-2 recall"],
            rows,
            note="paper: LOF detects none; top-2 SO-ranked clusters hold ~70% of poison",
        ),
        filename="poison_detection.txt",
    )
    # The qualitative claims must hold for the 10% attack.
    lof_recall = float(rows[-1][3].rstrip("%")) / 100
    gmm_recall = float(rows[-1][5].rstrip("%")) / 100
    assert lof_recall < 0.1
    assert gmm_recall > 0.5
