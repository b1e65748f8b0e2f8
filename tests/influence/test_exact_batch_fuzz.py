"""Seeded fuzz for the stacked batch of the exact path.

Random tables × random mask batches: whatever the draw, the batched exact
query must agree with the per-subset dense loop to 1e-8, and a genuinely
rank-deficient reduced matrix must be *detected* by the batched Cholesky
and escalated (reproducing the scalar damping escalation) rather than
silently solved.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LinearSVM, LogisticRegression

NUM_TABLES = 40
ATOL = 1e-8


def _random_problem(seed: int):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(50, 140))
    d = int(rng.integers(2, 6))
    X = rng.normal(size=(n, d))
    protected = rng.random(n) < 0.5
    logits = X @ rng.normal(size=d) - 0.5 * protected
    y = (logits + rng.normal(scale=0.7, size=n) > 0).astype(np.int64)
    n_test = max(20, n // 4)
    X_test = rng.normal(size=(n_test, d))
    y_test = (X_test @ rng.normal(size=d) > 0).astype(np.int64)
    ctx = FairnessContext(
        X=X_test, y=y_test, privileged=rng.random(n_test) < 0.5, favorable_label=1
    )
    if seed % 2:
        model = LinearSVM(l2_reg=float(rng.choice([1e-3, 1e-2])))
    else:
        model = LogisticRegression(l2_reg=float(rng.choice([1e-3, 1e-2])))
    model.fit(X, y)
    damping = float(rng.choice([0.0, 1e-3]))
    return make_estimator(
        "exact", model, X, y, get_metric("statistical_parity"), ctx,
        evaluation="smooth", damping=damping,
    ), rng


def _random_batch(rng: np.random.Generator, n: int, p: int) -> list[np.ndarray]:
    """Half the subsets drawn below |S| = p, half anywhere in [0, n), so
    one batch mixes narrow and wide padded gathers."""
    subsets = []
    for k in range(int(rng.integers(6, 11))):
        hi = min(p, n - 1) if k % 2 else n - 1
        size = int(rng.integers(0, hi))
        subsets.append(np.sort(rng.choice(n, size=size, replace=False)))
    return subsets


@pytest.mark.parametrize("seed", range(NUM_TABLES))
def test_fuzz_batch_matches_loop(seed):
    est, rng = _random_problem(seed)
    subsets = _random_batch(rng, est.num_train, est.model.num_params)
    loop = np.stack([est.param_change(s) for s in subsets])
    batch = est.param_change_batch(subsets)
    np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)
    bias_loop = np.array([est.bias_change(s) for s in subsets])
    bias_batch = est.bias_change_batch(subsets)
    np.testing.assert_allclose(bias_batch, bias_loop, atol=ATOL, rtol=0.0)
    if seed % 5 == 0:  # spot-check the packed and index entry points on the same draw
        masks = np.zeros((len(subsets), est.num_train), dtype=bool)
        for j, idx in enumerate(subsets):
            masks[j, idx] = True
        packed = np.packbits(masks, axis=1)
        np.testing.assert_allclose(
            est.param_change_batch(packed, num_rows=est.num_train),
            batch,
            atol=1e-12,
            rtol=0.0,
        )
        np.testing.assert_allclose(
            est.param_change_batch(subsets, num_rows=est.num_train),
            batch,
            atol=1e-10,
            rtol=0.0,
        )


def test_fuzz_exercises_stacked_path():
    """The fuzz is only meaningful if the fast path actually runs: every
    non-empty subset of a fuzz batch, narrow or wide, is solved stacked."""
    est, rng = _random_problem(0)
    subsets = _random_batch(rng, est.num_train, est.model.num_params)
    est.param_change_batch(subsets)
    nonempty = sum(1 for s in subsets if s.size)
    assert est.exact_batch_stats["stacked"] == nonempty
    assert est.exact_batch_stats["escalated"] == 0


def test_rank_deficient_subset_escalates():
    """An unregularized model whose complement rows are rank deficient makes
    ``n·H − m·H_S`` exactly singular: the batched Cholesky must reject it,
    and the escalated solve must still match the scalar loop (which
    escalates damping the same way), not return a silently garbage one."""
    rng = np.random.default_rng(7)
    base = rng.normal(size=(3, 3))
    X = np.vstack([base, np.tile(rng.normal(size=3), (27, 1))])
    y = np.concatenate([[1, 0, 1], np.tile([1, 1, 0], 9)])
    model = LogisticRegression(l2_reg=0.0).fit(X, y)
    ctx = FairnessContext(
        X=rng.normal(size=(20, 3)),
        y=(rng.random(20) > 0.5).astype(np.int64),
        privileged=rng.random(20) < 0.5,
        favorable_label=1,
    )
    est = make_estimator(
        "exact", model, X, y, get_metric("statistical_parity"), ctx,
        evaluation="smooth", damping=0.0,
    )
    # Removing the three distinct rows leaves only 27 copies of one point:
    # rank-1 complement, p = 4, |S| = 3 < p, ridge = damping = 0.
    singular_subset = np.arange(3)
    healthy_subset = np.arange(3, 10)
    batch = est.param_change_batch([singular_subset, healthy_subset])
    assert est.exact_batch_stats["escalated"] >= 1
    loop = np.stack([est.param_change(s) for s in (singular_subset, healthy_subset)])
    np.testing.assert_allclose(batch, loop, atol=ATOL, rtol=0.0)
    assert np.isfinite(batch).all()
