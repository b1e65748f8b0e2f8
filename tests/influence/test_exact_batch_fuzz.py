"""Seeded fuzz for the exact path's kernel.

Random tables × random batches: whatever the draw, the scalar and batched
exact queries must agree with the dense per-subset step of
:mod:`oracles.exact_loop` to 1e-8, and a genuinely rank-deficient reduced
matrix must be *detected* by the kernel's ``dposv`` and escalated
(reproducing ``HessianSolver``'s damping escalation) rather than silently
solved.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.exact_loop import ExactLoopEstimator

from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LinearSVM, LogisticRegression
from repro.obs import trace
from repro.obs.trace import Tracer

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
    one batch mixes narrow and wide downdates."""
    subsets = []
    for k in range(int(rng.integers(6, 11))):
        hi = min(p, n - 1) if k % 2 else n - 1
        size = int(rng.integers(0, hi))
        subsets.append(np.sort(rng.choice(n, size=size, replace=False)))
    return subsets


def _kernel_spans(tracer):
    return [span for span in tracer.walk() if span.name == "hessian.reduced_solve"]


@pytest.mark.parametrize("seed", range(NUM_TABLES))
def test_fuzz_batch_matches_loop(seed):
    est, rng = _random_problem(seed)
    subsets = _random_batch(rng, est.num_train, est.model.num_params)
    oracle = ExactLoopEstimator(est)
    expected = oracle.param_change_batch(subsets)
    batch = est.param_change_batch(subsets)
    np.testing.assert_allclose(batch, expected, atol=ATOL, rtol=0.0)
    scalar = np.stack([est.param_change(s) for s in subsets])
    np.testing.assert_allclose(scalar, expected, atol=ATOL, rtol=0.0)
    bias_batch = est.bias_change_batch(subsets)
    np.testing.assert_allclose(bias_batch, oracle.bias_change_batch(subsets), atol=ATOL, rtol=0.0)
    if seed % 5 == 0:  # spot-check the packed and index entry points on the same draw
        masks = np.zeros((len(subsets), est.num_train), dtype=bool)
        for j, idx in enumerate(subsets):
            masks[j, idx] = True
        packed = est.param_change_batch(np.packbits(masks, axis=1), num_rows=est.num_train)
        np.testing.assert_allclose(packed, expected, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(packed, batch, atol=1e-12, rtol=0.0)
        indexed = est.param_change_batch(subsets, num_rows=est.num_train)
        np.testing.assert_allclose(indexed, expected, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(indexed, batch, atol=1e-10, rtol=0.0)


def test_fuzz_exercises_the_kernel():
    """The fuzz is only meaningful if the kernel actually runs: every
    non-empty subset of a fuzz batch, narrow or wide, is solved in the
    batch's one kernel span without escalating."""
    est, rng = _random_problem(0)
    subsets = _random_batch(rng, est.num_train, est.model.num_params)
    with trace.tracing(Tracer()) as tracer:
        est.param_change_batch(subsets)
    (span,) = _kernel_spans(tracer)
    assert span.attrs["subsets"] == sum(1 for s in subsets if s.size)
    assert span.attrs["escalated"] == 0


def test_rank_deficient_subset_escalates():
    """An unregularized model whose complement rows are rank deficient makes
    ``n·H − m·H_S`` exactly singular: the kernel's ``dposv`` must reject
    it, and the escalated solve must still match the dense oracle (whose
    ``HessianSolver`` escalates damping the same way), not return a
    silently garbage one."""
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
    subsets = [np.arange(3), np.arange(3, 10)]
    with trace.tracing(Tracer()) as tracer:
        batch = est.param_change_batch(subsets)
    (span,) = _kernel_spans(tracer)
    assert span.attrs["escalated"] >= 1
    expected = ExactLoopEstimator(est).param_change_batch(subsets)
    np.testing.assert_allclose(batch, expected, atol=ATOL, rtol=0.0)
    assert np.isfinite(batch).all()
