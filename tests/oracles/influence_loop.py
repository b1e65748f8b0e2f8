"""The per-subset closed forms: the reference for every estimator's kernels.

Every estimator of :mod:`repro.influence` answers each query through its
batch kernels, a scalar query being a batch of one.  This module keeps
each family's per-subset form instead, computed one subset at a time from
the estimator's public pieces (its gradients, solver, model and metric):

* first order — Δθ = (1/n)·H⁻¹g_S, one solve against the shared factor;
* one-step GD — Δθ = (η/n)·g_S;
* second order, series — Eq. 10's Neumann step with the dense subset
  Hessian ``model.hessian(X_S)`` and two single-vector solves;
* second order, exact — the dense reduced step of :mod:`oracles.exact_loop`;
* retraining — a refit of a model clone on D ∖ S, warm-started as the
  estimator says.

:func:`bias_change` turns the Δθ into ΔF under the estimator's evaluation
mode with the scalar metric calls.  :class:`LoopEstimator` wraps an
estimator so that every query, batched ones included, runs these one
subset at a time; so ``compute_candidates(alphabet, LoopEstimator(est))`` is
the per-candidate loop search.  ``scalar_calls`` counts the per-subset
steps, so a test can check the loop really ran.
"""

from __future__ import annotations

import numpy as np
from oracles import exact_loop, row_subsets

from repro.influence import (
    FirstOrderInfluence,
    OneStepGradientDescent,
    RetrainInfluence,
    SecondOrderInfluence,
)


def _series(est, indices: np.ndarray) -> np.ndarray:
    m, n = indices.size, est.num_train
    if m == 0:
        return np.zeros(est.model.num_params)
    g_s = est.per_sample_grads[indices].sum(axis=0)
    subset_hessian = est.model.hessian(est.X_train[indices], est.y_train[indices])
    u = est.solver.solve_many(g_s[None])[0]
    correction = u - est.solver.solve_many((subset_hessian @ u)[None])[0]
    return u / (n - m) - (m / (n - m) ** 2) * correction


def _retrain(est, indices: np.ndarray) -> np.ndarray:
    keep = np.setdiff1d(np.arange(est.num_train), indices)
    clone = est.model.clone()
    warm = est.theta.copy() if est.warm_start else None
    clone.fit(est.X_train[keep], est.y_train[keep], warm_start=warm)
    return clone.theta - est.theta


def param_change(est, indices: np.ndarray) -> np.ndarray:
    """Δθ of removing the rows at ``indices``, by the family's per-subset form."""
    if isinstance(est, FirstOrderInfluence):
        g_s = est.per_sample_grads[indices].sum(axis=0)
        return est.solver.solve_many(g_s[None])[0] / est.num_train
    if isinstance(est, OneStepGradientDescent):
        g_s = est.per_sample_grads[indices].sum(axis=0)
        return (est.learning_rate / est.num_train) * g_s
    if isinstance(est, SecondOrderInfluence):
        if est.variant == "exact":
            return exact_loop.param_change(est, indices)
        return _series(est, indices)
    if isinstance(est, RetrainInfluence):
        return _retrain(est, indices)
    raise TypeError(f"no per-subset form for {type(est).__name__}")


def bias_change(est, indices: np.ndarray) -> float:
    """ΔF of removing the rows at ``indices``: the chain rule ∇Fᵀ Δθ, or the
    smooth or hard metric at θ* + Δθ minus its value at θ*."""
    delta = param_change(est, indices)
    if est.evaluation == "linear":
        return float(est.grad_f @ delta)
    theta = est.theta + delta
    if est.evaluation == "smooth":
        after = est.metric.surrogate(est.model, est.test_ctx, theta)
        return float(after - est.original_surrogate)
    return float(est.metric.value(est.model, est.test_ctx, theta) - est.original_bias)


class LoopEstimator:
    """An estimator whose every query is the per-subset form, one subset at a time."""

    def __init__(self, estimator) -> None:
        self._estimator = estimator
        self.scalar_calls = 0

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def _rows(self, subsets, num_rows: int | None) -> list[np.ndarray]:
        rows = row_subsets(subsets, num_rows)
        self.scalar_calls += len(rows)
        return rows

    def param_change(self, indices) -> np.ndarray:
        return self.param_change_batch([indices])[0]

    def bias_change(self, indices) -> float:
        return float(self.bias_change_batch([indices])[0])

    def responsibility(self, indices) -> float:
        return float(self.responsibility_batch([indices])[0])

    def param_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Δθ of each subset (packed rows, boolean mask or index array)."""
        deltas = [param_change(self._estimator, r) for r in self._rows(subsets, num_rows)]
        return np.stack(deltas) if deltas else np.zeros((0, self._estimator.model.num_params))

    def bias_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """ΔF of each subset (packed rows, boolean mask or index array)."""
        rows = self._rows(subsets, num_rows)
        return np.array([bias_change(self._estimator, r) for r in rows], dtype=np.float64)

    def responsibility_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        return self.score_batch(subsets, num_rows=num_rows)[0]

    def score_batch(self, subsets, num_rows: int | None = None):
        """``(responsibilities, bias changes)`` from the per-subset forms."""
        baseline = self._estimator.nonzero_baseline()
        bias_changes = self.bias_change_batch(subsets, num_rows=num_rows)
        return -bias_changes / baseline, bias_changes
