"""The dense per-subset exact step: the reference for the exact kernel.

:class:`repro.influence.SecondOrderInfluence` answers every ``"exact"``
query — scalar, mask, packed and index — through one LAPACK kernel that
downdates ``n·H`` by each subset's curvature rows.  This module keeps the
step that kernel replaced: build the subset Hessian with
``model.hessian(X_S)``, form ``n·H − m·H_S`` densely and solve it with a
fresh :class:`repro.influence.HessianSolver`, whose ×10 damping escalation
the kernel must reproduce.  :class:`ExactLoopEstimator` wraps an exact
estimator so that every query, batched ones included, runs this step one
subset at a time.
"""

from __future__ import annotations

import numpy as np

from repro.influence import HessianSolver, InfluenceEstimator


class ExactLoopEstimator:
    """An exact estimator whose every Δθ is the dense per-subset step."""

    def __init__(self, estimator) -> None:
        self._estimator = estimator

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def param_change(self, indices) -> np.ndarray:
        """Δθ = (n·H − m·H_S)⁻¹ g_S with H_S from ``model.hessian(X_S)``."""
        est = self._estimator
        indices = np.asarray(indices)
        indices = np.flatnonzero(indices) if indices.dtype == bool else indices.astype(np.int64)
        if indices.size == 0:
            return np.zeros(est.model.num_params)
        g_s = est.per_sample_grads[indices].sum(axis=0)
        subset_hessian = est.model.hessian(est.X_train[indices], est.y_train[indices])
        reduced = est.num_train * est.hessian - indices.size * subset_hessian
        return HessianSolver(reduced, damping=est.damping).solve(g_s)

    # The base class's scalar evaluation, run on this class's Δθ.
    bias_change = InfluenceEstimator.bias_change

    def param_change_batch(self, subsets) -> np.ndarray:
        return np.stack([self.param_change(subset) for subset in subsets])

    def bias_change_batch(self, subsets) -> np.ndarray:
        """ΔF of each subset (index array or boolean row mask), one at a time."""
        return np.array([self.bias_change(subset) for subset in subsets])
