"""The dense per-subset exact step: the reference for the exact kernel.

:class:`repro.influence.SecondOrderInfluence` answers every ``"exact"``
query — scalar, mask, packed and index — through one LAPACK kernel that
downdates ``n·H`` by each subset's curvature rows.  This module keeps the
step that kernel replaced: build the subset Hessian with
``model.hessian(X_S)``, form ``n·H − m·H_S`` densely and solve it with a
fresh :class:`repro.influence.HessianSolver`, whose ×10 damping escalation
the kernel must reproduce.  :class:`oracles.influence_loop.LoopEstimator`
runs it for an exact estimator, one subset at a time.
"""

from __future__ import annotations

import numpy as np

from repro.influence import HessianSolver


def param_change(est, indices: np.ndarray) -> np.ndarray:
    """Δθ = (n·H − m·H_S)⁻¹ g_S with H_S from ``model.hessian(X_S)``."""
    if indices.size == 0:
        return np.zeros(est.model.num_params)
    g_s = est.per_sample_grads[indices].sum(axis=0)
    subset_hessian = est.model.hessian(est.X_train[indices], est.y_train[indices])
    reduced = est.num_train * est.hessian - indices.size * subset_hessian
    return HessianSolver(reduced, damping=est.damping).solve_many(g_s[None])[0]
