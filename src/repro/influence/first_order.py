"""First-order group influence (paper Eq. 8–9).

Removing one point z is, to first order, up-weighting it by ε = −1/n, which
moves the optimum by Δθ ≈ (1/n) H⁻¹ ∇ℓ(z, θ*).  The FO *group* influence
simply sums the per-point effects:

    Δθ_FO(S) = (1/n) H⁻¹ g_S,   g_S = Σ_{z∈S} ∇ℓ(z, θ*).

Under ``evaluation="linear"`` (the default, paper Eq. 11) the bias change
decomposes into **per-point bias influences**

    infl_i = (1/n) (H⁻¹∇F)ᵀ ∇ℓ(z_i, θ*),

which are pre-computed once; any subset's ΔF is then a single masked sum.
This decomposition is also what the FO-tree baseline (§6.2) trains on.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.mining.bitset import fold_rows
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.lazy import Lazy


class FirstOrderInfluence(InfluenceEstimator):
    """Eq. 9: sum of independent per-point influence functions."""

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        damping: float = 0.0,
        evaluation: str = "linear",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        super().__init__(model, X_train, y_train, metric, test_ctx, evaluation, artifacts)
        self.damping = float(damping)
        self.solver = self.artifacts.solver(damping)
        # s = H⁻¹ ∇F lets linearized ΔF(S) collapse to a dot product with g_S.
        self._stest = self.solver.solve_many(self.grad_f[None])[0]
        self._point_influences = Lazy("influence.point_influences")

    def _extent_cache_spec(self) -> tuple:
        return ("first_order", self.damping)

    def _param_changes_packed(self, packed: np.ndarray) -> np.ndarray:
        # One fold forms every g_S; one multi-RHS solve against the cached
        # factorization turns them into Δθ's.
        grad_sums = self.artifacts.gradient_sums(packed)
        return self.solver.solve_many(grad_sums) / self.num_train

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        grads = self.per_sample_grads
        grad_sums = np.stack([grads[idx].sum(axis=0) for idx in idxs])
        return self.solver.solve_many(grad_sums) / self.num_train

    def _bias_changes(self, batch) -> np.ndarray:
        if self.evaluation != "linear":
            return super()._bias_changes(batch)
        # Linearized ΔF is additive over points: each subset sums its rows'
        # pre-computed point influences, with no solve at all.
        pi = self.point_influences()
        if isinstance(batch, list):
            return np.array([pi[idx].sum() for idx in batch])
        trace.add("gemm_flops", 2.0 * len(batch) * self.num_train)
        return fold_rows(batch, self.num_train, pi)

    def point_influences(self) -> np.ndarray:
        """Per-point linearized bias influence of removal, shape (n,).

        ``point_influences()[i]`` estimates ΔF when only row i is removed;
        subset estimates are sums of entries.  Cached after first call.
        """
        return self._point_influences.get(
            lambda: (self.per_sample_grads @ self._stest) / self.num_train
        )

    def warm(self) -> "FirstOrderInfluence":
        super().warm()
        _ = self.point_influences()
        return self
