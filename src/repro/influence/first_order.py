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
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.lazy import Lazy

# The linear mask paths (boolean and packed) fold the mask/point-influence
# product over column blocks of training rows, casting each block into one
# reused float64 buffer of at most this many bytes before its GEMV.  At
# 1 MiB the buffer stays in L2, so the cast and the GEMV that reads it
# never go out to DRAM, as a float cast of a whole batch (8 bytes per mask
# bit) would.
_FOLD_BUFFER_BYTES = 1 << 20


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
        self._stest = self.solver.solve(self.grad_f)
        self._point_influences = Lazy("influence.point_influences")

    def _extent_cache_spec(self) -> tuple:
        return ("first_order", self.damping)

    def param_change(self, indices: np.ndarray) -> np.ndarray:
        indices = self._subset_size_ok(indices)
        g_s = self.per_sample_grads[indices].sum(axis=0)
        return self.solver.solve(g_s) / self.num_train

    def _param_change_from_masks(self, masks: np.ndarray) -> np.ndarray:
        if masks.shape[0] == 0:
            return np.zeros((0, self.model.num_params))
        # One GEMM forms every g_S; one multi-RHS solve against the cached
        # factorization turns them into Δθ's.
        grad_sums = self.artifacts.gradient_sums(masks)
        return self.solver.solve_many(grad_sums) / self.num_train

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        if not idxs:
            return np.zeros((0, self.model.num_params))
        grads = self.per_sample_grads
        grad_sums = np.stack([grads[idx].sum(axis=0) for idx in idxs])
        return self.solver.solve_many(grad_sums) / self.num_train

    def bias_change(self, indices: np.ndarray) -> float:
        if self.evaluation != "linear":
            return super().bias_change(indices)
        indices = self._subset_size_ok(indices)
        return float(self.point_influences()[indices].sum())

    def bias_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        if self.evaluation != "linear":
            return super().bias_change_batch(subsets, num_rows=num_rows)
        packed = self._check_packed(subsets, num_rows)
        if packed is not None:
            with trace.span(
                "influence.batch_packed",
                estimator=type(self).__name__,
                m=int(packed.shape[0]),
            ):
                return self._packed_bias_change(packed)
        if num_rows is not None:
            idxs = self._check_index_batch(subsets)
            if not idxs:
                return np.zeros(0)
            # Additivity makes each index subset a pure gather-sum over the
            # pre-computed per-point influences — O(|S|) per subset, never
            # touching the other n − |S| rows.
            with trace.span(
                "influence.batch_indices",
                estimator=type(self).__name__,
                m=len(idxs),
                n=self.num_train,
            ) as s:
                s.add("evaluations", len(idxs))
                pi = self.point_influences()
                return np.array([pi[idx].sum() for idx in idxs])
        masks = self._check_batch(subsets)
        # Linearized ΔF is additive over points, so the whole batch is one
        # mask-matrix / point-influence product — no solve at all.
        return self._fold(masks.shape[0], lambda c0, c1: masks[:, c0:c1])

    def _packed_bias_change(self, packed: np.ndarray) -> np.ndarray:
        if self.evaluation != "linear":
            return super()._packed_bias_change(packed)
        from repro.mining.bitset import popcount

        counts = np.atleast_1d(popcount(packed))
        if counts.size and int(counts.max()) >= self.num_train:
            # Mirrors _check_batch's guard without unpacking: _check_packed
            # refuses padding bits, so only the full-training-set mask
            # reaches n.
            raise ValueError("cannot remove the entire training set")
        return self._fold(
            packed.shape[0],
            lambda c0, c1: np.unpackbits(
                packed[:, c0 // 8 : (c1 + 7) // 8], axis=1, count=c1 - c0
            ),
        )

    def _fold(self, m: int, columns) -> np.ndarray:
        """ΔF of m masks, one L2-sized block of training rows at a time.

        ``columns(c0, c1)`` returns the masks' 0/1 cells for rows c0..c1 as
        an (m, c1 − c0) array.  Blocks span a multiple of 8 rows, so a
        packed batch splits on byte boundaries, and both mask paths cast
        into the same buffer shape: they run the same GEMV calls and agree
        bit for bit.
        """
        if m == 0:
            return np.zeros(0)
        n = self.num_train
        pi = self.point_influences()
        step = 8 * max(1, _FOLD_BUFFER_BYTES // (64 * m))
        buffer = np.empty((m, min(step, n)))
        out = np.zeros(m)
        with trace.span(
            "influence.batch", estimator=type(self).__name__, m=m, n=n
        ) as s:
            s.add("evaluations", m)
            s.add("gemm_flops", 2.0 * m * n)
            for c0 in range(0, n, step):
                c1 = min(c0 + step, n)
                block = buffer[:, : c1 - c0]
                np.copyto(block, columns(c0, c1))
                out += block @ pi[c0:c1]
        return out

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
