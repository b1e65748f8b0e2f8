"""Second-order group influence (paper Eq. 10, after Basu et al. 2020).

First-order group influence assumes points are removed independently; for
coherent subsets — exactly what Gopher's patterns describe — the points are
correlated and the assumption breaks down.  The second-order correction
re-introduces the subset's own curvature H_S = (1/m) Σ_{z∈S} ∇²ℓ(z, θ*).

Two variants are provided:

* ``variant="exact"`` (default) — the Newton step on the reduced objective:

      Δθ = (n·H − m·H_S)⁻¹ g_S.

  This is the closed form the series below truncates; it is exact for
  quadratic losses.  Every subset needs its own reduced matrix, so every
  exact query — scalar, mask, packed or index batch — runs one kernel,
  :meth:`ReducedHessianSolver.solve_many`, one subset at a time.  With
  the model's rank-one factors ``m·H_S = Σ_{i∈S} w_i φ_i φ_iᵀ + m·ridge·I``,
  each reduced matrix is

      n·H − m·ridge·I − V_Sᵀ V_S,   V_S = [√w_i φ_i]_{i∈S, w_i≠0}:

  the lower triangle of ``n·H − m·ridge·I`` downdated by one O(r·p²)
  ``dsyrk`` of the subset's r curvature rows, then one O(p³/3)
  ``dpotrf`` and one O(p²) ``dpotrs``.  Only one (p, p) matrix is alive
  at a time, so no byte budget is needed whatever n is.  A matrix that
  fails ``dpotrf`` runs :class:`HessianSolver`'s ×10 damping escalation.
  Models without rank-one factors, or with a negative weight (the
  downdate needs √w), build ``n·H − m·model.hessian(X_S)`` densely and
  go through the same factor-and-solve.

* ``variant="series"`` — the first-order Neumann expansion of that solve,
  matching the structure of the paper's Eq. 10:

      Δθ ≈ (1/(n−m)) H⁻¹ g_S − (m/(n−m)²)(I − H⁻¹H_S) H⁻¹ g_S.

  Note on the transcription in the paper: Eq. 10 is stated in terms of an
  ``I^{(1)}`` whose sign/scale mixes the up-weighting and removal
  conventions.  The form above is the one consistent with ε = −1/n removal
  (it reduces to the FO direction as m → 1) and is validated against
  retraining ground truth in the test suite — the property Figure 3 checks.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.influence.hessian import ReducedHessianSolver
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace


class SecondOrderInfluence(InfluenceEstimator):
    """Eq. 10: group influence with the curvature correction."""

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        damping: float = 0.0,
        variant: str = "exact",
        evaluation: str = "smooth",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if variant not in ("exact", "series"):
            raise ValueError(f"variant must be 'exact' or 'series', got {variant!r}")
        super().__init__(model, X_train, y_train, metric, test_ctx, evaluation, artifacts)
        self.variant = variant
        self.damping = damping
        # Hessian, factorization and rank-one factors all live in the
        # (possibly shared) artifacts bundle: estimators of different
        # metrics / groups / variants with the same damping reuse them.
        self.hessian = self.artifacts.hessian
        self.solver = self.artifacts.solver(damping)

    def _extent_cache_spec(self) -> tuple:
        return ("second_order", self.variant, float(self.damping))

    def warm(self) -> "SecondOrderInfluence":
        super().warm()
        _ = self.artifacts.hessian_factors()
        return self

    def param_change(self, indices: np.ndarray) -> np.ndarray:
        indices = self._subset_size_ok(indices)
        if self.variant == "exact":
            return self._exact_param_changes([indices])[0]
        if indices.size == 0:
            return np.zeros(self.model.num_params)
        m, n = indices.size, self.num_train
        with trace.span("influence.subset_hessian", m=int(m)):
            g_s = self.per_sample_grads[indices].sum(axis=0)
            subset_hessian = self.model.hessian(self.X_train[indices], self.y_train[indices])
        u = self.solver.solve(g_s)
        correction = u - self.solver.solve(subset_hessian @ u)
        return u / (n - m) - (m / (n - m) ** 2) * correction

    def _param_change_from_masks(self, masks: np.ndarray) -> np.ndarray:
        """Batched Δθ's.

        The ``"series"`` variant only ever applies subset Hessians to
        vectors, so for models exposing rank-one Hessian factors the whole
        batch reduces to GEMMs against the cached factorization: one
        multi-RHS solve for ``u_S = H⁻¹ g_S``, three matrix products for
        every ``H_S u_S``, and one more multi-RHS solve for the correction;
        models without factor structure loop the scalar query.  The
        ``"exact"`` variant solves a *different* reduced matrix
        ``n·H − m·H_S`` per subset, through the same kernel as every other
        exact query (see the module docstring).  Both entry
        representations — dense (m, n) masks and packed uint8 batches —
        funnel through this hook, so the lattice and the mining engine take
        the same fast path.
        """
        if self.variant == "exact":
            return self._exact_param_changes([np.flatnonzero(mask) for mask in masks])
        num_subsets = masks.shape[0]
        if num_subsets == 0:
            return np.zeros((0, self.model.num_params))
        factors = self.artifacts.hessian_factors()
        if factors is None:
            return super()._param_change_from_masks(masks)
        phi, weights, ridge = factors
        n = self.num_train
        p = self.model.num_params
        mask_f = masks.astype(np.float64)
        sizes = mask_f.sum(axis=1)
        grad_sums = self.artifacts.gradient_sums(masks)
        u = self.solver.solve_many(grad_sums)  # (m, p) rows = H⁻¹ g_S
        # H_S u_S = (1/|S|) φᵀ (1_S ⊙ w ⊙ (φ u_S)) + ridge·u_S, batched over
        # the subset axis by weighting the (n, m) projection with the masks.
        with trace.span("influence.gemm", m=num_subsets, n=n, p=p, kind="curvature") as s:
            s.add("gemm_flops", 4.0 * num_subsets * n * p)
            projections = phi @ u.T  # (n, m)
            weighted = (mask_f.T * weights[:, None]) * projections
            denom = np.where(sizes > 0, sizes, 1.0)
            hs_u = (phi.T @ weighted) / denom[None, :] + ridge * u.T  # (p, m)
        correction = u - self.solver.solve_many(hs_u.T)
        rest = n - sizes
        deltas = u / rest[:, None] - (sizes / rest**2)[:, None] * correction
        deltas[sizes == 0] = 0.0  # matches the scalar empty-subset shortcut
        return deltas

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        """Index-streamed exact batches go straight to the kernel: each
        subset's curvature rows are its own index array, so nothing is
        unpacked to (m, n) masks."""
        if self.variant == "exact":
            return self._exact_param_changes(idxs)
        return super()._param_changes_indices(idxs)

    def _exact_param_changes(self, idxs: list[np.ndarray]) -> np.ndarray:
        """Exact Δθ's of validated index arrays, one kernel call for the
        batch (see the module docstring).  Empty subsets are answered with
        zeros and never reach the kernel."""
        n, p = self.num_train, self.model.num_params
        deltas = np.zeros((len(idxs), p))
        solved = [j for j, idx in enumerate(idxs) if idx.size]
        subsets = [idxs[j] for j in solved]
        grads = self.per_sample_grads
        rhs = np.array([grads[s].sum(axis=0) for s in subsets]).reshape(-1, p)
        factors = self.artifacts.hessian_factors()
        if factors is None or factors[1].min() < 0.0:
            model, X, y = self.model, self.X_train, self.y_train
            matrices = (n * self.hessian - s.size * model.hessian(X[s], y[s]) for s in subsets)
            downdates = None
        else:
            phi, weights, ridge = factors
            # Fortran order, so dsyrk downdates each matrix in place.
            base, eye = np.asfortranarray(n * self.hessian), np.asfortranarray(np.eye(p))
            matrices = (base - s.size * ridge * eye for s in subsets)
            downdates = (_curvature_rows(phi, weights, s) for s in subsets)
        kernel = ReducedHessianSolver.with_damping(self.damping)
        rhs_flops = 2.0 * p * sum(s.size for s in subsets)
        deltas[solved] = kernel.solve_many(rhs, matrices, downdates, rhs_flops=rhs_flops)
        return deltas


def _curvature_rows(phi: np.ndarray, weights: np.ndarray, subset: np.ndarray) -> np.ndarray:
    """V_S: the subset's √w-scaled curvature rows, without the rows of w_i = 0."""
    w_s = weights[subset]
    curved = w_s != 0.0
    return phi[subset[curved]] * np.sqrt(w_s[curved])[:, None]
