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
  exact query — scalar, packed or index batch — runs one kernel,
  :meth:`ReducedHessianSolver.solve_many`, one subset at a time.  With
  the model's rank-one factors ``m·H_S = Σ_{i∈S} w_i φ_i φ_iᵀ + m·ridge·I``,
  each reduced matrix is

      n·H − m·ridge·I − V_Sᵀ V_S,   V_S = [√w_i φ_i]_{i∈S, w_i≠0}.

  V = √w ⊙ Φ is scaled once per model (:meth:`ModelArtifacts.curvature_rows`),
  so V_S is one ``compress`` by a mask or one ``take`` of an index array.
  The kernel refills one Fortran buffer with ``n·H − m·ridge·I``,
  subtracts V_SᵀV_S with one O(r·p²) ``dsyrk`` and lets one ``dposv``
  factor it in place.  Packed batches take every g_S from one column-block
  fold and unpack each row they solve (under a session, only the Δθ
  cache's misses) when the kernel reaches it, to gather its V_S, so one
  (n,) mask is alive at a time.

  Cost model, the one place it is stated: on the German audit grid
  (dataset 0, p = 54, 16,394 subsets of mean |S| 108; one OpenBLAS
  thread on a 2-vCPU Xeon VM) a subset costs ~70 µs with its share of
  the GEMM, ~82 µs when every batch scaled its own rows and ``dposv``
  factored a copy (medians of 6 alternating runs).  The buffer copy,
  ``dsyrk`` and ``dposv`` take ~50 µs of it; the gather, the GEMM and
  the loop share the rest.  One (p, p) matrix is alive at a time, and a
  failing ``dposv`` runs :class:`HessianSolver`'s ×10 damping escalation
  from the rebuilt, unfactored matrix.  The downdate needs √w, so a model
  whose factors carry a negative weight breaks the model contract and
  :meth:`ModelArtifacts.curvature_rows` raises.

* ``variant="series"`` — the first-order Neumann expansion of that solve,
  matching the structure of the paper's Eq. 10:

      Δθ ≈ (1/(n−m)) H⁻¹ g_S − (m/(n−m)²)(I − H⁻¹H_S) H⁻¹ g_S.

  Note on the transcription in the paper: Eq. 10 is stated in terms of an
  ``I^{(1)}`` whose sign/scale mixes the up-weighting and removal
  conventions.  The form above is the one consistent with ε = −1/n removal
  (it reduces to the FO direction as m → 1) and is validated against
  retraining ground truth in the test suite — the property Figure 3 checks.

  The series only applies subset Hessians to vectors, so with the rank-one
  factors ``H_S u_S = (1/|S|) Σ_{i∈S} w_i (φ_i·u_S) φ_i + ridge·u_S`` for
  ``u_S = H⁻¹ g_S``: a column-block fold over packed rows, a gather of
  each subset's rows for index arrays, and two multi-RHS solves against
  the cached factorization around it.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.influence.hessian import ReducedHessianSolver
from repro.mining.bitset import column_blocks, popcount, unpack_rows
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
        if self.variant == "exact":
            _ = self.artifacts.curvature_rows()
        return self

    def _param_changes_packed(self, packed: np.ndarray) -> np.ndarray:
        """Batched Δθ's of packed rows.

        Both variants take every g_S from one column-block fold.  The
        ``"series"`` variant folds once more for every ``H_S u_S`` (see the
        module docstring).  The ``"exact"`` variant solves a *different*
        reduced matrix ``n·H − m·H_S`` per subset, through the same kernel
        as every other exact query: it unpacks each row when the kernel
        reaches it, to gather that subset's curvature rows.
        """
        sizes = popcount(packed)
        grad_sums = self.artifacts.gradient_sums(packed)
        if self.variant == "exact":
            return self._exact_param_changes(packed, sizes, grad_sums)
        phi, weights, ridge = self.artifacts.hessian_factors()
        n, m, p = self.num_train, len(packed), self.model.num_params
        u = self.solver.solve_many(grad_sums)  # rows = H⁻¹ g_S
        # Σ_{i∈S} w_i (φ_i·u_S) φ_i, folded over column blocks of training rows.
        with trace.span("influence.gemm", m=m, n=n, p=p, kind="curvature") as s:
            s.add("gemm_flops", 4.0 * m * n * p)
            hs_u = np.zeros((m, p))
            for start, stop, block in column_blocks(packed, n):
                rows = phi[start:stop]
                projections = u @ rows.T
                projections *= weights[start:stop]
                block *= projections  # the next block refills it
                hs_u += block @ rows
        return self._series_deltas(u, hs_u, sizes, ridge)

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        """Index-streamed batches (and every scalar query): each subset's g_S
        and curvature rows are one gather of its index array, so nothing is
        unpacked to (m, n) masks."""
        sizes = np.array([s.size for s in idxs], np.intp)
        if self.variant == "exact":
            return self._exact_param_changes(idxs, sizes)
        grads = self.per_sample_grads
        phi, weights, ridge = self.artifacts.hessian_factors()
        u = self.solver.solve_many(np.stack([grads[idx].sum(axis=0) for idx in idxs]))
        hs_u = np.empty_like(u)
        for j, idx in enumerate(idxs):
            rows = phi.take(idx, axis=0)
            projections = rows @ u[j]
            projections *= weights.take(idx)
            hs_u[j] = projections @ rows
        return self._series_deltas(u, hs_u, sizes, ridge)

    def _series_deltas(
        self, u: np.ndarray, hs_u: np.ndarray, sizes: np.ndarray, ridge: float
    ) -> np.ndarray:
        """The series Δθ's from the rows ``u_S = H⁻¹ g_S`` and the sums
        ``Σ_{i∈S} w_i (φ_i·u_S) φ_i``; empty subsets get Δθ = 0."""
        sizes = sizes.astype(np.float64)
        hs_u = hs_u / np.where(sizes > 0, sizes, 1.0)[:, None] + ridge * u
        correction = u - self.solver.solve_many(hs_u)
        rest = self.num_train - sizes
        deltas = u / rest[:, None] - (sizes / rest**2)[:, None] * correction
        deltas[sizes == 0] = 0.0
        return deltas

    def _exact_param_changes(self, subsets, sizes: np.ndarray, grad_sums=None) -> np.ndarray:
        """Exact Δθ's of a validated batch in one kernel call (see the module
        docstring): packed rows with their folded ``grad_sums``, each row
        unpacked to a mask only when the kernel reaches its subset, or index
        arrays whose g_S are gather-sums.  ``sizes`` holds each |S|; empty
        subsets never reach the kernel."""
        n, p = self.num_train, self.model.num_params
        masked = grad_sums is not None
        deltas = np.zeros((len(sizes), p))
        solved = np.flatnonzero(sizes)
        if masked:
            rhs, rhs_flops = grad_sums[solved], 0.0
        else:
            grads = self.per_sample_grads
            rhs = np.array([grads.take(subsets[j], axis=0).sum(axis=0) for j in solved])
            rhs, rhs_flops = rhs.reshape(-1, p), 2.0 * p * float(sizes.sum())
        V, nonzero, ridge = self.artifacts.curvature_rows()
        # One subset's rows at a time: the kernel consumes these lazily.
        rows = (unpack_rows(subsets[j], n) if masked else subsets[j] for j in solved)
        if nonzero is not None:
            rows = (r & nonzero if masked else r[nonzero[r]] for r in rows)
        gather = V.compress if masked else V.take
        kernel = ReducedHessianSolver.with_damping(self.damping)
        deltas[solved] = kernel.solve_many(
            rhs,
            np.asfortranarray(n * self.hessian),
            ridge * sizes[solved],
            (gather(r, axis=0) for r in rows),
            rhs_flops=rhs_flops,
        )
        return deltas
