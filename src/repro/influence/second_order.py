"""Second-order group influence (paper Eq. 10, after Basu et al. 2020).

First-order group influence assumes points are removed independently; for
coherent subsets — exactly what Gopher's patterns describe — the points are
correlated and the assumption breaks down.  The second-order correction
re-introduces the subset's own curvature H_S = (1/m) Σ_{z∈S} ∇²ℓ(z, θ*).

Two variants are provided:

* ``variant="exact"`` (default) — the Newton step on the reduced objective:

      Δθ = (n·H − m·H_S)⁻¹ g_S.

  This is the closed form the series below truncates; it is exact for
  quadratic losses.  Every subset needs its own reduced matrix, so a
  per-subset query builds and factorizes it directly.  A *batched* query
  sends all of its subsets through one stacked dense path instead.  With
  the model's rank-one factors ``m·H_S = Σ_{i∈S} w_i φ_i φ_iᵀ + m·ridge·I``,
  each reduced matrix is

      n·H − (V_S·w_S)ᵀ V_S − m·ridge·I,   V_S = [φ_i]_{i∈S, w_i≠0},

  built from the subset's own curvature rows.  Subsets are rank-sorted by
  their count of curvature rows and cut into groups whose widest rank is
  under twice the narrowest.  Each group gathers its rows into a (g, r, p)
  tensor padded to its own widest rank r, forms every reduced matrix with
  one batched matmul, and solves them all through one
  :class:`StackedHessianSolver`: one batched Cholesky, which is also the
  positive-definiteness test, then one batched solve.  Only matrices that
  fail the Cholesky run the ×10 damping escalation, one at a time.  A group's padded rows, reduced matrices and
  factors stay under ``_STACK_BYTES`` whatever n is: the group shrinks as
  its rank grows, and a rank too wide for even one subset is gathered in
  row slabs.  No (n, p²) outer-product table is ever built.  Models
  without rank-one factors, or with a negative weight (the Gram is built
  from √w-scaled rows), fall back to the per-subset loop
  (``exact_batch_stats`` counts every routing decision).

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
from repro.influence.hessian import HessianSolver, StackedHessianSolver
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.metrics import StatsView

# Byte budget for one stacked group's transients: the padded curvature rows
# plus each subset's reduced matrix and its Cholesky factor.  Fixed, so the
# exact batch path's scratch memory does not grow with the training-set
# size.
_STACK_BYTES = 1 << 24


class SecondOrderInfluence(InfluenceEstimator):
    """Eq. 10: group influence with the curvature correction.

    ``exact_batch_stats`` counts, cumulatively over all batched queries of
    the ``"exact"`` variant, how each non-empty subset was routed:
    ``"stacked"`` (solved by the batched Cholesky), ``"escalated"`` (its
    reduced matrix failed that Cholesky and went through the scalar damping
    escalation) and ``"fallback_factors"`` (the model exposes no usable
    rank-one Hessian factors, so the subset ran the per-subset
    :meth:`param_change`).
    """

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
        # Per-estimator registry: routing counts are asserted per instance
        # by the equivalence/fuzz suites, so the namespace is private, and
        # the lock inside StatsView.inc makes every bump exact under
        # concurrent batched queries.
        self.exact_batch_stats = StatsView(
            {"stacked": 0, "escalated": 0, "fallback_factors": 0},
            namespace="exact_batch",
        )

    def _extent_cache_spec(self) -> tuple:
        return ("second_order", self.variant, float(self.damping))

    def warm(self) -> "SecondOrderInfluence":
        super().warm()
        _ = self.artifacts.hessian_factors()
        return self

    def param_change(self, indices: np.ndarray) -> np.ndarray:
        # The whole per-subset preparation (validation, gradient sum, the
        # subset Hessian, the reduced matrix) is one leaf span so the
        # per-subset path's cost attribution lands on a measurable name.
        with trace.span("influence.subset_hessian") as prep_span:
            indices = self._subset_size_ok(indices)
            if indices.size == 0:
                return np.zeros(self.model.num_params)
            m, n = indices.size, self.num_train
            prep_span.set(m=int(m))
            g_s = self.per_sample_grads[indices].sum(axis=0)
            subset_hessian = self.model.hessian(
                self.X_train[indices], self.y_train[indices]
            )
            reduced = (
                n * self.hessian - m * subset_hessian
                if self.variant == "exact"
                else None
            )
        if reduced is not None:
            return HessianSolver(reduced, damping=self.damping).solve(g_s)
        u = self.solver.solve(g_s)
        correction = u - self.solver.solve(subset_hessian @ u)
        return u / (n - m) - (m / (n - m) ** 2) * correction

    def _param_change_from_masks(self, masks: np.ndarray) -> np.ndarray:
        """Batched Δθ's.

        The ``"series"`` variant only ever applies subset Hessians to
        vectors, so for models exposing rank-one Hessian factors the whole
        batch reduces to GEMMs against the cached factorization: one
        multi-RHS solve for ``u_S = H⁻¹ g_S``, three matrix products for
        every ``H_S u_S``, and one more multi-RHS solve for the correction.
        The ``"exact"`` variant solves a *different* reduced matrix
        ``n·H − m·H_S`` per subset, so its batch runs the stacked dense
        path (see the module docstring).  Models without factor structure
        fall back to the scalar loop for both variants.  Both entry
        representations — dense (m, n) masks and packed uint8 batches —
        funnel through this hook, so the lattice and the mining engine take
        the same fast path.
        """
        num_subsets = masks.shape[0]
        if num_subsets == 0:
            return np.zeros((0, self.model.num_params))
        if self.variant == "exact":
            factors = self._stacking_factors()
            if factors is None:
                self.exact_batch_stats.inc("fallback_factors", num_subsets)
                return super()._param_change_from_masks(masks)
            curved = factors[1] != 0.0
            flat = bool(curved.all())
            sizes = masks.sum(axis=1)
            ranks = sizes if flat else sizes - masks[:, ~curved].sum(axis=1)

            def rows_of(group: np.ndarray) -> np.ndarray:
                return np.nonzero(masks[group] if flat else masks[group] & curved)[1]

            grads = self.per_sample_grads

            def grads_of(group: np.ndarray) -> np.ndarray:
                return masks[group].astype(np.float64) @ grads

            return self._stacked_param_changes(sizes, ranks, rows_of, grads_of, factors)
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
        """Index-streamed exact batches ride the stacked path as well: each
        subset's curvature rows are its own index array, so nothing is
        unpacked to (m, n) masks."""
        if not idxs or self.variant != "exact":
            return super()._param_changes_indices(idxs)
        factors = self._stacking_factors()
        if factors is None:
            self.exact_batch_stats.inc("fallback_factors", len(idxs))
            return super()._param_changes_indices(idxs)
        curved = factors[1] != 0.0
        kept = [idx[curved[idx]] for idx in idxs]
        sizes = np.array([idx.size for idx in idxs])
        ranks = np.array([idx.size for idx in kept])

        grads = self.per_sample_grads

        def rows_of(group: np.ndarray) -> np.ndarray:
            return np.concatenate([kept[j] for j in group])

        def grads_of(group: np.ndarray) -> np.ndarray:
            return np.stack([grads[idxs[j]].sum(axis=0) for j in group])

        return self._stacked_param_changes(sizes, ranks, rows_of, grads_of, factors)

    def _stacking_factors(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        """The rank-one factors, when the stacked path can use them: its
        Gram of √w-scaled rows needs every weight w_i ≥ 0."""
        factors = self.artifacts.hessian_factors()
        return factors if factors is not None and factors[1].min() >= 0.0 else None

    def _stacked_param_changes(
        self,
        sizes: np.ndarray,
        ranks: np.ndarray,
        rows_of,
        grads_of,
        factors: tuple[np.ndarray, np.ndarray, float],
    ) -> np.ndarray:
        """Exact Δθ's through the stacked dense path (see the module docstring).

        ``sizes`` is |S| and ``ranks`` the count of curvature rows
        (w_i ≠ 0) per subset; ``rows_of(group)`` returns the curvature rows
        of a group of subsets, concatenated in group order, and
        ``grads_of(group)`` their gradient sums g_S.  Empty subsets are
        answered with zeros, as in :meth:`param_change`.
        """
        phi, weights, ridge = factors
        n, p = self.num_train, self.model.num_params
        deltas = np.zeros((len(sizes), p))
        order = np.flatnonzero(sizes)
        order = order[np.argsort(ranks[order], kind="stable")]
        sorted_ranks = ranks[order]
        base = n * self.hessian
        diagonal = np.arange(p)
        # Bytes per padded row (its values, index and scale), and per subset
        # for its reduced matrix, one matmul temporary and its Cholesky factor.
        per_row, per_subset = 8 * (p + 2), 24 * p * p
        stacked = escalated = 0
        with trace.span("influence.stacked", subsets=int(order.size), p=p) as span:
            lo = 0
            while lo < order.size:
                # The next group: ranks under twice the narrowest, as many
                # subsets as fit the budget when padded to their own widest.
                end = int(np.searchsorted(sorted_ranks, 2 * max(sorted_ranks[lo], 1)))
                cost = np.arange(1, end - lo + 1) * (per_subset + sorted_ranks[lo:end] * per_row)
                g = max(1, int(np.searchsorted(cost, _STACK_BYTES, side="right")))
                group = order[lo : lo + g]
                lo += g
                counts = ranks[group]
                widest = int(counts[-1])
                # Slot (k, s) holds subset k's s-th curvature row; padding
                # slots point at row 0 with a zero scale.
                filled = np.arange(widest) < counts[:, None]
                rows = rows_of(group)
                index = np.zeros((g, widest), dtype=np.intp)
                index[filled] = rows
                scale = np.zeros((g, widest))
                scale[filled] = np.sqrt(weights[rows])
                # (V_S·w_S)ᵀV_S as the Gram of √w-scaled rows; one slab
                # unless a single subset's rows overflow the budget.
                slab = max(1, min(widest, (_STACK_BYTES // g - per_subset) // per_row))
                grams = np.zeros((g, p, p)) if widest == 0 else None
                for s0 in range(0, widest, slab):
                    padded = phi[index[:, s0 : s0 + slab]]
                    padded *= scale[:, s0 : s0 + slab, None]
                    part = padded.transpose(0, 2, 1) @ padded
                    grams = part if grams is None else np.add(grams, part, out=grams)
                reduced = np.subtract(base, grams, out=grams)
                reduced[:, diagonal, diagonal] -= (sizes[group] * ridge)[:, None]
                solver = StackedHessianSolver.factorize(reduced, self.damping)
                deltas[group] = solver.solve_many(grads_of(group))
                span.add("gemm_flops", 2.0 * g * widest * p * p + 2.0 * sizes[group].sum() * p)
                span.add("solve_flops", g * (p**3 / 3.0 + 2.0 * p * p))
                escalated += int(solver.escalated.sum())
                stacked += g - int(solver.escalated.sum())
        self.exact_batch_stats.inc("stacked", stacked)
        self.exact_batch_stats.inc("escalated", escalated)
        return deltas
