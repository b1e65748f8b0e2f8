"""Metric-independent start-up state shared across influence estimators.

Every influence estimator's "start-up" cost (the fixed cost the paper's
Figure 5 measures) splits cleanly in two:

* **per-model** — the per-sample training gradient matrix, the training
  Hessian, its Cholesky factorization, the rank-one Hessian factors, and
  the one-step "auto" learning rate.  None of these depend on the fairness
  metric, the
  protected group, or the estimator's evaluation mode — only on the fitted
  model and the training matrix.
* **per-query** — ∇_θF of the metric surrogate, the original bias, and the
  (metric, group)-bound :class:`~repro.fairness.metrics.FairnessContext`.

:class:`ModelArtifacts` owns the per-model half.  An interactive audit
("every metric × every protected attribute × several estimator variants of
one trained model" — the workload :class:`repro.core.AuditSession` fans
out) builds one bundle and hands it to every estimator via
``make_estimator(..., artifacts=...)``; each estimator then only pays its
cheap per-query state.  Without an explicit bundle every estimator builds
a private one, so the single-estimator construction path is unchanged.

``stats`` counts the heavy builds (``per_sample_grad_builds``,
``hessian_builds``, ``hessian_factorizations``, ``rank_one_factor_builds``)
so callers — the audit benchmark in particular — can *assert* that a
multi-query workload paid for each exactly once.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.influence.hessian import HessianSolver
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView


class ModelArtifacts:
    """Shared caches bound to one fitted model and one training matrix.

    Parameters
    ----------
    model:
        A *fitted* classifier.  The bundle snapshots ``model.theta`` at
        construction and refuses to serve estimators if the parameters
        change afterwards — silently mixing caches from two different
        optima is the stale-reuse bug class sessions make likely.
    X_train / y_train:
        The encoded training data the model was fitted on.

    All caches are lazy: a first-order estimator never builds the rank-one
    factors, a retraining estimator never builds the Hessian.
    """

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        if model.theta is None:
            raise ValueError("model must be fitted before building influence artifacts")
        self.model = model
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train)
        self.theta = np.asarray(model.theta, dtype=np.float64).copy()
        self.num_train = len(self.X_train)
        self._per_sample_grads: np.ndarray | None = None
        self._hessian: np.ndarray | None = None
        self._solvers: dict[float, HessianSolver] = {}
        self._factors: tuple[np.ndarray, np.ndarray, float] | None | str = "unset"
        self._auto_learning_rate: float | None = None
        # Extent caches: packed-mask bytes → metric-independent per-row
        # results (g_S gradient sums; per-estimator-spec Δθ rows).  Off by
        # default so bare estimators keep per-instance accounting; sessions
        # switch them on via enable_extent_caching().
        self._extent_caching = False
        self._grad_sum_cache: dict[bytes, np.ndarray] = {}
        self._param_change_cache: dict[tuple, np.ndarray] = {}
        self._update_state: tuple[np.ndarray, float] | None = None
        # One re-entrant lock covers every lazy build and extent cache, so a
        # cold bundle can serve mixed concurrent queries: update_search_state
        # re-enters hessian/auto_learning_rate while held.
        self._lock = threading.RLock()
        # Monotone staleness token: bumped by apply_edit.  Estimators record
        # it at construction and refuse to score once it moves on.
        self.version = 0
        self.stats = StatsView(
            {
                "per_sample_grad_builds": 0,
                "hessian_builds": 0,
                "hessian_factorizations": 0,
                "rank_one_factor_builds": 0,
                "learning_rate_builds": 0,
                "edits": 0,
                "solver_updates": 0,
                "gradient_sum_cache_hits": 0,
                "gradient_sum_cache_misses": 0,
                "param_change_cache_hits": 0,
                "param_change_cache_misses": 0,
                "update_context_builds": 0,
            },
            registry=metrics,
            namespace="influence",
        )

    # ------------------------------------------------------------------
    def check_compatible(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
    ) -> None:
        """Raise unless (model, data, θ) still match what was cached.

        Estimators call this when handed a shared bundle.  The θ check is
        the important one: refitting the model invalidates every cache
        here, and the failure mode without the check is silently wrong
        influence scores.
        """
        if model is not self.model:
            raise ValueError(
                "artifacts were built for a different model instance; build a new "
                "ModelArtifacts (or a new AuditSession) per fitted model"
            )
        if self.model.theta is None or not np.array_equal(self.theta, self.model.theta):
            raise ValueError(
                "model parameters changed since the artifacts were built; the cached "
                "gradients and factorizations belong to the old optimum — rebuild the "
                "artifacts after refitting"
            )
        X = np.asarray(X_train)
        if X is not self.X_train and (
            X.shape != self.X_train.shape or not np.array_equal(X, self.X_train)
        ):
            raise ValueError(
                f"artifacts were built on a training matrix of shape "
                f"{self.X_train.shape}; got a different matrix of shape {X.shape}"
            )
        y = np.asarray(y_train)
        if y is not self.y_train and not np.array_equal(y, self.y_train):
            raise ValueError("artifacts were built on different training labels")

    # ------------------------------------------------------------------
    @property
    def per_sample_grads(self) -> np.ndarray:
        """∇_θℓ(z_i, θ*) for all training rows, shape (n, p) — built once."""
        if self._per_sample_grads is None:
            with self._lock:
                if self._per_sample_grads is None:
                    trace.add("cache_misses")
                    with trace.span("artifacts.per_sample_grads", n=self.num_train):
                        self._per_sample_grads = self.model.per_sample_grads(
                            self.X_train, self.y_train
                        )
                    self.stats.inc("per_sample_grad_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._per_sample_grads

    @property
    def hessian(self) -> np.ndarray:
        """The mean training Hessian H(θ*) — built once."""
        if self._hessian is None:
            with self._lock:
                if self._hessian is None:
                    trace.add("cache_misses")
                    with trace.span("artifacts.hessian", n=self.num_train):
                        self._hessian = self.model.hessian(self.X_train, self.y_train)
                    self.stats.inc("hessian_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._hessian

    def solver(self, damping: float = 0.0) -> HessianSolver:
        """The shared :class:`HessianSolver` for a damping value.

        One factorization serves every estimator requesting the same
        damping — estimators of different metrics, groups, and
        second-order variants all hit the same cached factor.
        """
        key = float(damping)
        if key not in self._solvers:
            with self._lock:
                if key not in self._solvers:
                    trace.add("cache_misses")
                    self._solvers[key] = HessianSolver(self.hessian, damping=key)
                    self.stats.inc("hessian_factorizations")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._solvers[key]

    def hessian_factors(self) -> tuple[np.ndarray, np.ndarray, float] | None:
        """The model's rank-one Hessian factors, or None if unavailable."""
        if self._factors == "unset":
            with self._lock:
                if self._factors == "unset":
                    trace.add("cache_misses")
                    try:
                        self._factors = self.model.hessian_factors(
                            self.X_train, self.y_train
                        )
                    except NotImplementedError:
                        self._factors = None
                    self.stats.inc("rank_one_factor_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._factors  # type: ignore[return-value]

    # ------------------------------------------------------------------
    def apply_edit(
        self,
        remove_indices=(),
        relabel_indices=(),
        relabel_labels=(),
        X_add: np.ndarray | None = None,
        y_add: np.ndarray | None = None,
    ) -> None:
        """Patch every built cache for a training-data edit, in place.

        The edit semantics mirror :class:`repro.datasets.DataEdit` after
        encoding: indices refer to the *current* training matrix, the
        application order is relabel → remove → add, removal preserves row
        order, and added rows are appended.  ``X_add`` must already be
        encoded with the same encoder as ``X_train``
        (:meth:`repro.core.AuditSession.apply_edit` does the translation).

        Nothing is rebuilt.  The Hessian is patched through the subset
        identity ``n'·H' = n·H − k·H(removed) + k·H(added) + Δ(relabelled)``
        (the L2 terms cancel exactly); the gradient matrix and rank-one
        factors are patched row-wise; and every cached
        :class:`HessianSolver` is advanced through
        :meth:`HessianSolver.updated` — a rank-k eigenbasis update when the
        model exposes Hessian factors, a dense congruence otherwise, never
        a Cholesky refactorization (``hessian_factorizations`` stays put;
        the new work lands under ``solver_updates``).  Unbuilt caches stay
        lazy and will be built against the edited data on first use.

        θ is *not* refit — influence debugging asks "how would the bias
        move if we trained on the edited data", and every estimator measures
        that from the current optimum.  The bump of :attr:`version`
        invalidates estimators constructed against the pre-edit state.
        """
        if self.model.theta is None or not np.array_equal(self.theta, self.model.theta):
            raise ValueError(
                "model parameters changed since the artifacts were built; rebuild "
                "the artifacts instead of editing them"
            )
        remove = np.asarray(remove_indices, dtype=np.int64).reshape(-1)
        relabel = np.asarray(relabel_indices, dtype=np.int64).reshape(-1)
        relabels = np.asarray(relabel_labels).reshape(-1)
        n = self.num_train
        for name, idx in (("remove_indices", remove), ("relabel_indices", relabel)):
            if idx.size and (idx.min() < 0 or idx.max() >= n):
                raise IndexError(f"{name} out of range for {n} training rows")
            if idx.size > 1 and np.unique(idx).size != idx.size:
                raise ValueError(f"{name} contains duplicate indices")
        if np.intersect1d(remove, relabel).size:
            raise ValueError("a row cannot be both removed and relabelled")
        if relabels.shape != relabel.shape:
            raise ValueError(
                f"relabel_labels has {relabels.size} entries for {relabel.size} rows"
            )
        if (X_add is None) != (y_add is None):
            raise ValueError("X_add and y_add must be given together")
        if X_add is not None:
            X_add = np.asarray(X_add, dtype=np.float64)
            y_add = np.asarray(y_add).reshape(-1)
            if X_add.ndim != 2 or X_add.shape[1] != self.X_train.shape[1]:
                raise ValueError(
                    f"X_add must have shape (k, {self.X_train.shape[1]}), "
                    f"got {X_add.shape}"
                )
            if len(y_add) != len(X_add):
                raise ValueError("X_add and y_add lengths differ")
        k_add = 0 if X_add is None else len(X_add)
        n_new = n - remove.size + k_add
        if n_new <= 0:
            raise ValueError("edit would leave the training set empty")
        if not (remove.size or relabel.size or k_add):
            raise ValueError("edit must remove, relabel, or add at least one row")
        model = self.model

        # Post-relabel label vector over the pre-edit rows.
        y_patched = self.y_train
        if relabel.size:
            y_patched = y_patched.copy()
            y_patched[relabel] = relabels
        keep = np.ones(n, dtype=bool)
        keep[remove] = False

        # -- mean Hessian: subset-Hessian identity, L2 terms cancel -------
        new_hessian: np.ndarray | None = None
        if self._hessian is not None:
            total = self._hessian * n
            if relabel.size:
                X_rel = self.X_train[relabel]
                total = total + relabel.size * (
                    model.hessian(X_rel, y_patched[relabel])
                    - model.hessian(X_rel, self.y_train[relabel])
                )
            if remove.size:
                total = total - remove.size * model.hessian(
                    self.X_train[remove], self.y_train[remove]
                )
            if k_add:
                total = total + k_add * model.hessian(X_add, y_add)
            new_hessian = total / n_new

        # -- fresh per-row state the patches below splice in --------------
        grads_rel = grads_add = None
        if self._per_sample_grads is not None:
            if relabel.size:
                grads_rel = model.per_sample_grads(
                    self.X_train[relabel], y_patched[relabel]
                )
            if k_add:
                grads_add = model.per_sample_grads(X_add, y_add)
        phi_rel = w_rel = phi_add = w_add = None
        update_vectors = update_weights = None
        factors = self._factors if isinstance(self._factors, tuple) else None
        if factors is not None:
            phi_old, w_old, l2_ridge = factors
            if relabel.size:
                phi_rel, w_rel, _ = model.hessian_factors(
                    self.X_train[relabel], y_patched[relabel]
                )
            if k_add:
                phi_add, w_add, _ = model.hessian_factors(X_add, y_add)
            # U rows / signed weights expressing Σ'wφφᵀ − Σwφφᵀ as U'diag(c)U.
            vec_parts, weight_parts = [], []
            if relabel.size:
                vec_parts += [phi_old[relabel], phi_rel]
                weight_parts += [-w_old[relabel], w_rel]
            if remove.size:
                vec_parts.append(phi_old[remove])
                weight_parts.append(-w_old[remove])
            if k_add:
                vec_parts.append(phi_add)
                weight_parts.append(w_add)
            if vec_parts:
                update_vectors = np.vstack(vec_parts)
                update_weights = np.concatenate(weight_parts) / n_new

        # -- solvers ----------------------------------------------------------
        scale = n / n_new
        for key, old_solver in list(self._solvers.items()):
            if new_hessian is None:
                raise RuntimeError("solver cache exists without a built hessian")
            if update_vectors is not None:
                shift = (old_solver.damping_used + l2_ridge) * (1.0 - scale)
                self._solvers[key] = old_solver.updated(
                    new_hessian,
                    update_vectors=update_vectors,
                    update_weights=update_weights,
                    scale=scale,
                    shift=shift,
                )
            else:
                self._solvers[key] = old_solver.updated(new_hessian)
            self.stats.inc("solver_updates")

        # -- row-wise caches and the data itself ---------------------------
        if self._per_sample_grads is not None:
            grads = self._per_sample_grads
            if relabel.size:
                grads = grads.copy()
                grads[relabel] = grads_rel
            grads = grads[keep]
            if k_add:
                grads = np.vstack([grads, grads_add])
            self._per_sample_grads = grads
        if factors is not None:
            phi_new, w_new = phi_old, w_old
            if relabel.size:
                phi_new, w_new = phi_new.copy(), w_new.copy()
                phi_new[relabel] = phi_rel
                w_new[relabel] = w_rel
            phi_new, w_new = phi_new[keep], w_new[keep]
            if k_add:
                phi_new = np.vstack([phi_new, phi_add])
                w_new = np.concatenate([w_new, w_add])
            self._factors = (phi_new, w_new, l2_ridge)
        if new_hessian is not None:
            self._hessian = new_hessian
        X_new = self.X_train[keep] if remove.size else self.X_train
        y_new = y_patched[keep] if remove.size else y_patched
        if k_add:
            X_new = np.vstack([X_new, X_add])
            y_new = np.concatenate([y_new, y_add])
        self.X_train = X_new
        self.y_train = y_new
        self.num_train = n_new
        self._auto_learning_rate = None
        # Extent keys refer to pre-edit row indices and the cached rows to
        # pre-edit gradients; both restart empty.  The update-search state
        # holds the pre-edit Hessian/η and is re-derived lazily.
        self._grad_sum_cache.clear()
        self._param_change_cache.clear()
        self._update_state = None
        self.version += 1
        self.stats.inc("edits")

    def auto_learning_rate(self) -> float:
        """η = 1/λ_max(H), the shared one-step surrogate step size."""
        if self._auto_learning_rate is None:
            with self._lock:
                if self._auto_learning_rate is None:
                    from repro.influence.one_step_gd import auto_learning_rate

                    trace.add("cache_misses")
                    self._auto_learning_rate = auto_learning_rate(self.hessian)
                    self.stats.inc("learning_rate_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._auto_learning_rate

    # ------------------------------------------------------------------
    @property
    def extent_caching(self) -> bool:
        """Whether the extent → gradient-sum / Δθ caches are live."""
        return self._extent_caching

    def enable_extent_caching(self) -> "ModelArtifacts":
        """Switch on the cross-query extent caches.

        Candidate masks are metric-independent, so within one audit the
        same extent is re-summed (``g_S = M @ grads``) and re-solved once
        per metric.  With caching on, each distinct extent pays its GEMM
        and solve exactly once and later metrics serve the cached rows.
        Off by default: a bare estimator built without a session keeps
        per-call accounting (its spans' FLOPs reflect executed work), and
        single-query workloads skip the keying overhead.
        :class:`repro.core.AuditSession` enables it at ``fit``.
        """
        self._extent_caching = True
        return self

    def _extent_keys(self, masks: np.ndarray) -> list[bytes]:
        """Packed-row bytes per mask row — the extent identity used as key.

        Matches the miner's packed layout (``np.packbits`` along rows with
        zero padding), so dense lattice batches and packed mining chunks
        of the same extent key identically.
        """
        packed = np.packbits(np.asarray(masks, dtype=bool), axis=1)
        return [row.tobytes() for row in packed]

    def gradient_sums(self, masks: np.ndarray) -> np.ndarray:
        """``g_S = M @ grads`` rows, served from the extent cache when on.

        This is the one GEMM every gradient-sum-based estimator (first
        order, Neumann series, one-step GD) opens a query with.  The GEMM
        span and its FLOPs are recorded only for rows actually computed —
        a cache hit must not re-attribute work to the query's CostReport.
        """
        mask_f = np.asarray(masks).astype(np.float64)
        grads = self.per_sample_grads
        m, n = mask_f.shape
        p = grads.shape[1]
        if not self._extent_caching:
            with trace.span("influence.gemm", m=m, n=n, p=p) as s:
                s.add("gemm_flops", 2.0 * m * n * p)
                return mask_f @ grads
        keys = self._extent_keys(masks)
        with self._lock:
            cache = self._grad_sum_cache
            compute_rows: list[int] = []
            novel: set[bytes] = set()
            for i, key in enumerate(keys):
                if key not in cache and key not in novel:
                    novel.add(key)
                    compute_rows.append(i)
            hits = m - len(compute_rows)
            self.stats.inc("gradient_sum_cache_hits", hits)
            self.stats.inc("gradient_sum_cache_misses", len(compute_rows))
            trace.add("cache_hits", hits)
            trace.add("cache_misses", len(compute_rows))
            if compute_rows:
                block = mask_f if len(compute_rows) == m else mask_f[np.asarray(compute_rows)]
                k = block.shape[0]
                with trace.span("influence.gemm", m=k, n=n, p=p) as s:
                    s.add("gemm_flops", 2.0 * k * n * p)
                    computed = block @ grads
                for j, i in enumerate(compute_rows):
                    cache[keys[i]] = computed[j].copy()
                if hits == 0 and len(compute_rows) == m:
                    return computed
            out = np.empty((m, p), dtype=np.float64)
            for i, key in enumerate(keys):
                out[i] = cache[key]
            return out

    def cached_param_changes(self, spec: tuple, masks: np.ndarray, compute) -> np.ndarray:
        """Per-row Δθ for removal extents, computing only novel extents.

        ``spec`` identifies the estimator family and its numeric knobs
        (variant, damping, learning rate) — everything Δθ depends on
        besides the extent.  ``compute`` is the estimator's uncached batch
        kernel; it runs only on the first occurrence of each extent, so one
        audit pays each distinct extent's GEMMs and solves exactly once
        regardless of how many metrics re-enumerate it.  Returned rows are
        freshly assembled (cached rows are private copies), so callers may
        mutate the result.
        """
        m = np.asarray(masks).shape[0]
        if not self._extent_caching or m == 0:
            return compute(masks)
        keys = [(spec, key) for key in self._extent_keys(masks)]
        with self._lock:
            cache = self._param_change_cache
            compute_rows: list[int] = []
            novel: set[tuple] = set()
            for i, key in enumerate(keys):
                if key not in cache and key not in novel:
                    novel.add(key)
                    compute_rows.append(i)
            hits = m - len(compute_rows)
            self.stats.inc("param_change_cache_hits", hits)
            self.stats.inc("param_change_cache_misses", len(compute_rows))
            trace.add("cache_hits", hits)
            trace.add("cache_misses", len(compute_rows))
            if len(compute_rows) == m:
                computed = compute(masks)
                for j, i in enumerate(compute_rows):
                    cache[keys[i]] = computed[j].copy()
                return computed
            if compute_rows:
                rows = np.asarray(compute_rows)
                computed = compute(np.asarray(masks)[rows])
                for j, i in enumerate(compute_rows):
                    cache[keys[i]] = computed[j].copy()
            first = cache[keys[0]]
            out = np.empty((m, first.shape[0]), dtype=np.float64)
            for i, key in enumerate(keys):
                out[i] = cache[key]
            return out

    def update_search_state(self) -> tuple[np.ndarray, float]:
        """The metric-independent half of the §5 update-search context.

        ``(hessian, learning_rate)`` — with the per-sample training
        gradients reachable via :attr:`per_sample_grads` — is everything
        :class:`repro.updates.projected_gd.UpdateSearchContext` needs that
        does not depend on the metric; only ∇F and the original bias stay
        per-view.  Built once per bundle under the ``update.context`` span
        so a profiled audit shows exactly one build however many explainer
        views call ``explain_updates``.
        """
        if self._update_state is None:
            with self._lock:
                if self._update_state is None:
                    trace.add("cache_misses")
                    with trace.span("update.context", n=self.num_train):
                        self._update_state = (self.hessian, self.auto_learning_rate())
                    self.stats.inc("update_context_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._update_state

    # ------------------------------------------------------------------
    def warm(self, damping: float = 0.0, learning_rate: bool = False) -> "ModelArtifacts":
        """Eagerly build every cache a read-only serving path would touch.

        After ``warm()`` the query methods (``solver`` for the warmed
        damping, ``per_sample_grads``, ``hessian_factors``, …) are pure
        reads: the frozen/concurrent read path never triggers a lazy build.
        ``learning_rate`` additionally builds the shared one-step η.
        Idempotent — every build is counted by its own stats entry exactly
        once.
        """
        _ = self.per_sample_grads
        _ = self.hessian
        _ = self.solver(damping)
        _ = self.hessian_factors()
        if learning_rate:
            _ = self.auto_learning_rate()
        return self
