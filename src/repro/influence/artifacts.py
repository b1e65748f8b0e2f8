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

Each cache is a :class:`~repro.obs.lazy.Lazy` slot, and ``stats`` counts
its builds: ``per_sample_grad_builds``, ``hessian_builds``,
``hessian_factorizations`` (one per damping), ``rank_one_factor_builds``,
``curvature_row_builds`` and ``learning_rate_builds`` (η, which the §5
update search reads too).  Callers — the
audit benchmark in particular — can *assert* that a multi-query workload
paid for each exactly once.  Edits count under ``edits``; an edit
replaces each cached solver by one ``eigh`` of the patched Hessian, counted
under ``solver_updates``.  The extent cache counts
``param_change_cache_hits`` / ``param_change_cache_misses``.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.influence.hessian import HessianSolver
from repro.mining.bitset import fold_rows
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.lazy import Lazy
from repro.obs.metrics import MetricsRegistry, StatsView


class NegativeCurvatureError(ValueError):
    """A model's ``hessian_factors`` gave a training row a negative weight,
    which the curvature contract of
    :class:`~repro.models.base.TwiceDifferentiableClassifier` rules out."""


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
        # Monotone staleness token: bumped by apply_edit.  Estimators record
        # it at construction and refuse to score once it moves on.
        self.version = 0
        self.stats = StatsView(
            {
                "per_sample_grad_builds": 0,
                "hessian_builds": 0,
                "hessian_factorizations": 0,
                "rank_one_factor_builds": 0,
                "curvature_row_builds": 0,
                "learning_rate_builds": 0,
                "edits": 0,
                "solver_updates": 0,
                "param_change_cache_hits": 0,
                "param_change_cache_misses": 0,
            },
            registry=metrics,
            namespace="influence",
        )
        # One re-entrant lock covers every slot and the extent cache, so a
        # cold bundle can serve mixed concurrent queries: auto_learning_rate
        # re-enters hessian while held.
        self._lock = threading.RLock()
        stats, lock = self.stats, self._lock
        self._per_sample_grads = Lazy(
            "artifacts.per_sample_grads", stats, "per_sample_grad_builds", lock
        )
        self._hessian = Lazy("artifacts.hessian", stats, "hessian_builds", lock)
        self._solvers = Lazy("artifacts.solver", stats, "hessian_factorizations", lock)
        self._factors = Lazy("artifacts.hessian_factors", stats, "rank_one_factor_builds", lock)
        self._curvature = Lazy("artifacts.curvature_rows", stats, "curvature_row_builds", lock)
        self._learning_rate = Lazy("artifacts.learning_rate", stats, "learning_rate_builds", lock)
        # Extent cache: estimator spec → (packed-row bytes → row number, Δθ
        # rows).  Off by default so bare estimators keep per-instance
        # accounting; sessions switch it on via enable_extent_caching().
        self._extent_caching = False
        self._param_change_cache: dict[tuple, tuple[dict[bytes, int], np.ndarray]] = {}

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

    def check_fresh(self, version: int, reader: str) -> None:
        """Refuse a ``reader`` (an estimator, an update-search context, an
        explainer view) that recorded ``version`` before an :meth:`apply_edit`:
        its pre-edit state would silently answer for the wrong rows.  Readers
        call this before they touch a cache or a training row."""
        if version != self.version:
            raise RuntimeError(
                f"the shared ModelArtifacts were edited after this {reader} was built "
                f"(version {version} vs {self.version}); construct a new {reader} "
                "against the edited artifacts"
            )

    # ------------------------------------------------------------------
    @property
    def per_sample_grads(self) -> np.ndarray:
        """∇_θℓ(z_i, θ*) for all training rows, shape (n, p) — built once."""
        return self._per_sample_grads.get(
            lambda: self.model.per_sample_grads(self.X_train, self.y_train)
        )

    @property
    def hessian(self) -> np.ndarray:
        """The mean training Hessian H(θ*) — built once."""
        return self._hessian.get(lambda: self.model.hessian(self.X_train, self.y_train))

    def solver(self, damping: float = 0.0) -> HessianSolver:
        """The shared :class:`HessianSolver` for a damping value.

        One factorization serves every estimator requesting the same
        damping — estimators of different metrics, groups, and
        second-order variants all hit the same cached factor.
        """
        key = float(damping)
        return self._solvers.get(lambda: HessianSolver(self.hessian, damping=key), key)

    def hessian_factors(self) -> tuple[np.ndarray, np.ndarray, float]:
        """The model's rank-one Hessian factors ``(phi, weights, ridge)`` over
        the training rows — built once."""
        return self._factors.get(lambda: self.model.hessian_factors(self.X_train, self.y_train))

    def curvature_rows(self) -> tuple[np.ndarray, np.ndarray | None, float]:
        """``(V, nonzero, ridge)``: V = √w ⊙ Φ, the exact estimator's downdate
        rows for every training row, the mask of rows with w ≠ 0 (None when
        all are), and the factors' ridge.  A negative weight breaks the
        model contract (the downdate needs √w) and raises
        :class:`NegativeCurvatureError`."""
        return self._curvature.get(self._build_curvature_rows)

    def _build_curvature_rows(self):
        phi, weights, ridge = self.hessian_factors()
        if weights.size and weights.min() < 0.0:
            row = int(np.argmin(weights))
            raise NegativeCurvatureError(
                f"{type(self.model).__name__}.hessian_factors gave training row {row} "
                f"the weight {weights[row]:.6g}; curvature weights must be non-negative"
            )
        return phi * np.sqrt(weights)[:, None], (None if weights.all() else weights != 0.0), ridge

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

        The Hessian is patched through the subset identity
        ``n'·H' = n·H − k·H(removed) + k·H(added) + Δ(relabelled)`` (the L2
        terms cancel exactly); the gradient matrix and rank-one factors are
        patched row-wise; and every cached :class:`HessianSolver` is
        replaced by :meth:`HessianSolver.updated`, one ``eigh`` of the
        patched Hessian per cached solver, counted under
        ``solver_updates`` (``hessian_factorizations`` stays put).  The
        edited rows' own Hessian factors are computed only to patch a
        built factor cache, so a session that never built one still builds
        none.  Unbuilt caches stay lazy and will be built against the
        edited data on first use.

        θ is *not* refit — influence debugging asks "how would the bias
        move if we trained on the edited data", and every estimator measures
        that from the current optimum.  The bump of :attr:`version`
        invalidates every reader built against the pre-edit state
        (:meth:`check_fresh`).
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
            X_rel = self.X_train[relabel]
        keep = np.ones(n, dtype=bool)
        keep[remove] = False

        # -- mean Hessian: subset-Hessian identity, L2 terms cancel -------
        new_hessian = hessian = self._hessian.peek()  # None while unbuilt
        if hessian is not None:
            total = hessian * n
            if relabel.size:
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

        # -- solvers: one eigh of the patched Hessian each -----------------
        for key, old_solver in self._solvers.items():
            if new_hessian is None:
                raise RuntimeError("solver cache exists without a built hessian")
            self._solvers.set(old_solver.updated(new_hessian), key)
            self.stats.inc("solver_updates")

        # -- row-wise caches and the data itself ---------------------------
        grads = self._per_sample_grads.peek()
        if grads is not None:
            if relabel.size:
                grads = grads.copy()
                grads[relabel] = model.per_sample_grads(X_rel, y_patched[relabel])
            grads = grads[keep]
            if k_add:
                grads = np.vstack([grads, model.per_sample_grads(X_add, y_add)])
            self._per_sample_grads.set(grads)
        factors = self._factors.peek()
        if factors is not None:
            phi_new, w_new, ridge = factors
            if relabel.size:
                phi_rel, w_rel, _ = model.hessian_factors(X_rel, y_patched[relabel])
                phi_new, w_new = phi_new.copy(), w_new.copy()
                phi_new[relabel] = phi_rel
                w_new[relabel] = w_rel
            phi_new, w_new = phi_new[keep], w_new[keep]
            if k_add:
                phi_add, w_add, _ = model.hessian_factors(X_add, y_add)
                phi_new = np.vstack([phi_new, phi_add])
                w_new = np.concatenate([w_new, w_add])
            self._factors.set((phi_new, w_new, ridge))
        if new_hessian is not None:
            self._hessian.set(new_hessian)
        X_new = self.X_train[keep] if remove.size else self.X_train
        y_new = y_patched[keep] if remove.size else y_patched
        if k_add:
            X_new = np.vstack([X_new, X_add])
            y_new = np.concatenate([y_new, y_add])
        self.X_train = X_new
        self.y_train = y_new
        self.num_train = n_new
        # Extent keys refer to pre-edit row indices and the cached rows to
        # pre-edit gradients; the cache restarts empty.  V and η hold pre-edit
        # rows or Hessian; their rebuilds name the edit.
        self._param_change_cache.clear()
        counts = (("relabel", relabel.size), ("remove", remove.size), ("add", k_add))
        reason = "edit(" + ", ".join(f"{kind} {k}" for kind, k in counts if k) + ")"
        self._curvature.drop(reason)
        self._learning_rate.drop(reason)
        self.version += 1
        self.stats.inc("edits")

    def auto_learning_rate(self) -> float:
        """η = 1/λ_max(H), the shared one-step surrogate step size."""
        return self._learning_rate.get(self._build_learning_rate)

    def _build_learning_rate(self) -> float:
        from repro.influence.one_step_gd import auto_learning_rate

        return auto_learning_rate(self.hessian)

    # ------------------------------------------------------------------
    @property
    def extent_caching(self) -> bool:
        """Whether the extent → Δθ cache is live."""
        return self._extent_caching

    def enable_extent_caching(self) -> "ModelArtifacts":
        """Switch on the cross-query extent cache.

        Candidate masks are metric-independent, so within one audit the
        same extent is re-summed (``g_S = M @ grads``) and re-solved once
        per metric.  With caching on, each distinct extent pays its GEMM
        and solve exactly once and later metrics serve the cached Δθ rows.
        Off by default: a bare estimator built without a session keeps
        per-call accounting (its spans' FLOPs reflect executed work), and
        single-query workloads skip the keying overhead.
        :class:`repro.core.AuditSession` enables it at ``fit``.
        """
        self._extent_caching = True
        return self

    def gradient_sums(self, packed: np.ndarray) -> np.ndarray:
        """``g_S = M @ grads`` for packed row masks M: one row per mask.

        This is the product every gradient-sum-based estimator (first
        order, Neumann series, one-step GD, exact) opens a query with, run
        as one column-block fold (:func:`repro.mining.bitset.fold_rows`).
        Under a session, :meth:`cached_param_changes` hands it only novel
        extents, so the ``influence.gemm`` span's FLOPs count executed work.
        """
        grads = self.per_sample_grads
        m, (n, p) = len(packed), grads.shape
        with trace.span("influence.gemm", m=m, n=n, p=p) as s:
            s.add("gemm_flops", 2.0 * m * n * p)
            return fold_rows(packed, n, grads)

    def cached_param_changes(self, spec: tuple, packed: np.ndarray, compute) -> np.ndarray:
        """Per-row Δθ for packed removal extents, computing only novel extents.

        ``spec`` identifies the estimator family and its numeric knobs
        (variant, damping, learning rate) — everything Δθ depends on
        besides the extent.  ``compute`` is the estimator's uncached batch
        kernel; it runs on the first occurrence of each novel extent, in
        batch order, so one audit pays each distinct extent's products and
        solves exactly once regardless of how many metrics re-enumerate it.
        Each spec keeps a row store and a dict from a packed row's bytes to
        its row number (padding bits are zero, so equal extents have equal
        bytes): one probe per row, misses appended, and the result one
        fancy index of the store, a fresh array the caller may mutate.
        """
        m = len(packed)
        if not self._extent_caching or m == 0:
            return compute(packed)
        packed = np.ascontiguousarray(packed)
        keys = packed.view(np.dtype((np.void, packed.shape[1]))).ravel().tolist()
        with self._lock:
            index, store = self._param_change_cache.get(spec, ({}, None))
            size = len(index)
            rows = np.fromiter((index.setdefault(key, len(index)) for key in keys), np.intp, m)
            misses = len(index) - size
            self.stats.inc("param_change_cache_hits", m - misses)
            self.stats.inc("param_change_cache_misses", misses)
            trace.add("cache_hits", m - misses)
            trace.add("cache_misses", misses)
            if misses:
                # New row numbers count up from ``size`` in order of first use.
                numbers, first = np.unique(rows, return_index=True)
                try:
                    computed = compute(packed if misses == m else packed[first[numbers >= size]])
                except BaseException:
                    while len(index) > size:
                        index.popitem()
                    raise
                if store is None or len(index) > len(store):
                    # Doubled; np.empty leaves the spare rows' pages untouched, not resident.
                    grown = np.empty((2 * len(index), computed.shape[1]))
                    if size:
                        grown[:size] = store[:size]
                    store = grown
                store[size : len(index)] = computed
                self._param_change_cache[spec] = (index, store)
            return store[rows]
