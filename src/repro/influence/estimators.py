"""The estimator interface and shared per-model caches.

Every estimator answers the same questions about removing a training subset
S (given as row indices or a boolean row mask over the training matrix):

* ``param_change(S)``  — estimated Δθ = θ_{D∖S} − θ*;
* ``bias_change(S)``   — estimated ΔF = F(θ_{D∖S}) − F(θ*) on the test set;

plus ``responsibility(S)`` implementing Definition 3.2, and a *batched*
form of each — ``param_change_batch`` / ``bias_change_batch`` /
``responsibility_batch`` — that evaluates m subsets per call.

Cost model
----------
Construction performs the paper's "start-up" pre-computation once: the
per-sample gradient matrix (n, p), the Hessian and its Cholesky
factorization, and ∇_θF.  That is the fixed cost Figure 5 measures.  The
metric-independent part of it — everything except ∇_θF and the original
bias — lives in a :class:`repro.influence.artifacts.ModelArtifacts`
bundle; by default each estimator builds a private bundle, and passing a
shared one (``make_estimator(..., artifacts=...)``) lets estimators of
*different* metrics, protected groups, and second-order variants reuse
one gradient matrix, one Hessian factorization, and one set of rank-one
curvature factors — the per-model vs per-query split
:class:`repro.core.AuditSession` amortizes across a whole audit.  After
start-up the two query paths differ:

* **per-subset** — each call pays one gather-and-sum over the subset rows
  plus one triangular solve; issuing thousands of such calls from Python
  (one per lattice candidate) is dominated by interpreter and dispatch
  overhead, not floating-point work.
* **per-batch** — a batch of m subsets is one (m, n) mask matrix.  Subset
  gradient sums for the whole batch are a single ``M @ per_sample_grads``
  GEMM, the Δθ's come from one multi-RHS solve against the cached
  factorization, and all three evaluation modes score the m perturbed θ's
  in one vectorized pass.  Per-batch cost is therefore one BLAS level-3
  call amortized over m subsets — the amortized batch influence queries the
  lattice search (``repro.patterns.lattice``) is built on.  The exact
  second-order variant is the one closed form whose per-subset matrix
  differs across the batch (``n·H − m·H_S``), so its scalar and batch
  queries share one per-subset kernel: one O(r·p²) ``dsyrk`` downdate by
  the subset's r curvature rows, one O(p³/3) ``dpotrf`` and one O(p²)
  ``dpotrs``.  Only one (p, p) matrix is alive at a time, and a matrix
  that fails ``dpotrf`` takes the damping escalation of
  :class:`repro.influence.hessian.HessianSolver` (see
  ``repro.influence.second_order``).

Batches are given either as an (m, n) boolean mask matrix (rows = subsets)
or as a sequence of per-subset index arrays; results are aligned with the
batch order.  The base-class batch methods fall back to looping over the
scalar queries so estimators without a closed form (retraining) keep the
same interface; the closed-form estimators override them with the GEMM
formulation, and the equivalence test suite pins batch == loop to 1e-10.

Packed batches
--------------
The batch entry points additionally accept *packed* subsets: an
(m, ceil(n/8)) ``np.uint8`` matrix of bit-packed row masks together with
the keyword ``num_rows=n``.  Packed rows are unpacked ``_PACKED_CHUNK``
subsets at a time and fed through the boolean-mask machinery chunk by
chunk, so peak boolean-mask memory is O(_PACKED_CHUNK · n) regardless of
m — this is the streaming path the closed-pattern mining engine
(``repro.mining``) relies on to never materialize a full (m, n) bool
matrix.  Handing the miner's buffers over as giant unpacked bool matrices
is deprecated in favour of this path; results are bit-identical because
each chunk runs the exact same mask pipeline.

With ``num_rows`` the batch entry points also accept an *index-streamed*
batch: a plain sequence of per-subset sorted index arrays (the miner's
compressed sparse tidlists).  Each subset then costs O(|S|) to gather —
never O(n) to unpack — so a batch of small extents over a 10M-row table
touches only the rows it names.  The gradient-sum estimators override the
``_param_changes_indices`` hook with a stacked gather-sum; the base class
loops the scalar closed form.  The index path bypasses the shared
per-extent Δθ cache (its keys are packed-byte extents; packing each
subset just to key a cache would reintroduce the O(n/8) per-subset cost
this path exists to avoid) — deduplication is the caller's job, which the
mining cache already performs by extent digest.

Evaluation modes
----------------
How Δθ is turned into ΔF is itself a modelling choice, so each estimator
takes an ``evaluation`` argument:

* ``"linear"`` — ΔF = ∇_θF(θ*)ᵀ Δθ, the chain rule of paper Eq. 11 using the
  smooth surrogate gradient.
* ``"smooth"`` — ΔF = F̃(θ* + Δθ) − F̃(θ*) with the smooth surrogate F̃;
  captures the metric's curvature without indicator noise.
* ``"hard"``   — ΔF = F(θ* + Δθ) − F(θ*) with the thresholded metric, the
  quantity retraining ground truth reports.

Batched evaluation is ``deltas @ ∇F`` for ``"linear"`` and a single
``value_batch`` / ``surrogate_batch`` metric call over the stacked
``θ* + Δθ`` matrix for the other two.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace

_EVALUATIONS = ("linear", "smooth", "hard")

# Packed batches unpack at most this many boolean masks at a time, bounding
# peak mask memory at _PACKED_CHUNK · n bytes however large the batch is.
_PACKED_CHUNK = 256


class InfluenceEstimator(ABC):
    """Base class binding a fitted model, training data, and a bias metric."""

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        evaluation: str = "linear",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if model.theta is None:
            raise ValueError("model must be fitted before building an influence estimator")
        if evaluation not in _EVALUATIONS:
            raise ValueError(f"evaluation must be one of {_EVALUATIONS}, got {evaluation!r}")
        if artifacts is None:
            artifacts = ModelArtifacts(model, X_train, y_train)
        else:
            artifacts.check_compatible(model, X_train, y_train)
        self.artifacts = artifacts
        self.model = model
        self.X_train = artifacts.X_train
        self.y_train = artifacts.y_train
        self.metric = metric
        self.test_ctx = test_ctx
        self.evaluation = evaluation
        self.theta = artifacts.theta
        self.num_train = artifacts.num_train
        self._artifacts_version = artifacts.version
        self.original_bias = metric.value(model, test_ctx)
        self.original_surrogate = metric.surrogate(model, test_ctx)
        self._grad_f: np.ndarray | None = None

    # -- cached heavy pieces -------------------------------------------
    @property
    def grad_f(self) -> np.ndarray:
        """∇_θF(θ*) of the smooth surrogate (cached)."""
        if self._grad_f is None:
            trace.add("cache_misses")
            with trace.span("influence.grad_f", metric=self.metric.name):
                self._grad_f = self.metric.grad_theta(self.model, self.test_ctx)
        else:
            trace.add("cache_hits")
        return self._grad_f

    def warm(self) -> "InfluenceEstimator":
        """Eagerly build every cache the query methods would build lazily.

        After ``warm()`` the batch query surface is a pure read of this
        estimator's state: no ``self`` attribute is assigned on any
        subsequent query, so one estimator instance can serve concurrent
        readers (and frozen-array sanitizer runs) without a lazy build
        racing mid-query.  Subclasses extend this with their own memos.
        Idempotent and cheap to re-call.
        """
        _ = self.grad_f
        _ = self.per_sample_grads
        return self

    @property
    def per_sample_grads(self) -> np.ndarray:
        """∇_θℓ(z_i, θ*) for all training rows, shape (n, p) (cached).

        Served from the (possibly shared) :class:`ModelArtifacts` bundle,
        so estimators riding one bundle build the matrix once between them.
        """
        return self.artifacts.per_sample_grads

    def subset_grad_sum(self, indices: np.ndarray) -> np.ndarray:
        """g_S = Σ_{i∈S} ∇ℓ(z_i, θ*)."""
        indices = self._check_indices(indices)
        return self.per_sample_grads[indices].sum(axis=0)

    # -- the estimator contract -----------------------------------------
    @abstractmethod
    def param_change(self, indices: np.ndarray) -> np.ndarray:
        """Estimated Δθ from removing the rows at ``indices``."""

    def bias_change(self, indices: np.ndarray) -> float:
        """Estimated ΔF = F(after removal) − F(before)."""
        delta = self.param_change(indices)
        if self.evaluation == "linear":
            return float(self.grad_f @ delta)
        theta_new = self.theta + delta
        if self.evaluation == "smooth":
            after = self.metric.surrogate(self.model, self.test_ctx, theta_new)
            return float(after - self.original_surrogate)
        after = self.metric.value(self.model, self.test_ctx, theta_new)
        return float(after - self.original_bias)

    def responsibility(self, indices: np.ndarray) -> float:
        """Causal responsibility R_F(S) of Definition 3.2 (estimated).

        The denominator matches the evaluation mode, so responsibility is
        the *relative* bias reduction under the same measuring stick.
        """
        baseline = (
            self.original_surrogate if self.evaluation == "smooth" else self.original_bias
        )
        if baseline == 0.0:
            raise ZeroDivisionError("original bias is zero; responsibility is undefined")
        return -self.bias_change(indices) / baseline

    # -- the batched estimator contract -----------------------------------
    def param_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Estimated Δθ for every subset in the batch — shape (m, p).

        ``subsets`` is an (m, n) boolean mask matrix, a sequence of index
        arrays, or — with ``num_rows`` — either an (m, ceil(n/8)) uint8
        matrix of bit-packed masks (unpacked chunk by chunk) or an
        index-streamed sequence of per-subset index arrays (gathered, never
        unpacked).
        """
        packed = self._check_packed(subsets, num_rows)
        if packed is not None:
            chunks = [
                self._param_changes(self._check_batch(masks))
                for masks in self._iter_packed_chunks(packed)
            ]
            if not chunks:
                return np.zeros((0, self.model.num_params))
            return np.concatenate(chunks, axis=0)
        if num_rows is not None:
            return self._param_changes_indices(self._check_index_batch(subsets))
        return self._param_changes(self._check_batch(subsets))

    def _extent_cache_spec(self) -> tuple | None:
        """Key identifying everything Δθ depends on besides the extent.

        Closed-form estimators return ``(family, *numeric knobs)`` so their
        per-row Δθ's can be cached on the shared artifacts by extent and
        reused across the metrics of one audit.  ``None`` (the base —
        retraining has no closed form worth caching) opts out.
        """
        return None

    def _param_changes(self, masks: np.ndarray) -> np.ndarray:
        """Δθ's for a validated mask batch, via the shared extent cache.

        When the artifacts bundle has extent caching enabled (audit
        sessions turn it on) and the estimator declares a cache spec, rows
        are served per-extent from the bundle and
        :meth:`_param_change_from_masks` runs only on novel extents; the
        bare-estimator path is a plain passthrough.
        """
        spec = self._extent_cache_spec()
        if spec is None or not self.artifacts.extent_caching:
            return self._param_change_from_masks(masks)
        return self.artifacts.cached_param_changes(
            spec, masks, self._param_change_from_masks
        )

    def _param_change_from_masks(self, masks: np.ndarray) -> np.ndarray:
        """Δθ's for a pre-validated (m, n) mask matrix.

        This base implementation loops over :meth:`param_change` (correct
        for any estimator, including retraining); closed-form estimators
        override it with a single GEMM + multi-RHS solve.  Overriding this
        hook rather than the public method keeps batch validation in one
        place, paid once per query.
        """
        if masks.shape[0] == 0:
            return np.zeros((0, self.model.num_params))
        return np.stack([self.param_change(np.flatnonzero(row)) for row in masks])

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        """Δθ's for a validated index-streamed batch — no (m, n) masks.

        The base implementation loops the scalar closed form (correct for
        any estimator, including retraining); gradient-sum estimators
        override it with a stacked gather-sum so a batch of small subsets
        costs O(Σ|S|·p), independent of the training-set size.
        """
        if not idxs:
            return np.zeros((0, self.model.num_params))
        return np.stack([self.param_change(idx) for idx in idxs])

    def bias_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Estimated ΔF for every subset in the batch — shape (m,).

        The Δθ's come from the :meth:`param_change` batch hook; the
        evaluation mode is applied to all m perturbed parameter vectors in
        one vectorized pass (see the module docstring).  Packed uint8
        batches (with ``num_rows``) stream through in bounded-memory
        chunks; index-streamed batches (sequences of index arrays with
        ``num_rows``) gather only the rows they name.
        """
        packed = self._check_packed(subsets, num_rows)
        if packed is not None:
            with trace.span(
                "influence.batch_packed",
                estimator=type(self).__name__,
                m=int(packed.shape[0]),
            ):
                return self._packed_bias_change(packed)
        if num_rows is not None:
            return self._indices_bias_change(self._check_index_batch(subsets))
        masks = self._check_batch(subsets)
        if masks.shape[0] == 0:
            return np.zeros(0)
        with trace.span(
            "influence.batch",
            estimator=type(self).__name__,
            m=int(masks.shape[0]),
            n=self.num_train,
        ) as s:
            s.add("evaluations", int(masks.shape[0]))
            deltas = self._param_changes(masks)
            return self._apply_evaluation(deltas)

    def _apply_evaluation(self, deltas: np.ndarray) -> np.ndarray:
        """Fold an (m, p) Δθ matrix into (m,) ΔF's under the evaluation mode."""
        if self.evaluation == "linear":
            return deltas @ self.grad_f
        thetas = self.theta[None, :] + deltas
        with trace.span("influence.evaluate", mode=self.evaluation, m=int(deltas.shape[0])):
            if self.evaluation == "smooth":
                after = self.metric.surrogate_batch(self.model, self.test_ctx, thetas)
                return after - self.original_surrogate
            after = self.metric.value_batch(self.model, self.test_ctx, thetas)
            return after - self.original_bias

    def _indices_bias_change(self, idxs: list[np.ndarray]) -> np.ndarray:
        """ΔF over a validated index-streamed batch, shape (m,)."""
        if not idxs:
            return np.zeros(0)
        with trace.span(
            "influence.batch_indices",
            estimator=type(self).__name__,
            m=len(idxs),
            n=self.num_train,
        ) as s:
            s.add("evaluations", len(idxs))
            return self._apply_evaluation(self._param_changes_indices(idxs))

    def responsibility_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Causal responsibility R_F(S) for every subset — shape (m,)."""
        baseline = (
            self.original_surrogate if self.evaluation == "smooth" else self.original_bias
        )
        if baseline == 0.0:
            raise ZeroDivisionError("original bias is zero; responsibility is undefined")
        return -self.bias_change_batch(subsets, num_rows=num_rows) / baseline

    # -- helpers ----------------------------------------------------------
    def _check_fresh(self) -> None:
        """Raise if the shared artifacts were edited after this estimator.

        ``ModelArtifacts.apply_edit`` bumps the bundle's version; an
        estimator built before the edit still holds pre-edit references
        (training matrix shape, cached solvers, the original bias of the
        old data) and would silently score subsets of the wrong dataset.
        Query entry points call this before touching any cache.
        """
        if self._artifacts_version != self.artifacts.version:
            raise RuntimeError(
                "the shared ModelArtifacts were edited after this estimator was "
                "built (version "
                f"{self._artifacts_version} vs {self.artifacts.version}); "
                "construct a new estimator against the edited artifacts"
            )

    def _check_packed(self, subsets, num_rows: int | None) -> np.ndarray | None:
        """Validate a packed uint8 batch; None when ``subsets`` is not one.

        ``num_rows`` is the contract marker for the streamed representations
        — without it a 2-D uint8 array is rejected by :meth:`_check_batch`
        (reading 0/1 bytes as bit-packs would silently score the wrong
        subsets), and with it the batch must be either a packed matrix over
        the training rows (validated and returned here) or an
        index-streamed sequence of per-subset index arrays (None is
        returned and the callers dispatch to the index hooks).
        """
        self._check_fresh()
        if num_rows is None:
            return None
        if num_rows != self.num_train:
            raise ValueError(
                f"packed batches cover {num_rows} rows, expected {self.num_train}"
            )
        if self._is_index_batch(subsets):
            return None
        packed = np.asarray(subsets)
        if packed.ndim != 2 or packed.dtype != np.uint8:
            raise ValueError(
                "num_rows implies a packed batch: an (m, ceil(n/8)) uint8 matrix "
                f"of bit-packed masks, got {packed.dtype} array of shape {packed.shape}"
            )
        width = (num_rows + 7) // 8  # np.packbits layout, as in repro.mining.bitset
        if packed.shape[1] != width:
            raise ValueError(
                f"packed mask matrix has {packed.shape[1]} byte columns, expected "
                f"{width} for {num_rows} rows"
            )
        return packed

    @staticmethod
    def _is_index_batch(subsets) -> bool:
        """True for an index-streamed batch: a sequence of 1-D index arrays.

        Disambiguated from packed batches by element dtype — packed rows
        are uint8, index arrays any other integer dtype (the miner emits
        int32/int64 per :func:`repro.mining.bitset.sparse_index_dtype`).
        An empty sequence is not claimed, so it keeps the historical
        packed-batch error rather than silently scoring nothing.
        """
        if isinstance(subsets, np.ndarray):
            return subsets.ndim == 1 and subsets.dtype == object and subsets.size > 0
        if not isinstance(subsets, (list, tuple)) or not subsets:
            return False
        for subset in subsets:
            arr = np.asarray(subset)
            if arr.ndim != 1 or arr.dtype.kind not in "iu" or arr.dtype == np.uint8:
                return False
        return True

    def _check_index_batch(self, subsets) -> list[np.ndarray]:
        """Validate an index-streamed batch subset by subset.

        Each subset gets the full scalar-path checks (range, duplicates,
        the entire-training-set guard) without ever scattering into an
        (m, n) mask matrix.
        """
        return [self._subset_size_ok(subset) for subset in subsets]

    def _iter_packed_chunks(self, packed: np.ndarray):
        """Unpack a packed batch ``_PACKED_CHUNK`` subsets at a time."""
        for start in range(0, packed.shape[0], _PACKED_CHUNK):
            chunk = packed[start : start + _PACKED_CHUNK]
            yield np.unpackbits(chunk, axis=1, count=self.num_train).astype(bool)

    def _packed_bias_change(self, packed: np.ndarray) -> np.ndarray:
        """Chunked ΔF over a packed batch via the public boolean-mask path,
        so subclass overrides (e.g. first-order linear) apply per chunk."""
        chunks = [self.bias_change_batch(masks) for masks in self._iter_packed_chunks(packed)]
        return np.concatenate(chunks) if chunks else np.zeros(0)

    def _check_batch(self, subsets) -> np.ndarray:
        """Normalize a batch to an (m, n) boolean mask matrix.

        Accepts either the mask matrix itself or any sequence of per-subset
        index arrays / boolean masks (everything :meth:`_check_indices`
        accepts).  A 2-D *non-boolean* array is rejected outright: silently
        reading a 0/1 integer matrix as per-row index lists would return
        influence for the wrong subsets.  Mirrors the scalar guard against
        removing the entire training set, row by row.
        """
        self._check_fresh()
        if isinstance(subsets, np.ndarray) and subsets.ndim == 1 and subsets.dtype != object:
            # A bare index array iterates element-wise into m *singleton*
            # subsets — almost certainly not what a caller migrating from
            # the scalar API meant.  (Object arrays hold per-subset index
            # arrays and iterate correctly.)
            raise ValueError(
                "a batch is a sequence of subsets; wrap a single subset's index "
                "array in a list (e.g. bias_change_batch([indices]))"
            )
        if isinstance(subsets, np.ndarray) and subsets.ndim == 2:
            if subsets.dtype != bool:
                raise ValueError(
                    "2-D subset batches must be boolean mask matrices; pass index "
                    "arrays as a sequence (e.g. a list of 1-D arrays) instead"
                )
            if subsets.shape[1] != self.num_train:
                raise ValueError(
                    f"mask matrix has {subsets.shape[1]} columns, expected {self.num_train}"
                )
            masks = subsets
        else:
            rows = []
            for subset in subsets:
                if np.asarray(subset).ndim == 0:
                    # A flat sequence of ints would be split into singleton
                    # subsets — same hazard as the bare-array case above.
                    raise ValueError(
                        "a batch is a sequence of subsets; wrap a single subset's "
                        "index array in a list (e.g. bias_change_batch([indices]))"
                    )
                rows.append(self._check_indices(subset))
            masks = np.zeros((len(rows), self.num_train), dtype=bool)
            for j, idx in enumerate(rows):
                masks[j, idx] = True
        if masks.shape[0] and bool(masks.all(axis=1).any()):
            raise ValueError("cannot remove the entire training set")
        return masks

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        self._check_fresh()
        indices = np.asarray(indices)
        if indices.dtype == bool:
            if indices.shape != (self.num_train,):
                raise ValueError(
                    f"boolean mask length {indices.shape} != ({self.num_train},)"
                )
            indices = np.flatnonzero(indices)
        indices = indices.astype(np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.num_train):
            raise IndexError("subset indices out of range of the training data")
        if indices.size > 1:
            # A subset is a set: a duplicated index would double-count its
            # gradient in the scalar sum but collapse to one row in the
            # batched mask representation, silently breaking batch == loop.
            # Strictly increasing arrays (the miner's sparse tidlists) are
            # duplicate-free by construction — one diff pass instead of a
            # sort per subset.
            if not bool((np.diff(indices) > 0).all()):
                if np.unique(indices).size != indices.size:
                    raise ValueError("subset indices contain duplicates")
        return indices

    def _subset_size_ok(self, indices: np.ndarray) -> np.ndarray:
        indices = self._check_indices(indices)
        if indices.size >= self.num_train:
            raise ValueError("cannot remove the entire training set")
        return indices


def make_estimator(
    name: str,
    model: TwiceDifferentiableClassifier,
    X_train: np.ndarray,
    y_train: np.ndarray,
    metric: FairnessMetric,
    test_ctx: FairnessContext,
    **kwargs: object,
) -> InfluenceEstimator:
    """Factory over the four estimator families.

    ``name`` is one of ``"first_order"``, ``"second_order"``,
    ``"one_step_gd"``, ``"retrain"``; extra keyword arguments are forwarded
    to the estimator constructor.  ``"exact"`` and ``"series"`` are
    accepted as aliases for the two second-order variants — both are batch
    fast paths now, so naming the variant directly is a first-class way to
    pick the search estimator (a conflicting explicit ``variant`` kwarg is
    rejected).

    Pass ``artifacts=ModelArtifacts(model, X_train, y_train)`` to share the
    metric-independent start-up caches (per-sample gradients, Hessian
    factorization, rank-one curvature factors) across many estimators of the
    same fitted model — the amortization a multi-metric, multi-group audit
    lives on.  Omitted, each estimator builds a private bundle.
    """
    from repro.influence.first_order import FirstOrderInfluence
    from repro.influence.one_step_gd import OneStepGradientDescent
    from repro.influence.retrain import RetrainInfluence
    from repro.influence.second_order import SecondOrderInfluence

    if name in ("exact", "series"):
        if kwargs.get("variant", name) != name:
            raise ValueError(
                f"estimator {name!r} already fixes variant={name!r}; "
                f"got conflicting variant={kwargs['variant']!r}"
            )
        kwargs = {**kwargs, "variant": name}
        name = "second_order"
    registry = {
        "first_order": FirstOrderInfluence,
        "second_order": SecondOrderInfluence,
        "one_step_gd": OneStepGradientDescent,
        "retrain": RetrainInfluence,
    }
    try:
        cls = registry[name]
    except KeyError:
        available = sorted([*registry, "exact", "series"])
        raise ValueError(f"unknown estimator {name!r}; available: {available}") from None
    return cls(model, X_train, y_train, metric, test_ctx, **kwargs)  # type: ignore[arg-type]
