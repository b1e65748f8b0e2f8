"""The estimator interface and shared per-model caches.

Every estimator answers the same questions about removing a training subset
S (given as row indices or a boolean row mask over the training matrix):

* ``param_change(S)``  — estimated Δθ = θ_{D∖S} − θ*;
* ``bias_change(S)``   — estimated ΔF = F(θ_{D∖S}) − F(θ*) on the test set;

plus ``responsibility(S)`` implementing Definition 3.2, and a *batched*
form of each — ``param_change_batch`` / ``bias_change_batch`` /
``responsibility_batch`` — that evaluates m subsets per call.  The
searches score through ``score_batch``, which returns responsibilities and
bias changes together.

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

* **per-subset** — a scalar query is a batch of one through the index
  form below: one gather-and-sum over the subset rows plus one triangular
  solve; issuing thousands of such calls from Python (one per lattice
  candidate) is dominated by interpreter and dispatch overhead, not
  floating-point work.
* **per-batch** — a batch of m subsets is one matrix of packed rows.
  Subset gradient sums for the whole batch are one product of the masks
  with ``per_sample_grads``, the Δθ's come from one multi-RHS solve
  against the cached factorization, and all three evaluation modes score
  the m perturbed θ's in one vectorized pass.  Per-batch cost is
  therefore BLAS level-3 work amortized over m subsets — the amortized
  batch influence queries the lattice search
  (``repro.patterns.lattice``) is built on.  The exact second-order
  variant is the one closed form whose per-subset matrix differs across
  the batch (``n·H − m·H_S``), so it runs one per-subset kernel, one
  ``dsyrk`` and one ``dposv`` each, whose cost model
  ``repro.influence.second_order`` states.

Results are aligned with the batch order.  ``param_change``,
``bias_change`` and ``responsibility`` are defined once, here, as a batch
of one through the index form, so each estimator family has one kernel
per batch form and no scalar closed form beside it; retraining, which has
no closed form, refits per subset behind the same hooks.  The
equivalence suites pin every kernel against the independent per-subset
forms in ``tests/oracles/``.

Batch forms
-----------
Inside the estimators a batch has one of two forms.  *Packed rows* are an
(m, ceil(n/8)) ``np.uint8`` matrix of bit-packed row masks, the layout of
``repro.mining.bitset``, passed with the keyword ``num_rows=n``: the
lattice hands its levels over in it, the miner its dense extents and the
delta replay its patched masks.  The public batch methods also take an
(m, n) boolean mask matrix or a sequence of per-subset index arrays or
masks, and pack it once, at the door.  Every product of packed rows with
per-row values (first-order's linear ΔF, the gradient sums g_S and the
series variant's curvature product) runs through the column-block fold of
``repro.mining.bitset``: one reused float64 buffer of at most 1 MiB,
sized to stay in L2, so none of them holds an (m, n) boolean or float
matrix.  The exact variant gathers each subset's curvature rows, so it
unpacks each row it solves, one at a time as its kernel reaches it; under
a session those are only the extent cache's misses.
Padding bits past row n in a packed row's last byte are refused, and one
popcount guard refuses a subset that removes the entire training set.

With ``num_rows`` the batch entry points also accept an *index-streamed*
batch: a plain sequence of per-subset sorted index arrays (the miner's
compressed sparse tidlists).  Each subset then costs O(|S|) to gather —
never O(n) to unpack — so a batch of small extents over a 10M-row table
touches only the rows it names.  Every estimator implements the
``_param_changes_indices`` hook; the gradient-sum estimators as a stacked
gather-sum.  The index path bypasses the shared
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

Batched evaluation is ``deltas @ ∇F`` for ``"linear"`` and
``value_batch`` / ``surrogate_batch`` metric calls over the stacked
``θ* + Δθ`` matrix for the other two, one call per block of subsets whose
(n_test, block) float64 matrix fits ``_EVALUATION_BYTES`` (16 MiB), so a
1,024-subset batch over a large test split does not build 1,024-column
matrices.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.mining.bitset import pack_rows, packed_width, popcount, to_packed, to_sparse
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.lazy import Lazy

_EVALUATIONS = ("linear", "smooth", "hard")

# Most bytes of the (n_test, block) float64 matrix one smooth or hard
# evaluation pass builds; a wider batch is evaluated in blocks of subsets.
_EVALUATION_BYTES = 1 << 24


class ZeroBiasError(ZeroDivisionError):
    """The model's original bias is exactly zero, so Definition 3.2's
    responsibility is undefined and there is nothing to explain."""


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
        # The bundle version this estimator answers for (ModelArtifacts.check_fresh).
        self.artifacts_version = artifacts.version
        self.original_bias = metric.value(model, test_ctx)
        self.original_surrogate = metric.surrogate(model, test_ctx)
        self._grad_f = Lazy("influence.grad_f")

    # -- cached heavy pieces -------------------------------------------
    @property
    def grad_f(self) -> np.ndarray:
        """∇_θF(θ*) of the smooth surrogate (cached)."""
        return self._grad_f.get(lambda: self.metric.grad_theta(self.model, self.test_ctx))

    def warm(self) -> "InfluenceEstimator":
        """Eagerly build every slot the query methods would build lazily.

        After ``warm()`` a batch query only reads built slots, so one
        estimator instance can serve concurrent readers (and frozen-array
        sanitizer runs) without a build running mid-query.  Subclasses
        extend this with their own slots.  Idempotent and cheap to re-call.
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
    def param_change(self, indices: np.ndarray) -> np.ndarray:
        """Estimated Δθ from removing the rows at ``indices`` (a batch of one)."""
        return self._param_changes_indices([self._subset_size_ok(indices)])[0]

    def bias_change(self, indices: np.ndarray) -> float:
        """Estimated ΔF = F(after removal) − F(before) (a batch of one)."""
        return float(self._bias_changes([self._subset_size_ok(indices)])[0])

    @property
    def baseline(self) -> float:
        """The original bias matching the evaluation mode.

        ``original_surrogate`` under ``evaluation="smooth"``, else
        ``original_bias``.  It is the denominator of every responsibility,
        so R is the *relative* bias reduction under the same measuring
        stick as ΔF.
        """
        return self.original_surrogate if self.evaluation == "smooth" else self.original_bias

    def responsibility(self, indices: np.ndarray) -> float:
        """Causal responsibility R_F(S) of Definition 3.2 (estimated): −ΔF / baseline."""
        baseline = self.nonzero_baseline()
        return -self.bias_change(indices) / baseline

    def nonzero_baseline(self) -> float:
        """:attr:`baseline`, or :class:`ZeroBiasError` naming the metric when
        it is 0: Definition 3.2 divides by it, and an unbiased model has
        nothing to explain.  The searches call it once before they score,
        so it first refuses a stale estimator
        (:meth:`~repro.influence.artifacts.ModelArtifacts.check_fresh`)."""
        self.artifacts.check_fresh(self.artifacts_version, "estimator")
        if self.baseline == 0.0:
            raise ZeroBiasError(
                f"original {self.metric.name} bias is zero under {self.evaluation} "
                "evaluation; responsibility is undefined"
            )
        return self.baseline

    # -- the batched estimator contract -----------------------------------
    def param_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Estimated Δθ for every subset in the batch — shape (m, p).

        ``subsets`` is an (m, n) boolean mask matrix or a sequence of
        subsets (packed once, here), or — with ``num_rows`` — an
        (m, ceil(n/8)) uint8 matrix of bit-packed masks or an
        index-streamed sequence of per-subset index arrays.
        """
        return self._param_changes(self._batch(subsets, num_rows))

    def bias_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Estimated ΔF for every subset in the batch — shape (m,).

        Accepts every batch form of :meth:`param_change_batch`.  The Δθ's
        come from the batch hooks; the evaluation mode is applied to the m
        perturbed parameter vectors in vectorized blocks (see the module
        docstring).
        """
        batch = self._batch(subsets, num_rows)
        m = len(batch)
        if m == 0:
            return np.zeros(0)
        indexed = isinstance(batch, list)
        with trace.span(
            "influence.batch_indices" if indexed else "influence.batch",
            estimator=type(self).__name__,
            m=m,
            n=self.num_train,
        ) as s:
            s.add("evaluations", m)
            return self._bias_changes(batch)

    def responsibility_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """Causal responsibility R_F(S) for every subset — shape (m,)."""
        return self.score_batch(subsets, num_rows=num_rows)[0]

    def score_batch(
        self, subsets, num_rows: int | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(responsibilities, bias changes)`` for every subset, each shape (m,).

        The one scoring call of the searches and the delta replay.  A zero
        baseline raises :class:`ZeroBiasError` naming the metric before any
        subset is scored, so an unbiased model never yields a silently
        empty top-k.
        """
        baseline = self.nonzero_baseline()
        bias_changes = self.bias_change_batch(subsets, num_rows=num_rows)
        return -bias_changes / baseline, bias_changes

    def _extent_cache_spec(self) -> tuple | None:
        """Key identifying everything Δθ depends on besides the extent.

        Closed-form estimators return ``(family, *numeric knobs)`` so their
        per-row Δθ's can be cached on the shared artifacts by extent and
        reused across the metrics of one audit.  ``None`` (the base —
        retraining has no closed form worth caching) opts out.
        """
        return None

    def _param_changes(self, batch) -> np.ndarray:
        """Δθ's for a validated batch: packed rows or index arrays.

        Packed rows go through the shared extent cache when the artifacts
        bundle has it enabled (audit sessions turn it on) and the estimator
        declares a cache spec; :meth:`_param_changes_packed` then runs only
        on novel extents.  Index batches bypass it (see the module
        docstring).
        """
        if len(batch) == 0:
            return np.zeros((0, self.model.num_params))
        if isinstance(batch, list):
            return self._param_changes_indices(batch)
        spec = self._extent_cache_spec()
        if spec is None or not self.artifacts.extent_caching:
            return self._param_changes_packed(batch)
        return self.artifacts.cached_param_changes(spec, batch, self._param_changes_packed)

    def _param_changes_packed(self, packed: np.ndarray) -> np.ndarray:
        """Δθ's for validated, non-empty packed rows.

        The base implementation unpacks each row to its indices and runs
        :meth:`_param_changes_indices` (retraining's path); the gradient-sum
        estimators override it with the column-block fold of
        ``repro.mining.bitset``.
        """
        return self._param_changes_indices([to_sparse(row, self.num_train) for row in packed])

    @abstractmethod
    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        """Δθ's for a validated, non-empty index-streamed batch.

        The scalar queries run here as a batch of one.  Gradient-sum
        estimators implement it with a stacked gather-sum, so a batch of
        small subsets costs O(Σ|S|·p), independent of the training-set size.
        """

    def _bias_changes(self, batch) -> np.ndarray:
        """ΔF of a validated, non-empty batch, shape (m,)."""
        return self._apply_evaluation(self._param_changes(batch))

    def _apply_evaluation(self, deltas: np.ndarray) -> np.ndarray:
        """Fold an (m, p) Δθ matrix into (m,) ΔF's under the evaluation mode."""
        if self.evaluation == "linear":
            return deltas @ self.grad_f
        thetas = self.theta[None, :] + deltas
        if self.evaluation == "smooth":
            evaluate, origin = self.metric.surrogate_batch, self.original_surrogate
        else:
            evaluate, origin = self.metric.value_batch, self.original_bias
        step = max(1, _EVALUATION_BYTES // (8 * max(1, len(self.test_ctx.X))))
        with trace.span("influence.evaluate", mode=self.evaluation, m=int(deltas.shape[0])):
            after = [
                evaluate(self.model, self.test_ctx, thetas[start : start + step])
                for start in range(0, len(thetas), step)
            ]
            return np.concatenate(after) - origin

    # -- helpers ----------------------------------------------------------
    def _batch(self, subsets, num_rows: int | None):
        """Validate a batch into one of the two internal forms.

        Returns an (m, ceil(n/8)) uint8 matrix of packed rows, or a list
        of validated index arrays for an index-streamed batch.
        ``num_rows`` is the contract marker for those two forms; without
        it the batch is a boolean mask matrix or a sequence of subsets,
        packed here.  A 2-D uint8 array without ``num_rows`` is rejected:
        reading 0/1 bytes as bit-packs would silently score the wrong
        subsets.  Packed rows, however they arrived, pass one popcount
        guard against removing the entire training set.
        """
        self.artifacts.check_fresh(self.artifacts_version, "estimator")
        n = self.num_train
        if num_rows is None:
            packed = self._pack(subsets)
        else:
            if num_rows != n:
                raise ValueError(f"packed batches cover {num_rows} rows, expected {n}")
            if self._is_index_batch(subsets):
                return [self._subset_size_ok(subset) for subset in subsets]
            packed = self._check_packed(np.asarray(subsets))
        if packed.shape[0] and int(popcount(packed).max()) >= n:
            raise ValueError("cannot remove the entire training set")
        return packed

    def _check_packed(self, packed: np.ndarray) -> np.ndarray:
        """Validate a packed uint8 matrix over the training rows."""
        n = self.num_train
        if packed.ndim != 2 or packed.dtype != np.uint8:
            raise ValueError(
                "num_rows implies a packed batch: an (m, ceil(n/8)) uint8 matrix "
                f"of bit-packed masks, got {packed.dtype} array of shape {packed.shape}"
            )
        width = packed_width(n)
        if packed.shape[1] != width:
            raise ValueError(
                f"packed mask matrix has {packed.shape[1]} byte columns, expected "
                f"{width} for {n} rows"
            )
        # The last byte's low ``pad`` bits lie past row n; a set one would
        # count toward the popcount guard but be ignored by every scorer.
        pad = 8 * width - n
        if pad and packed.shape[0] and bool((packed[:, -1] & ((1 << pad) - 1)).any()):
            raise ValueError(f"packed masks set padding bits past num_rows={n}")
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

    def _pack(self, subsets) -> np.ndarray:
        """Pack a boolean mask matrix or a sequence of subsets, once.

        A sequence may hold index arrays or boolean masks (everything
        :meth:`_check_indices` accepts).  A 2-D *non-boolean* array is
        rejected outright: silently reading a 0/1 integer matrix as
        per-row index lists would return influence for the wrong subsets.
        """
        if isinstance(subsets, np.ndarray) and subsets.ndim == 1 and subsets.dtype != object:
            # A bare index array iterates element-wise into m *singleton*
            # subsets — almost certainly not what a caller migrating from
            # the scalar API meant.  (Object arrays hold per-subset index
            # arrays and iterate correctly.)
            raise ValueError(
                "a batch is a sequence of subsets; wrap a single subset's index "
                "array in a list (e.g. bias_change_batch([indices]))"
            )
        n = self.num_train
        if isinstance(subsets, np.ndarray) and subsets.ndim == 2:
            if subsets.dtype != bool:
                raise ValueError(
                    "2-D subset batches must be boolean mask matrices; pass index "
                    "arrays as a sequence (e.g. a list of 1-D arrays) instead"
                )
            if subsets.shape[1] != n:
                raise ValueError(f"mask matrix has {subsets.shape[1]} columns, expected {n}")
            return pack_rows(subsets)
        rows = []
        for subset in subsets:
            if np.asarray(subset).ndim == 0:
                # A flat sequence of ints would be split into singleton
                # subsets — same hazard as the bare-array case above.
                raise ValueError(
                    "a batch is a sequence of subsets; wrap a single subset's "
                    "index array in a list (e.g. bias_change_batch([indices]))"
                )
            rows.append(to_packed(self._check_indices(subset), n))
        return np.stack(rows) if rows else np.zeros((0, packed_width(n)), dtype=np.uint8)

    def _check_indices(self, indices: np.ndarray) -> np.ndarray:
        self.artifacts.check_fresh(self.artifacts_version, "estimator")
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
            # gradient in the index form's sum but collapse to one row in the
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
