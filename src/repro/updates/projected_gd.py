"""The projected-gradient-descent search for update-based explanations (§5).

Given a responsible subset S, the one-step-GD surrogate links a homogeneous
perturbation δ to new model parameters (Eq. 14):

    θ_p − θ* = −(η/n) [ Σ_{z∈S} ∇_θℓ(z + δ, θ*) − Σ_{z∈S} ∇_θℓ(z, θ*) ],

so the (linearized, Eq. 15) |bias| reduction is achieved by ascending

    J(δ) = sign(F(θ*)) · ∇_θF(θ*)ᵀ Σ_{z∈S} ∇_θℓ(z + δ, θ*)

over the feasible box (Eq. 16–18).  After the continuous ascent, the
perturbed points snap back onto the input domain (Eq. 19) and the realized
bias change is measured at the one-step-GD parameters of the *projected*
points, with optional ground-truth verification by retraining on the
updated training set.

Cost model
----------
The search splits into a subset-independent **start-up** — ∇_θF, the
training Hessian and its auto step size η = 1/λ_max(H), the original bias,
and the per-sample training gradients — owned by one
:class:`UpdateSearchContext` shared across every pattern and backoff scale,
and a per-pattern **search**:

* **ascent** — each step needs ∇_δJ over the active coordinates of every
  still-live pattern.  Models that override the analytic
  :meth:`~repro.models.base.TwiceDifferentiableClassifier.input_grads` hook
  (all built-in models do) answer it in one closed-form call; any other
  model gets one stacked ``per_sample_grads`` call over all 2·|active|
  centrally-perturbed copies of every subset.
* **backoff scoring** — Eq. 14 at every pattern × scale candidate is one
  concatenated gradient pass plus one vectorized metric evaluation over the
  stacked θ_p's, replacing a fresh Hessian eigendecomposition and metric
  call per scale.
* **verification** — ground-truth retrains for all updates go through the
  shared process-parallel helper (:func:`repro.influence.parallel.retrain_thetas`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.datasets.encoding import TabularEncoder
from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.one_step_gd import auto_learning_rate
from repro.influence.parallel import RetrainTask, retrain_thetas
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.updates.domain import UpdateDomain
from repro.updates.perturbation import describe_update

_BACKOFF_SCALES = (1.0, 0.75, 0.5, 0.25)


@dataclass
class UpdateExplanation:
    """An update-based explanation: what to change and what it buys.

    ``est_bias_change`` is the one-step-GD estimate at the projected update;
    ``gt_bias_change`` (if verified) retrains on the updated training set.
    ``direction`` summarizes the verified effect the way the paper's Tables
    4–6 do: "decrease" (↓) means the magnitude of the bias went down after
    the update.  ``removal_source`` records whether ``removal_bias_change``
    came from ground-truth retraining or from an influence estimate.
    """

    pattern: Pattern
    support: float
    delta: np.ndarray = field(repr=False)
    changed_features: dict[str, tuple[str, str]]
    est_bias_change: float
    gt_bias_change: float | None = None
    removal_bias_change: float | None = None
    original_bias: float | None = None
    removal_source: str | None = None

    @property
    def bias_change(self) -> float:
        """Best available ΔF for the update (ground truth if verified)."""
        return self.gt_bias_change if self.gt_bias_change is not None else self.est_bias_change

    @property
    def direction(self) -> str:
        """Whether the update decreases or increases the *magnitude* of bias.

        The signed ΔF alone is not enough: when the model's signed bias is
        negative, the bias-reducing update has ΔF > 0.  Compare |bias|
        before and after instead.  Without ``original_bias`` (hand-built
        instances) fall back to the signed convention, which is correct for
        a positive original bias.
        """
        if self.original_bias is None:
            return "decrease" if self.bias_change < 0 else "increase"
        after = abs(self.original_bias + self.bias_change)
        return "decrease" if after < abs(self.original_bias) else "increase"

    @property
    def direction_vs_removal(self) -> str:
        """The paper's Tables 4–6 arrow: does the update reduce |bias| by
        less (``"less"``, ↓) or more (``"more"``, ↑) than deleting the
        subset would?  Requires ``removal_bias_change``.
        """
        if self.removal_bias_change is None:
            raise ValueError("removal_bias_change was not provided")
        if self.original_bias is None:
            return "less" if self.bias_change > self.removal_bias_change else "more"
        after_update = abs(self.original_bias + self.bias_change)
        after_removal = abs(self.original_bias + self.removal_bias_change)
        return "less" if after_update > after_removal else "more"

    def describe(self) -> str:
        changes = ", ".join(
            f"{feat}: {a} -> {b}" for feat, (a, b) in sorted(self.changed_features.items())
        )
        arrow = "v" if self.direction == "decrease" else "^"
        return f"{self.pattern}  [update {changes or '(none)'}; bias {arrow}]"

    def to_record(self) -> dict:
        """JSON-serializable summary of the update (for export pipelines)."""
        return {
            "pattern": str(self.pattern),
            "support": self.support,
            "changed_features": {
                feature: {"from": a, "to": b}
                for feature, (a, b) in self.changed_features.items()
            },
            "estimated_bias_change": self.est_bias_change,
            "ground_truth_bias_change": self.gt_bias_change,
            "removal_bias_change": self.removal_bias_change,
            "removal_bias_source": self.removal_source,
            "original_bias": self.original_bias,
            "direction": self.direction,
        }


@dataclass
class UpdateExplanationSet:
    """The full output of one update search: aligned updates plus timings."""

    updates: list[UpdateExplanation]
    metric_name: str
    original_bias: float
    search_seconds: float
    verify_seconds: float = 0.0

    def __len__(self) -> int:
        return len(self.updates)

    def __iter__(self):
        return iter(self.updates)

    def __getitem__(self, index: int) -> UpdateExplanation:
        return self.updates[index]

    def to_records(self) -> list[dict]:
        """JSON-serializable records, one per update."""
        return [update.to_record() for update in self.updates]

    def render(self) -> str:
        """Paper-style table: pattern, the update, Δbias, the Tables 4–6 arrows."""
        header = (
            f"Update-based explanations ({self.metric_name}, "
            f"original bias = {self.original_bias:.4f})"
        )
        lines = [header, "-" * len(header)]
        for update in self.updates:
            changes = ", ".join(
                f"{feat}: {a} -> {b}"
                for feat, (a, b) in sorted(update.changed_features.items())
            )
            delta = f"{update.bias_change:+.4f}"
            if update.gt_bias_change is None:
                delta += "*"
            arrow = "v" if update.direction == "decrease" else "^"
            versus = (
                update.direction_vs_removal
                if update.removal_bias_change is not None
                else "n/a"
            )
            lines.append(
                f"{update.support:7.2%}  {delta:>9s} {arrow}  vs removal: {versus:<4s}  "
                f"{update.pattern}  [{changes or 'no change found'}]"
            )
        timing = f"(search {self.search_seconds:.2f}s"
        if self.verify_seconds:
            timing += f", verify {self.verify_seconds:.2f}s"
        lines.append(timing + "; * = estimated one-step Δbias, unverified)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class UpdateSearchContext:
    """Subset-independent state of the §5 search, computed once and shared.

    The per-pattern loop used to rebuild and eigendecompose the training
    Hessian for every backoff scale (4× per pattern) and re-derive ∇F per
    ascent.  All of that depends only on (model, training data, metric,
    test context), so one context owns it: ∇_θF, the training Hessian, the
    auto step size η = 1/λ_max(H) — obtained through the *same*
    :func:`repro.influence.one_step_gd.auto_learning_rate` helper as the §4
    one-step estimator, so the two surrogates can never disagree on η — the
    original bias, and the per-sample training gradients that seed every
    update's old-gradient sums.

    Handed a shared :class:`~repro.influence.artifacts.ModelArtifacts`
    bundle, the context splits further: the metric-*independent* half
    (Hessian, η, train grads) is served from
    :meth:`~repro.influence.artifacts.ModelArtifacts.update_search_state`
    — built once per bundle however many metric views call
    ``explain_updates`` — and only ∇F plus the original bias are computed
    per context.  Standalone construction (no bundle) computes everything
    itself, exactly as before.
    """

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if model.theta is None:
            raise ValueError("model must be fitted before building an update-search context")
        self.model = model
        self.X_train = np.asarray(X_train, dtype=np.float64)
        self.y_train = np.asarray(y_train)
        self.metric = metric
        self.test_ctx = test_ctx
        self.theta = np.asarray(model.theta, dtype=np.float64)
        self.num_train = len(self.X_train)
        self._artifacts = artifacts
        if artifacts is not None:
            artifacts.check_compatible(model, X_train, y_train)
            self.hessian, self.learning_rate = artifacts.update_search_state()
            with trace.span("update.grad_f", n=self.num_train, metric=metric.name):
                self.grad_f = metric.grad_theta(model, test_ctx)
                self.original_bias = float(metric.value(model, test_ctx))
        else:
            with trace.span(
                "update.context", n=self.num_train, metric=metric.name
            ):
                self.grad_f = metric.grad_theta(model, test_ctx)
                self.original_bias = float(metric.value(model, test_ctx))
                self.hessian = model.hessian(self.X_train, self.y_train)
                self.learning_rate = auto_learning_rate(self.hessian)
        self._train_grads: np.ndarray | None = None

    @property
    def train_grads(self) -> np.ndarray:
        """∇_θℓ(z_i, θ*) for all training rows, shape (n, p) (cached)."""
        if self._artifacts is not None:
            return self._artifacts.per_sample_grads
        if self._train_grads is None:
            self._train_grads = self.model.per_sample_grads(self.X_train, self.y_train)
        return self._train_grads

    @property
    def ascent_grad_f(self) -> np.ndarray:
        """∇F oriented so that ascending J always *shrinks* |bias|.

        Maximizing ∇FᵀΣ∇ℓ(z+δ) minimizes the linearized ΔF — the right goal
        only while the signed bias is positive.  For a negative original
        bias the search must push ΔF *up* toward zero, i.e. ascend −J.
        """
        return self.grad_f if self.original_bias >= 0 else -self.grad_f

    def subset_grad_sum(self, indices: np.ndarray) -> np.ndarray:
        """g_S = Σ_{i∈S} ∇ℓ(z_i, θ*) from the cached training gradients."""
        return self.train_grads[indices].sum(axis=0)

    def one_step_thetas(self, grad_diffs: np.ndarray) -> np.ndarray:
        """Eq. 14 for a (m, p) stack of Σ∇ℓ(updated) − Σ∇ℓ(original) sums."""
        return self.theta[None, :] - (self.learning_rate / self.num_train) * grad_diffs


def find_update_explanations(
    model: TwiceDifferentiableClassifier,
    encoder: TabularEncoder,
    X_train: np.ndarray,
    y_train: np.ndarray,
    metric: FairnessMetric,
    test_ctx: FairnessContext,
    patterns: list[Pattern],
    subset_indices: list[np.ndarray],
    *,
    allowed_features: set[str] | None = None,
    learning_rate: float = 0.25,
    num_steps: int = 120,
    verify: bool = False,
    removal_bias_changes: list[float | None] | None = None,
    removal_sources: list[str | None] | None = None,
    context: UpdateSearchContext | None = None,
    n_jobs: int | None = None,
) -> UpdateExplanationSet:
    """Run the Section-5 optimization for many patterns in one engine pass.

    Parameters
    ----------
    patterns / subset_indices:
        Aligned lists: one update search per (pattern, covered-rows) pair.
    allowed_features:
        Features δ may modify.  ``None`` defaults, per pattern, to the
        features the pattern itself mentions — the choice that keeps updates
        readable and matches the shape of the paper's Tables 4–6.
    learning_rate / num_steps:
        Projected-gradient-ascent schedule for the continuous phase.
    verify:
        Retrain on each updated training set (through the shared
        process-parallel helper; ``n_jobs`` workers) to fill
        ``gt_bias_change``.
    removal_bias_changes / removal_sources:
        Optional aligned reference ΔF's of *removing* each subset (and where
        each number came from, e.g. ``"ground_truth"`` / ``"estimated"``),
        enabling ``direction_vs_removal``.
    context:
        A pre-built :class:`UpdateSearchContext` to share start-up work
        across calls; one is built on the fly when omitted.
    """
    if len(patterns) != len(subset_indices):
        raise ValueError("patterns and subset_indices must be aligned")
    removal_bias_changes = _aligned(removal_bias_changes, len(patterns), "removal_bias_changes")
    removal_sources = _aligned(removal_sources, len(patterns), "removal_sources")
    subsets = []
    for indices in subset_indices:
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size == 0:
            raise ValueError("cannot compute an update for an empty subset")
        subsets.append(indices)
    if context is None:
        context = UpdateSearchContext(model, X_train, y_train, metric, test_ctx)
    elif context.model is not model:
        # The ascent evaluates the argument model while η, ∇F, scoring, and
        # the original bias come from the context — a mismatch would produce
        # a silently inconsistent hybrid.
        raise ValueError("context was built for a different model instance")
    if not patterns:
        return UpdateExplanationSet(
            updates=[],
            metric_name=metric.name,
            original_bias=context.original_bias,
            search_seconds=0.0,
        )

    start = time.perf_counter()
    with trace.span("update.search", patterns=len(patterns), steps=num_steps):
        subset_Xs = [context.X_train[indices] for indices in subsets]
        subset_ys = [context.y_train[indices] for indices in subsets]
        domains = [
            UpdateDomain(
                encoder,
                subset_X,
                allowed_features if allowed_features is not None else pattern.features(),
            )
            for pattern, subset_X in zip(patterns, subset_Xs)
        ]
        # One ascent over all k patterns: active sets rarely overlap, so
        # the k per-step model calls collapse into one stacked call over
        # every still-live pattern (see _ascend_all).
        with trace.span(
            "update.ascent",
            patterns=len(patterns),
            rows=int(sum(indices.size for indices in subsets)),
        ):
            deltas = _ascend_all(
                model, subset_Xs, subset_ys, context.ascent_grad_f, domains,
                learning_rate, num_steps,
            )
        with trace.span(
            "update.score", scales=len(_BACKOFF_SCALES) * len(patterns)
        ):
            best_rows, best_changes = _score_backoff(context, domains, subsets, deltas)
    search_seconds = time.perf_counter() - start

    verify_seconds = 0.0
    gt_changes: list[float | None] = [None] * len(patterns)
    if verify:
        start = time.perf_counter()
        with trace.span("update.verify", retrains=len(subsets)):
            tasks = [
                RetrainTask(indices, rows) for indices, rows in zip(subsets, best_rows)
            ]
            thetas = retrain_thetas(
                model, context.X_train, context.y_train, tasks,
                warm_start=context.theta, n_jobs=n_jobs,
            )
            after = metric.value_batch(model, test_ctx, thetas)
            gt_changes = [float(a - context.original_bias) for a in after]
        verify_seconds = time.perf_counter() - start

    updates = []
    for i, (pattern, indices) in enumerate(zip(patterns, subsets)):
        updates.append(
            UpdateExplanation(
                pattern=pattern,
                support=indices.size / context.num_train,
                delta=deltas[i],
                changed_features=describe_update(
                    encoder, context.X_train[indices], best_rows[i]
                ),
                est_bias_change=best_changes[i],
                gt_bias_change=gt_changes[i],
                removal_bias_change=removal_bias_changes[i],
                original_bias=context.original_bias,
                removal_source=removal_sources[i],
            )
        )
    return UpdateExplanationSet(
        updates=updates,
        metric_name=metric.name,
        original_bias=context.original_bias,
        search_seconds=search_seconds,
        verify_seconds=verify_seconds,
    )


def _aligned(values: list | None, count: int, name: str) -> list:
    if values is None:
        return [None] * count
    if len(values) != count:
        raise ValueError(f"{name} must have one entry per pattern")
    return list(values)


# ----------------------------------------------------------------------
# Continuous ascent
# ----------------------------------------------------------------------
def _supports_input_grads(model: TwiceDifferentiableClassifier) -> bool:
    return type(model).input_grads is not TwiceDifferentiableClassifier.input_grads


def _ascend_all(
    model: TwiceDifferentiableClassifier,
    subset_Xs: list[np.ndarray],
    subset_ys: list[np.ndarray],
    grad_f: np.ndarray,
    domains: list[UpdateDomain],
    learning_rate: float,
    num_steps: int,
) -> list[np.ndarray]:
    """Ascend all k patterns together: one model call per step, not k.

    Each pattern keeps its own δ, projection, and convergence test, but the
    per-step gradient evaluations of every still-live pattern concatenate
    into a single ``input_grads`` call — or, for a model without that
    hook, a single stacked finite-difference ``per_sample_grads`` call.
    The built-in models evaluate gradients row-wise, so each pattern's
    slice of the concatenated result matches its standalone evaluation;
    converged patterns drop out of the stack, so late steps shrink toward
    the hardest pattern alone.
    """
    deltas = [np.zeros(subset_X.shape[1]) for subset_X in subset_Xs]
    actives = [np.flatnonzero(domain.mask) for domain in domains]
    live = [i for i in range(len(domains)) if actives[i].size]
    if not live:
        return deltas
    analytic = _supports_input_grads(model)
    eps = 1e-4
    for _ in range(num_steps):
        bases = [subset_Xs[i] + deltas[i] for i in live]
        if analytic:
            full = model.input_grads(
                np.concatenate(bases, axis=0),
                np.concatenate([subset_ys[i] for i in live]),
                grad_f,
            )
            grads = []
            start = 0
            for i, base in zip(live, bases):
                summed = full[start : start + base.shape[0]].sum(axis=0)
                start += base.shape[0]
                grad = np.zeros(base.shape[1])
                grad[actives[i]] = summed[actives[i]]
                grads.append(grad)
        else:
            grads = _stacked_fd_grad_all(
                model, bases, [subset_ys[i] for i in live],
                grad_f, [actives[i] for i in live], eps,
            )
        still = []
        for i, grad in zip(live, grads):
            norm = np.linalg.norm(grad)
            if norm < 1e-12:
                continue
            new_delta = domains[i].project_delta(deltas[i] + learning_rate * grad / norm)
            if np.allclose(new_delta, deltas[i], atol=1e-10):
                continue
            deltas[i] = new_delta
            still.append(i)
        live = still
        if not live:
            break
    return deltas


def _stacked_fd_grad_all(
    model: TwiceDifferentiableClassifier,
    bases: list[np.ndarray],
    subset_ys: list[np.ndarray],
    grad_f: np.ndarray,
    actives: list[np.ndarray],
    eps: float,
) -> list[np.ndarray]:
    """Central-difference ∇_δJ for many patterns in one stacked model call.

    Builds each pattern's 2·|active| copies, shifted by ±eps along one
    active coordinate each, concatenates every pattern's stack, and splits
    the single ``per_sample_grads`` result back per pattern.
    """
    blocks, labels = [], []
    for base, subset_y, active in zip(bases, subset_ys, actives):
        s, dim = base.shape
        a = active.size
        stacked = np.repeat(base[None, :, :], 2 * a, axis=0)
        arange = np.arange(a)
        stacked[arange, :, active] += eps
        stacked[a + arange, :, active] -= eps
        blocks.append(stacked.reshape(2 * a * s, dim))
        labels.append(np.tile(subset_y, 2 * a))
    grads = model.per_sample_grads(np.concatenate(blocks, axis=0), np.concatenate(labels))
    out = []
    start = 0
    for base, active in zip(bases, actives):
        s, dim = base.shape
        a = active.size
        segment = grads[start : start + 2 * a * s]
        start += 2 * a * s
        values = segment.reshape(2 * a, s, -1).sum(axis=1) @ grad_f
        grad = np.zeros(dim)
        grad[active] = (values[:a] - values[a:]) / (2.0 * eps)
        out.append(grad)
    return out


# ----------------------------------------------------------------------
# Backoff-scale scoring (Eq. 14 at the projected candidates)
# ----------------------------------------------------------------------
def _backoff_candidates(
    context: UpdateSearchContext,
    domains: list[UpdateDomain],
    subsets: list[np.ndarray],
    deltas: list[np.ndarray],
) -> list[list[np.ndarray]]:
    """Snapped (Eq. 19) row blocks for every pattern × backoff scale."""
    candidates = []
    for domain, indices, delta in zip(domains, subsets, deltas):
        base = context.X_train[indices]
        candidates.append(
            [domain.snap_rows(base + scale * delta) for scale in _BACKOFF_SCALES]
        )
    return candidates


def _pick_scale(context: UpdateSearchContext, changes: np.ndarray) -> int:
    """The scale whose estimated post-update |bias| is smallest (first wins).

    The linearized objective is blind to overshoot, so without the backoff
    the "maximal" update can flip the bias sign instead of removing it.
    """
    return int(np.argmin(np.abs(context.original_bias + changes)))


def _score_backoff(
    context: UpdateSearchContext,
    domains: list[UpdateDomain],
    subsets: list[np.ndarray],
    deltas: list[np.ndarray],
) -> tuple[list[np.ndarray], list[float]]:
    """All pattern × scale candidates through one gradient pass + one
    vectorized metric evaluation."""
    candidates = _backoff_candidates(context, domains, subsets, deltas)
    blocks = [rows for scaled_rows in candidates for rows in scaled_rows]
    labels = [
        context.y_train[indices]
        for indices in subsets
        for _ in _BACKOFF_SCALES
    ]
    grads = context.model.per_sample_grads(
        np.concatenate(blocks, axis=0), np.concatenate(labels)
    )
    sizes = np.array([len(rows) for rows in blocks], dtype=np.int64)
    starts = np.zeros(len(blocks), dtype=np.int64)
    np.cumsum(sizes[:-1], out=starts[1:])
    new_sums = np.add.reduceat(grads, starts, axis=0)
    old_sums = np.repeat(
        np.stack([context.subset_grad_sum(indices) for indices in subsets]),
        len(_BACKOFF_SCALES),
        axis=0,
    )
    thetas = context.one_step_thetas(new_sums - old_sums)
    after = context.metric.value_batch(context.model, context.test_ctx, thetas)
    changes = np.asarray(after) - context.original_bias

    num_scales = len(_BACKOFF_SCALES)
    best_rows, best_changes = [], []
    for i, scaled_rows in enumerate(candidates):
        chunk = changes[i * num_scales:(i + 1) * num_scales]
        k = _pick_scale(context, chunk)
        best_rows.append(scaled_rows[k])
        best_changes.append(float(chunk[k]))
    return best_rows, best_changes
