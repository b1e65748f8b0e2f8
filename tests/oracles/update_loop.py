"""The per-coordinate §5 update search: the reference for the batched engine.

:func:`repro.updates.find_update_explanations` ascends every pattern at
once, with one analytic ``input_grads`` call per
step, and scores every backoff scale in one pass.  This module keeps the
slow form: per pattern and ascent step, two objective evaluations per
active coordinate; then one Eq.-14 evaluation per backoff scale; and, when
verifying, one retrain per pattern.  :func:`find_update_explanations`
takes the engine's arguments and returns its updates as a list.
"""

from __future__ import annotations

import numpy as np

from repro.influence.parallel import RetrainTask, retrain_thetas
from repro.updates import UpdateDomain, UpdateExplanation, UpdateSearchContext, describe_update
from repro.updates.projected_gd import _BACKOFF_SCALES, _pick_scale

EPS = 1e-4


def _objective(model, subset_X, subset_y, grad_f, delta) -> float:
    """J(δ) = ∇Fᵀ Σ_{z∈S} ∇_θℓ(z + δ, θ*)."""
    grads = model.per_sample_grads(subset_X + delta, subset_y)
    return float(grad_f @ grads.sum(axis=0))


def ascend(model, subset_X, subset_y, grad_f, domain, learning_rate, num_steps) -> np.ndarray:
    """Projected gradient ascent on J by per-coordinate central differences."""
    dim = subset_X.shape[1]
    delta = np.zeros(dim)
    active = np.flatnonzero(domain.mask)
    for _ in range(num_steps):
        grad = np.zeros(dim)
        for j in active:
            step = np.zeros(dim)
            step[j] = EPS
            plus = _objective(model, subset_X, subset_y, grad_f, delta + step)
            minus = _objective(model, subset_X, subset_y, grad_f, delta - step)
            grad[j] = (plus - minus) / (2.0 * EPS)
        norm = np.linalg.norm(grad)
        if norm < 1e-12:
            break
        new_delta = domain.project_delta(delta + learning_rate * grad / norm)
        if np.allclose(new_delta, delta, atol=1e-10):
            break
        delta = new_delta
    return delta


def one_step_bias_change(context: UpdateSearchContext, indices, updated_rows) -> float:
    """Eq. 14 at one projected update, at the context's shared η."""
    new_sum = context.model.per_sample_grads(updated_rows, context.y_train[indices]).sum(axis=0)
    diff = new_sum - context.subset_grad_sum(indices)
    theta_p = context.one_step_thetas(diff[None, :])[0]
    after = context.metric.value(context.model, context.test_ctx, theta_p)
    return float(after - context.original_bias)


def find_update_explanations(
    model,
    encoder,
    X_train,
    y_train,
    metric,
    test_ctx,
    patterns,
    subset_indices,
    *,
    allowed_features=None,
    learning_rate: float = 0.25,
    num_steps: int = 120,
    verify: bool = False,
    context: UpdateSearchContext | None = None,
) -> list[UpdateExplanation]:
    """One update per pattern, searched and scored one pattern at a time."""
    if context is None:
        context = UpdateSearchContext(model, X_train, y_train, metric, test_ctx)
    updates = []
    for pattern, indices in zip(patterns, subset_indices):
        indices = np.asarray(indices, dtype=np.int64)
        subset_X = context.X_train[indices]
        subset_y = context.y_train[indices]
        features = allowed_features if allowed_features is not None else pattern.features()
        domain = UpdateDomain(encoder, subset_X, features)
        delta = ascend(
            model, subset_X, subset_y, context.ascent_grad_f, domain, learning_rate, num_steps
        )
        scaled = [domain.snap_rows(subset_X + scale * delta) for scale in _BACKOFF_SCALES]
        changes = np.array([one_step_bias_change(context, indices, rows) for rows in scaled])
        k = _pick_scale(context, changes)
        gt_change = None
        if verify:
            theta = retrain_thetas(
                model, context.X_train, context.y_train, [RetrainTask(indices, scaled[k])],
                warm_start=context.theta, n_jobs=1,
            )[0]
            gt_change = float(metric.value(model, test_ctx, theta) - context.original_bias)
        updates.append(
            UpdateExplanation(
                pattern=pattern,
                support=indices.size / context.num_train,
                delta=delta,
                changed_features=describe_update(encoder, subset_X, scaled[k]),
                est_bias_change=float(changes[k]),
                gt_bias_change=gt_change,
                original_bias=context.original_bias,
            )
        )
    return updates
