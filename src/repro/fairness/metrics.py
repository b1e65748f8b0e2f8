"""Group-fairness metrics and their smooth surrogates (paper §2).

All metrics are evaluated against a :class:`FairnessContext` — the encoded
test features, true labels, a privileged-group mask, and which label value is
the *favorable* outcome.  Values are oriented as

    F = rate(privileged) − rate(protected)

computed on the favorable outcome, so positive F means the privileged group
receives the favorable outcome more often: bias against the protected group.

Each metric is one reduction, ``_difference(scores, ctx)``, written along
axis 0 of an array whose rows are the n test rows.  The same code turns an
(n,) score vector into F, an (n, m) score matrix — one column per perturbed
parameter vector — into m values, and, for the mean-gap metrics, the (n, p)
favorable-probability gradients into ∇_θF.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.models.base import TwiceDifferentiableClassifier
from repro.utils.validation import check_2d, check_binary_labels

_EPS = 1e-9


@dataclass(frozen=True)
class FairnessContext:
    """The frozen test-side state a fairness metric is evaluated on.

    Attributes
    ----------
    X:
        Encoded test features, shape (n, d).
    y:
        True binary labels, shape (n,).
    privileged:
        Boolean mask: True where the row belongs to the privileged group.
    favorable_label:
        Which label value (0 or 1) is the favorable outcome; 0 for SQF.
    """

    X: np.ndarray
    y: np.ndarray
    privileged: np.ndarray
    favorable_label: int = 1

    def __post_init__(self) -> None:
        X = check_2d(self.X, "X")
        y = check_binary_labels(self.y, "y")
        priv = np.asarray(self.privileged, dtype=bool)
        if len(y) != len(X) or len(priv) != len(X):
            raise ValueError("X, y and privileged must share their first dimension")
        if self.favorable_label not in (0, 1):
            raise ValueError(f"favorable_label must be 0 or 1, got {self.favorable_label}")
        if priv.all() or not priv.any():
            raise ValueError("both privileged and protected groups must be non-empty")
        # copy=False: contexts are frozen, read-only views — an audit
        # session derives one context per protected group from a single
        # shared test encoding, and copying the matrix per group would
        # defeat exactly that sharing.
        object.__setattr__(self, "X", X.astype(np.float64, copy=False))
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "privileged", priv)

    @property
    def favorable_true(self) -> np.ndarray:
        """Mask of rows whose *true* label is the favorable outcome."""
        return self.y == self.favorable_label


class FairnessMetric:
    """Base class: hard value, smooth surrogate, and surrogate gradient.

    A metric defines one reduction, :meth:`_difference`, along axis 0 of a
    score array whose rows are the test rows.  The scalar and batch paths
    all reduce through :meth:`_reduce`, which raises unless the result has
    shape ``scores.shape[1:]``: a reduction collapsing a whole (n, m)
    matrix would otherwise broadcast one number over m parameter vectors.
    A subclass overriding the public :meth:`value` or :meth:`surrogate`
    gets a loop over its own method in the batch paths — slower, but never
    a different number than the scalar API.
    """

    name: str = "fairness"

    # -- hard (indicator-based) value -----------------------------------
    def value(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None = None,
    ) -> float:
        """F(θ, D_test) using thresholded predictions."""
        fav_pred = self._favorable_hard(model, ctx, theta)
        return float(self._reduce(fav_pred.astype(np.float64), ctx))

    # -- smooth surrogate ------------------------------------------------
    def surrogate(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None = None,
    ) -> float:
        """F with indicators replaced by predicted probabilities."""
        return float(self._reduce(self._favorable_proba(model, ctx, theta), ctx))

    def grad_theta(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        """∇_θ of the smooth surrogate — the ∇_θF of Eq. 11."""
        raise NotImplementedError

    # -- batched evaluation over a stack of parameter vectors -------------
    def value_batch(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        thetas: np.ndarray,
    ) -> np.ndarray:
        """``[value(model, ctx, θ) for θ in thetas]`` as one vectorized pass.

        ``thetas`` has shape (m, p); the result has shape (m,).  One call to
        ``predict_many`` replaces m model evaluations, and the reduction
        runs once over the (n, m) prediction matrix — this is what lets the
        ``"hard"`` and ``"smooth"`` evaluation modes of the influence
        estimators score hundreds of perturbed parameter vectors per call.
        """
        if type(self).value is not FairnessMetric.value:
            return np.array([self.value(model, ctx, theta) for theta in thetas])
        fav_pred = self._favorable_hard_many(model, ctx, thetas)
        return self._reduce(fav_pred.astype(np.float64), ctx)

    def surrogate_batch(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        thetas: np.ndarray,
    ) -> np.ndarray:
        """Smooth-surrogate counterpart of :meth:`value_batch` — shape (m,)."""
        if type(self).surrogate is not FairnessMetric.surrogate:
            return np.array([self.surrogate(model, ctx, theta) for theta in thetas])
        return self._reduce(self._favorable_proba_many(model, ctx, thetas), ctx)

    # -- shared helpers ---------------------------------------------------
    def _favorable_hard(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None,
    ) -> np.ndarray:
        return model.predict(ctx.X, theta) == ctx.favorable_label

    def _favorable_proba(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None,
    ) -> np.ndarray:
        proba = model.predict_proba(ctx.X, theta)
        return proba if ctx.favorable_label == 1 else 1.0 - proba

    def _favorable_grad(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None,
    ) -> np.ndarray:
        grad = model.grad_proba(ctx.X, theta)
        return grad if ctx.favorable_label == 1 else -grad

    def _favorable_hard_many(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        thetas: np.ndarray,
    ) -> np.ndarray:
        return model.predict_many(ctx.X, thetas) == ctx.favorable_label

    def _favorable_proba_many(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        thetas: np.ndarray,
    ) -> np.ndarray:
        proba = model.predict_proba_many(ctx.X, thetas)
        return proba if ctx.favorable_label == 1 else 1.0 - proba

    def _difference(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        """The metric's group difference, reduced along axis 0 of ``scores``."""
        raise NotImplementedError

    def _reduce(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        """:meth:`_difference`, checked to have reduced axis 0 and only it."""
        out = np.asarray(self._difference(scores, ctx))
        if out.shape != scores.shape[1:]:
            raise ValueError(
                f"{type(self).__name__}._difference must reduce along axis 0 only: "
                f"scores of shape {scores.shape} gave shape {out.shape}, "
                f"expected {scores.shape[1:]}"
            )
        return out

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


class _MeanGapMetric(FairnessMetric):
    """A metric whose reduction is a fixed combination of group means.

    A difference of group means is linear in the scores, so the reduction
    applied to the (n, p) favorable-probability gradients is exactly ∇_θ of
    the surrogate.  A subclass whose ``_difference`` is not linear in the
    scores must override :meth:`grad_theta`.
    """

    def grad_theta(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        return self._reduce(self._favorable_grad(model, ctx, theta), ctx)


class StatisticalParity(_MeanGapMetric):
    """P(ŷ = fav | privileged) − P(ŷ = fav | protected)."""

    name = "statistical_parity"

    def _difference(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        priv = ctx.privileged
        return scores[priv].mean(axis=0) - scores[~priv].mean(axis=0)


class EqualOpportunity(_MeanGapMetric):
    """True-favorable rate difference among rows whose true label is favorable."""

    name = "equal_opportunity"

    def _qualifying(self, ctx: FairnessContext) -> np.ndarray:
        mask = ctx.favorable_true
        if not (mask & ctx.privileged).any() or not (mask & ~ctx.privileged).any():
            raise ValueError(
                "equal opportunity is undefined: a group has no favorable-label rows"
            )
        return mask

    def _difference(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        mask = self._qualifying(ctx)
        priv = ctx.privileged
        return scores[mask & priv].mean(axis=0) - scores[mask & ~priv].mean(axis=0)


class PredictiveParity(FairnessMetric):
    """PPV difference: P(y = fav | ŷ = fav, privileged) − P(y = fav | ŷ = fav, protected).

    The surrogate replaces the indicator 1[ŷ = fav] with the predicted
    favorable probability, turning each group's PPV into the differentiable
    ratio Σ 1[y=fav]·p / Σ p.
    """

    name = "predictive_parity"

    def _difference(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        fav_true = ctx.favorable_true.astype(np.float64)
        priv = ctx.privileged
        # Broadcast the weights down axis 0 rather than taking a dot
        # product: BLAS would sum in a different order than ``sum``.
        weight_shape = (-1,) + (1,) * (scores.ndim - 1)

        def ppv(mask: np.ndarray) -> np.ndarray:
            s = scores[mask]
            num = (fav_true[mask].reshape(weight_shape) * s).sum(axis=0)
            return num / (s.sum(axis=0) + _EPS)

        return ppv(priv) - ppv(~priv)

    def grad_theta(
        self,
        model: TwiceDifferentiableClassifier,
        ctx: FairnessContext,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        scores = self._favorable_proba(model, ctx, theta)
        grads = self._favorable_grad(model, ctx, theta)
        fav_true = ctx.favorable_true.astype(np.float64)
        priv = ctx.privileged

        def ppv_grad(mask: np.ndarray) -> np.ndarray:
            s, g = scores[mask], grads[mask]
            w = fav_true[mask]
            num, denom = (w * s).sum(), s.sum() + _EPS
            grad_num = (w[:, None] * g).sum(axis=0)
            grad_denom = g.sum(axis=0)
            return (grad_num * denom - num * grad_denom) / denom**2

        return ppv_grad(priv) - ppv_grad(~priv)


class AverageOdds(_MeanGapMetric):
    """Average odds difference: the mean of the favorable-rate gaps among
    truly-favorable and truly-unfavorable rows.

    Equalized odds asks for equal true- and false-positive rates across
    groups; this metric averages the two gaps into one signed violation,
    oriented like every other metric here (positive = privileged favored).
    The paper notes (§2) that Gopher works with any associational notion —
    this one exercises a metric built from *two* conditional rates.
    """

    name = "average_odds"

    def _conditioned(self, ctx: FairnessContext) -> tuple[np.ndarray, np.ndarray]:
        fav, unfav = ctx.favorable_true, ~ctx.favorable_true
        for mask in (fav, unfav):
            if not (mask & ctx.privileged).any() or not (mask & ~ctx.privileged).any():
                raise ValueError(
                    "average odds is undefined: a group is empty under one label"
                )
        return fav, unfav

    def _difference(self, scores: np.ndarray, ctx: FairnessContext) -> np.ndarray:
        fav, unfav = self._conditioned(ctx)
        priv = ctx.privileged

        def gap(mask: np.ndarray) -> np.ndarray:
            return scores[mask & priv].mean(axis=0) - scores[mask & ~priv].mean(axis=0)

        return 0.5 * (gap(fav) + gap(unfav))


_METRICS: dict[str, type[FairnessMetric]] = {
    StatisticalParity.name: StatisticalParity,
    EqualOpportunity.name: EqualOpportunity,
    PredictiveParity.name: PredictiveParity,
    AverageOdds.name: AverageOdds,
}


def get_metric(name: str) -> FairnessMetric:
    """Look up a metric by name (see :func:`list_metrics`)."""
    try:
        return _METRICS[name]()
    except KeyError:
        raise ValueError(f"unknown metric {name!r}; available: {list_metrics()}") from None


def list_metrics() -> list[str]:
    """Names of all registered fairness metrics."""
    return sorted(_METRICS)
