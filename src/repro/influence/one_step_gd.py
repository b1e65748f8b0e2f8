"""One-step gradient-descent influence (paper Eq. 13, §4.1.2).

Starting from the fitted optimum (where the full-data gradient vanishes),
one gradient step on the reduced objective moves the parameters by

    Δθ = (η/n) g_S,

i.e. the FO direction without the inverse-Hessian rescaling.  The paper uses
this surrogate where influence functions do not apply — chiefly the
update-based explanations of Section 5 — and evaluates the resulting bias
change at the stepped parameters directly (``evaluation="hard"``), not
through the chain rule.

``learning_rate="auto"`` picks η = 1 / λ_max(H), the largest step size that
plain gradient descent tolerates on this loss; anything larger makes the
single step overshoot in high-curvature directions and produces wild bias
estimates.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.influence.hessian import largest_eigenvalue
from repro.models.base import TwiceDifferentiableClassifier


def auto_learning_rate(hessian: np.ndarray) -> float:
    """The shared "auto" step size η = 1/λ_max(H) of the one-step surrogate.

    Both the §4 removal estimator below and the §5 update search
    (:mod:`repro.updates.projected_gd`) take a single gradient step scaled
    this way; routing every caller through this helper is what guarantees
    the two surrogates can never disagree on η for the same Hessian.
    """
    lam_max = largest_eigenvalue(hessian)
    if lam_max <= 0:
        raise ValueError("hessian must have a positive top eigenvalue")
    return 1.0 / lam_max


class OneStepGradientDescent(InfluenceEstimator):
    """Eq. 13: Δθ from a single gradient step after removing the subset."""

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        learning_rate: float | str = "auto",
        evaluation: str = "hard",
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        super().__init__(model, X_train, y_train, metric, test_ctx, evaluation, artifacts)
        if learning_rate == "auto":
            self.learning_rate = self.artifacts.auto_learning_rate()
        else:
            rate = float(learning_rate)  # type: ignore[arg-type]
            if rate <= 0:
                raise ValueError(f"learning_rate must be positive, got {rate}")
            self.learning_rate = rate

    def _extent_cache_spec(self) -> tuple:
        return ("one_step_gd", self.learning_rate)

    def _param_changes_packed(self, packed: np.ndarray) -> np.ndarray:
        # Every subset's step is a scaled gradient sum: one fold in total.
        grad_sums = self.artifacts.gradient_sums(packed)
        return (self.learning_rate / self.num_train) * grad_sums

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        grads = self.per_sample_grads
        grad_sums = np.stack([grads[idx].sum(axis=0) for idx in idxs])
        return (self.learning_rate / self.num_train) * grad_sums
