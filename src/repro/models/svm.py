"""Linear SVM with the squared-hinge loss.

The paper restricts itself to twice-differentiable losses.  The classic hinge
is not differentiable, so — as is standard when influence functions meet SVMs
— we use the *squared* hinge ``ℓ(m) = max(0, 1 − m)²`` with margin
``m = ỹ·θᵀ[x, 1]`` and ``ỹ ∈ {−1, +1}``.  It is C¹ everywhere, its Hessian
exists almost everywhere (the kink at m = 1 has measure zero), and the L2
term keeps the empirical Hessian positive definite.

``predict_proba`` maps the margin through a logistic link so fairness
surrogates get a differentiable score in [0, 1]; the hard prediction is the
usual sign of the decision value.
"""

from __future__ import annotations

import numpy as np

from repro.models.linear import LinearClassifier


def _squared_hinge(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row ``max(0, 1 − ỹz)²`` with ỹ = 2y − 1."""
    return np.maximum(0.0, 1.0 - (2.0 * y - 1.0) * z) ** 2


def _squared_hinge_derivatives(
    z: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """∂/∂z and ∂²/∂z² of :func:`_squared_hinge`: −2·max(0, 1 − ỹz)·ỹ and 2·1[ỹz < 1].

    The second derivative is taken as 0 at the kink ỹz = 1, where the
    first one is 0 too.
    """
    signed = 2.0 * y - 1.0
    slack = np.maximum(0.0, 1.0 - signed * z)
    return -2.0 * slack * signed, 2.0 * (slack > 0.0).astype(np.float64)


class LinearSVM(LinearClassifier):
    """L2-regularized linear SVM with squared-hinge loss."""

    _row_loss = staticmethod(_squared_hinge)
    _row_derivatives = staticmethod(_squared_hinge_derivatives)

    def __init__(self, l2_reg: float = 1e-2, fit_intercept: bool = True, max_iter: int = 500):
        super().__init__(l2_reg, fit_intercept, max_iter)
