"""L2-regularized logistic regression with closed-form derivatives.

This is the paper's default model.  With λ > 0 the empirical risk is strictly
convex, so the Hessian is positive definite and invertible — exactly the
regime in which influence functions are best behaved (§4.1.1).
"""

from __future__ import annotations

import numpy as np

from repro.models.linear import LinearClassifier, _sigmoid


def _log_loss(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per-row cross-entropy of logits z against 0/1 labels."""
    # log(1 + e^-z) for y=1 and log(1 + e^z) for y=0, computed stably.
    return np.logaddexp(0.0, z) - y * z


def _log_loss_derivatives(z: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """∂/∂z and ∂²/∂z² of :func:`_log_loss`: σ(z) − y and σ(z)(1 − σ(z))."""
    p = _sigmoid(z)
    return p - y, p * (1.0 - p)


class LogisticRegression(LinearClassifier):
    """Binary logistic regression: p(x) = σ(θᵀ[x, 1]).

    Parameters
    ----------
    l2_reg:
        Strength λ of the L2 term folded into each per-sample loss.
    fit_intercept:
        Whether to append a constant-1 feature (default True).
    max_iter:
        L-BFGS iteration cap.
    """

    _row_loss = staticmethod(_log_loss)
    _row_derivatives = staticmethod(_log_loss_derivatives)

    def __init__(self, l2_reg: float = 1e-3, fit_intercept: bool = True, max_iter: int = 500):
        super().__init__(l2_reg, fit_intercept, max_iter)
