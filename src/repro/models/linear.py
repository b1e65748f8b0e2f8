"""The shared body of the two linear models.

Logistic regression and the squared-hinge SVM both score a row by its
logit ``z = θᵀx̃`` over the augmented features ``x̃ = [x, 1]`` and fold
``(λ/2)‖θ‖²`` into every per-sample loss.  They differ only in the
per-row loss ℓ(z) and its first two derivatives ℓ'(z) and ℓ''(z), which
each subclass supplies, and every quantity the influence estimators need
follows from them:

* ∇_θℓ = ℓ'(z)·x̃ + λθ;
* ∇²_θℓ = ℓ''(z)·x̃x̃ᵀ + λI, the rank-one form of ``hessian_factors``;
* P(ŷ = 1 | x) = σ(z), so ∇_θP = σ(z)(1 − σ(z))·x̃.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import TwiceDifferentiableClassifier
from repro.models.optim import mean_rows, minimize_loss
from repro.utils.validation import check_finite


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """With e = exp(−|z|), 1/(1 + e) where z ≥ 0 and e/(1 + e) elsewhere: bit for bit the
    masked two-branch σ (NaN signs too), with no gathers.  ``z`` (0-d too) is only read."""
    e = np.negative(z, out=np.empty_like(z, dtype=np.float64), dtype=np.float64)
    np.minimum(z, e, out=e)  # −|z|; a NaN stays z itself, as in exp(z)
    np.exp(e, out=e)
    out = np.add(1.0, e, out=np.empty_like(e))
    np.copyto(e, 1.0, where=z >= 0)
    return np.divide(e, out, out=out)


class LinearClassifier(TwiceDifferentiableClassifier):
    """A binary classifier on the logit θᵀ[x, 1] with an L2-regularized loss.

    Subclasses set two static functions of ``(z, y)``: ``_row_loss`` gives
    each row's ℓ(z), and ``_row_derivatives`` gives ``(ℓ'(z), ℓ''(z))``
    from one pass over their shared terms.

    Parameters
    ----------
    l2_reg:
        Strength λ of the L2 term folded into each per-sample loss.
    fit_intercept:
        Whether to append a constant-1 feature (default True).
    max_iter:
        L-BFGS iteration cap.
    """

    def __init__(self, l2_reg: float, fit_intercept: bool = True, max_iter: int = 500):
        if l2_reg < 0:
            raise ValueError(f"l2_reg must be non-negative, got {l2_reg}")
        self.l2_reg = float(l2_reg)
        self.fit_intercept = bool(fit_intercept)
        self.max_iter = int(max_iter)
        self.theta: np.ndarray | None = None
        self._num_features: int | None = None

    # ------------------------------------------------------------------
    def clone(self) -> "LinearClassifier":
        return type(self)(self.l2_reg, self.fit_intercept, self.max_iter)

    @property
    def num_params(self) -> int:
        if self._num_features is None:
            raise RuntimeError("model has no feature dimension yet; call fit() first")
        return self._num_features + (1 if self.fit_intercept else 0)

    def _augment(self, X: np.ndarray) -> np.ndarray:
        if self._num_features is None:
            self._num_features = X.shape[1]
        elif X.shape[1] != self._num_features:
            raise ValueError(f"X has {X.shape[1]} features, expected {self._num_features}")
        if self.fit_intercept:
            return np.hstack([X, np.ones((len(X), 1))])
        return X

    # ------------------------------------------------------------------
    def fit(
        self, X: np.ndarray, y: np.ndarray, warm_start: np.ndarray | None = None
    ) -> "LinearClassifier":
        """Fit θ* by L-BFGS-B from ``warm_start`` (zeros by default).

        (X, y) is validated once, and a NaN or ±inf feature raises
        ``ValueError``.  The design X̃ = ``[X, 1]`` is built once too.  Each
        evaluation computes ``z = X̃θ`` with one matvec and returns the mean
        loss and the mean gradient row, summed in blocks by
        :func:`repro.models.optim.mean_rows`.  θ* is bit-identical to
        L-BFGS-B over the public ``loss`` and ``grad`` when X̃ is C-ordered
        with two or more columns, as every X̃ with an intercept and a
        feature is.
        """
        X, y = self._check_xy(X, y)
        check_finite(X, "X")
        self._num_features = X.shape[1]
        design = self._augment(X)
        l2 = self.l2_reg

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            z = design @ theta
            loss = np.mean(self._row_loss(z, y) + 0.5 * l2 * float(theta @ theta))
            coef, _ = self._row_derivatives(z, y)
            return float(loss), mean_rows(coef, design, l2 * theta)

        x0 = warm_start if warm_start is not None else np.zeros(self.num_params)
        self.theta = minimize_loss(objective, x0, max_iter=self.max_iter)
        return self

    def decision_function(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """Raw margin θᵀ[x, 1]."""
        X = np.asarray(X, dtype=np.float64)
        return self._augment(X) @ self._resolve_theta(theta)

    def predict_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        return _sigmoid(self.decision_function(X, theta))

    def predict_proba_many(self, X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        thetas = self._check_theta_stack(thetas)
        Xa = self._augment(np.asarray(X, dtype=np.float64))
        return _sigmoid(Xa @ thetas.T)

    # ------------------------------------------------------------------
    def per_sample_losses(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        return self._row_loss(self._augment(X) @ th, y) + 0.5 * self.l2_reg * float(th @ th)

    def per_sample_grads(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        Xa = self._augment(X)
        coef, _ = self._row_derivatives(Xa @ th, y)
        return coef[:, None] * Xa + self.l2_reg * th[None, :]

    def hessian(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        Xa, weights, ridge = self.hessian_factors(X, y, theta)
        hess = (Xa * weights[:, None]).T @ Xa / len(Xa)
        hess += ridge * np.eye(self.num_params)
        return hess

    def hessian_factors(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        Xa = self._augment(X)
        _, curvature = self._row_derivatives(Xa @ th, y)
        return Xa, curvature, self.l2_reg

    def input_grads(
        self,
        X: np.ndarray,
        y: np.ndarray,
        vector: np.ndarray,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        # vᵀ∇_θℓ(z, θ) = ℓ'(z)(vᵀx̃) + λ vᵀθ with z = θᵀx̃, so per input
        # coordinate
        #   ∇_x = ℓ''(z)(vᵀx̃) θ_x + ℓ'(z) v_x
        # with θ_x, v_x the non-intercept slices (the L2 term is constant in
        # x).
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.num_params,):
            raise ValueError(f"vector shape {vector.shape} != ({self.num_params},)")
        Xa = self._augment(X)
        coef, curvature = self._row_derivatives(Xa @ th, y)
        d = X.shape[1]
        along = curvature * (Xa @ vector)
        return along[:, None] * th[None, :d] + coef[:, None] * vector[None, :d]

    def grad_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        th = self._resolve_theta(theta)
        Xa = self._augment(X)
        p = _sigmoid(Xa @ th)
        return (p * (1.0 - p))[:, None] * Xa
