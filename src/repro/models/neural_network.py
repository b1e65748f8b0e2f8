"""One-hidden-layer feed-forward network (the paper's third model family).

Architecture matches §6.2 of the paper: a single hidden layer (default 10
units, tanh) with a sigmoid output and cross-entropy loss, L2-regularized.
Gradients are analytic (vectorized backprop).  The curvature is the
generalized Gauss-Newton matrix ``(1/n) Σ pᵢ(1−pᵢ) JᵢJᵢᵀ + λI`` with
``Jᵢ = ∇_θ zᵢ``: rank-one per sample, positive semi-definite by
construction, and the standard choice when influence functions are applied
to networks (the true Hessian is indefinite away from interpolation).

The paper itself observes (§6.4) that influence estimates degrade on neural
networks; reproducing that degradation is part of the Figure 3b experiment.
"""

from __future__ import annotations

import numpy as np

from repro.models.base import TwiceDifferentiableClassifier
from repro.models.linear import _sigmoid
from repro.models.logistic_regression import _log_loss
from repro.models.optim import minimize_loss
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_finite


class NeuralNetwork(TwiceDifferentiableClassifier):
    """Binary classifier: p(x) = σ(w₂ᵀ tanh(W₁x + b₁) + b₂)."""

    def __init__(
        self,
        hidden_units: int = 10,
        l2_reg: float = 1e-3,
        max_iter: int = 800,
        seed: int = 0,
    ) -> None:
        if hidden_units < 1:
            raise ValueError(f"hidden_units must be >= 1, got {hidden_units}")
        if l2_reg < 0:
            raise ValueError(f"l2_reg must be non-negative, got {l2_reg}")
        self.hidden_units = int(hidden_units)
        self.l2_reg = float(l2_reg)
        self.max_iter = int(max_iter)
        self.seed = int(seed)
        self.theta: np.ndarray | None = None
        self._num_features: int | None = None

    # ------------------------------------------------------------------
    def clone(self) -> "NeuralNetwork":
        return NeuralNetwork(self.hidden_units, self.l2_reg, self.max_iter, self.seed)

    @property
    def num_params(self) -> int:
        if self._num_features is None:
            raise RuntimeError("model has no feature dimension yet; call fit() first")
        d, h = self._num_features, self.hidden_units
        return h * d + h + h + 1

    def _check_features(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        if self._num_features is None:
            self._num_features = X.shape[1]
        elif X.shape[1] != self._num_features:
            raise ValueError(f"X has {X.shape[1]} features, expected {self._num_features}")
        return X

    def _unpack(self, theta: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, float]:
        d, h = self._num_features, self.hidden_units
        w1 = theta[: h * d].reshape(h, d)
        b1 = theta[h * d : h * d + h]
        w2 = theta[h * d + h : h * d + 2 * h]
        b2 = float(theta[-1])
        return w1, b1, w2, b2

    def _init_theta(self, d: int) -> np.ndarray:
        rng = ensure_rng(self.seed)
        h = self.hidden_units
        w1 = rng.normal(0.0, 1.0 / np.sqrt(d), size=h * d)
        b1 = np.zeros(h)
        w2 = rng.normal(0.0, 1.0 / np.sqrt(h), size=h)
        return np.concatenate([w1, b1, w2, [0.0]])

    # ------------------------------------------------------------------
    def _forward(
        self, X: np.ndarray, theta: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Return hidden activations a (n, h) and output logits z (n,)."""
        w1, b1, w2, b2 = self._unpack(theta)
        a = np.tanh(X @ w1.T + b1)
        z = a @ w2 + b2
        return a, z

    def fit(
        self, X: np.ndarray, y: np.ndarray, warm_start: np.ndarray | None = None
    ) -> "NeuralNetwork":
        """Fit θ* by L-BFGS-B from ``warm_start`` (the seeded init by default).

        (X, y) is validated once, and a NaN or ±inf feature raises
        ``ValueError``.  Each evaluation runs one forward pass and returns
        the mean cross-entropy and the mean of the backpropagated
        per-sample gradients, both computed from it.
        """
        X, y = self._check_xy(X, y)
        check_finite(X, "X")
        self._num_features = X.shape[1]
        x0 = warm_start if warm_start is not None else self._init_theta(X.shape[1])

        def objective(theta: np.ndarray) -> tuple[float, np.ndarray]:
            a, z = self._forward(X, theta)
            losses = _log_loss(z, y) + 0.5 * self.l2_reg * float(theta @ theta)
            grads = self._chain_from_dz(X, a, _sigmoid(z) - y, theta)
            return float(np.mean(losses)), (grads + self.l2_reg * theta).mean(axis=0)

        self.theta = minimize_loss(objective, x0, max_iter=self.max_iter)
        return self

    def predict_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        X = self._check_features(X)
        _, z = self._forward(X, self._resolve_theta(theta))
        return _sigmoid(z)

    # ------------------------------------------------------------------
    def per_sample_losses(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        _, z = self._forward(X, th)
        return _log_loss(z, y) + 0.5 * self.l2_reg * float(th @ th)

    def per_sample_grads(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        a, z = self._forward(X, th)
        return self._chain_from_dz(X, a, _sigmoid(z) - y, th) + self.l2_reg * th[None, :]

    def grad_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        X = self._check_features(X)
        th = self._resolve_theta(theta)
        a, z = self._forward(X, th)
        p = _sigmoid(z)
        return (p * (1.0 - p))[:, None] * self._logit_jacobian(X, a, th)

    def input_grads(
        self,
        X: np.ndarray,
        y: np.ndarray,
        vector: np.ndarray,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        # With dz = σ(z) − y and s = vᵀ∇_θz, the scalar is
        #   vᵀ∇_θℓ(z, θ) = dz·s + λ vᵀθ,
        # so ∇_x = σ'(z)·s·∇_x z + dz·∇_x s.  Writing a = tanh(W₁x + b₁),
        # t = 1 − a², u_h = v_{W₁}[h]·x + v_{b₁}[h]:
        #   s      = Σ_h w₂_h t_h u_h + v_{w₂}ᵀa + v_{b₂}
        #   ∇_x z  = (w₂ ⊙ t) W₁
        #   ∇_x s  = (t ⊙ w₂) v_{W₁} + (t ⊙ (v_{w₂} − 2 a ⊙ w₂ ⊙ u)) W₁
        # (the −2a term is the second tanh derivative appearing because s
        # already contains one backward pass).  All rows vectorize to four
        # (n, h) element-wise products and three GEMMs.
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.num_params,):
            raise ValueError(f"vector shape {vector.shape} != ({self.num_params},)")
        w1, _, w2, _ = self._unpack(th)
        d, h = self._num_features, self.hidden_units
        v_w1 = vector[: h * d].reshape(h, d)
        v_b1 = vector[h * d : h * d + h]
        v_w2 = vector[h * d + h : h * d + 2 * h]
        v_b2 = float(vector[-1])
        a, z = self._forward(X, th)
        t = 1.0 - a**2
        u = X @ v_w1.T + v_b1[None, :]
        s = (w2[None, :] * t * u).sum(axis=1) + a @ v_w2 + v_b2
        p = _sigmoid(z)
        dz = p - y
        grad_z_x = (w2[None, :] * t) @ w1
        grad_s_x = (t * w2[None, :]) @ v_w1 + (t * (v_w2[None, :] - 2.0 * a * w2[None, :] * u)) @ w1
        return (p * (1.0 - p) * s)[:, None] * grad_z_x + dz[:, None] * grad_s_x

    def hessian_factors(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        X, y = self._check_xy(X, y)
        th = self._resolve_theta(theta)
        a, z = self._forward(X, th)
        p = _sigmoid(z)
        return self._logit_jacobian(X, a, th), p * (1.0 - p), self.l2_reg

    # ------------------------------------------------------------------
    def _chain_from_dz(
        self, X: np.ndarray, a: np.ndarray, dz: np.ndarray, theta: np.ndarray
    ) -> np.ndarray:
        """Backprop dz (n,) into per-sample parameter gradients (n, p)."""
        _, _, w2, _ = self._unpack(theta)
        n, h = a.shape
        d = X.shape[1]
        dpre = (dz[:, None] * w2[None, :]) * (1.0 - a**2)  # (n, h)
        g_w1 = (dpre[:, :, None] * X[:, None, :]).reshape(n, h * d)
        g_b1 = dpre
        g_w2 = dz[:, None] * a
        g_b2 = dz[:, None]
        return np.hstack([g_w1, g_b1, g_w2, g_b2])

    def _logit_jacobian(self, X: np.ndarray, a: np.ndarray, theta: np.ndarray) -> np.ndarray:
        """J_i = ∇_θ z_i, shape (n, p) — the GGN building block."""
        return self._chain_from_dz(X, a, np.ones(len(X)), theta)
