"""The model interface every influence estimator programs against.

The contract mirrors what the paper's derivations need:

* the empirical risk is ``L(θ) = (1/n) Σ_i ℓ(z_i, θ)`` where the per-sample
  loss *includes* the L2 term ``(λ/2)‖θ‖²`` — folding the regularizer into
  each sample keeps the objective form identical when points are removed,
  which is the intervention Gopher studies;
* ``per_sample_grads`` returns the ``∇_θ ℓ(z_i, θ)`` matrix used to form
  subset gradients ``g_S``;
* ``hessian_factors`` returns the curvature in its generalized-linear form
  ``∇²ℓ(z_i, θ) = w_i φ_i φ_iᵀ + λI`` with ``w_i ≥ 0``, and ``hessian(X,
  y)`` is the *mean* of it over the given rows, so the same factors give
  both the full-data ``H`` and the subset ``H_S`` of the second-order
  group influence (Eq. 10);
* ``input_grads`` returns ∇_x of ``vᵀ∇_θℓ``, the gradient the §5 update
  search ascends;
* ``grad_proba`` returns ``∇_θ P(ŷ=1 | x)`` so smooth fairness surrogates can
  chain-rule onto parameters (Eq. 11).

Every model supplies all of these in closed form: logistic regression and
the squared-hinge SVM exactly, the network under its Gauss–Newton
curvature.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.validation import check_2d, check_binary_labels, check_same_length


class TwiceDifferentiableClassifier(ABC):
    """Base class for binary classifiers with analytic first/second derivatives."""

    l2_reg: float
    theta: np.ndarray | None

    # ------------------------------------------------------------------
    # Fitting and prediction
    # ------------------------------------------------------------------
    @abstractmethod
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        warm_start: np.ndarray | None = None,
    ) -> "TwiceDifferentiableClassifier":
        """Minimize the empirical risk on (X, y); sets ``self.theta``."""

    @abstractmethod
    def predict_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """Return P(y = 1 | x) for each row of X."""

    def predict(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """Return hard 0/1 predictions (threshold 0.5)."""
        return (self.predict_proba(X, theta) >= 0.5).astype(np.int64)

    def predict_proba_many(self, X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """P(y = 1 | x) under a *stack* of parameter vectors — shape (n, m).

        ``thetas`` is an (m, p) matrix of parameter vectors; column ``j`` of
        the result equals ``predict_proba(X, thetas[j])``.  The base
        implementation loops over the stack; linear models override it with
        a single matrix product so batched influence queries stay at BLAS
        speed.
        """
        thetas = self._check_theta_stack(thetas)
        X = np.asarray(X, dtype=np.float64)
        if thetas.shape[0] == 0:
            return np.zeros((len(X), 0))
        return np.stack([self.predict_proba(X, t) for t in thetas], axis=1)

    def predict_many(self, X: np.ndarray, thetas: np.ndarray) -> np.ndarray:
        """Hard 0/1 predictions under a stack of parameter vectors — (n, m)."""
        return (self.predict_proba_many(X, thetas) >= 0.5).astype(np.int64)

    def accuracy(self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None) -> float:
        """Fraction of rows predicted correctly."""
        y = check_binary_labels(y)
        return float(np.mean(self.predict(X, theta) == y))

    # ------------------------------------------------------------------
    # Derivatives (per-sample loss includes the L2 term)
    # ------------------------------------------------------------------
    @abstractmethod
    def per_sample_losses(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        """ℓ(z_i, θ) for every row — shape (n,)."""

    @abstractmethod
    def per_sample_grads(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        """∇_θ ℓ(z_i, θ) for every row — shape (n, p)."""

    def hessian(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> np.ndarray:
        """Mean Hessian (1/n) Σ ∇²_θ ℓ(z_i, θ) — shape (p, p), from the factors."""
        phi, weights, ridge = self.hessian_factors(X, y, theta)
        hess = (phi * weights[:, None]).T @ phi / len(phi)
        hess += ridge * np.eye(self.num_params)
        return hess

    @abstractmethod
    def hessian_factors(
        self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, float]:
        """Rank-one decomposition ``(phi, weights, ridge)`` of the Hessian.

        The per-sample Hessian has the generalized-linear form
        ``∇²ℓ(z_i, θ) = w_i φ_i φ_iᵀ + ridge·I``: the curvature features
        ``phi`` (n, p), the per-sample weights ``w`` (n,), non-negative,
        and the shared ridge, so that for any row subset S

            hessian(X[S], y[S], θ) == (1/|S|) Σ_{i∈S} w_i φ_i φ_iᵀ + ridge·I.

        Batched second-order influence forms subset Hessian-vector products
        for *many* subsets from these as matrix products, and the exact
        variant downdates ``n·H`` by the rows ``√w_i φ_i`` of each subset,
        so no (p, p) Hessian is built per subset.
        """

    @abstractmethod
    def input_grads(
        self,
        X: np.ndarray,
        y: np.ndarray,
        vector: np.ndarray,
        theta: np.ndarray | None = None,
    ) -> np.ndarray:
        """∇_x of the scalar ``vᵀ ∇_θ ℓ(z_i, θ)`` for every row — shape (n, d).

        The §5 update search ascends J(δ) = ∇_θF(θ*)ᵀ Σ_{z∈S} ∇_θℓ(z+δ, θ*)
        over the input coordinates; this gives it ∇_δJ in one call per
        ascent step (``vector`` = ∇_θF).  ``vector`` has length
        ``num_params``; the result is a gradient with respect to the
        *input* features, shape (n, num input features).
        """

    @abstractmethod
    def grad_proba(self, X: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """∇_θ P(ŷ=1 | x_i) for every row — shape (n, p)."""

    @property
    @abstractmethod
    def num_params(self) -> int:
        """Dimension p of the parameter vector."""

    @property
    def num_features(self) -> int | None:
        """Input feature dimension the model is bound to (None before fit).

        All built-in models record the width of the matrix they were
        fitted on; pipeline code uses this to reject a pre-fitted model
        whose feature dimension does not match a fresh encoding *before*
        the mismatch surfaces as a confusing shape error deep inside an
        influence query.
        """
        return getattr(self, "_num_features", None)

    @abstractmethod
    def clone(self) -> "TwiceDifferentiableClassifier":
        """A fresh unfitted copy with identical hyper-parameters."""

    # ------------------------------------------------------------------
    # Derived quantities shared by all models
    # ------------------------------------------------------------------
    def loss(self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None) -> float:
        """Mean loss over the given rows."""
        return float(np.mean(self.per_sample_losses(X, y, theta)))

    def grad(self, X: np.ndarray, y: np.ndarray, theta: np.ndarray | None = None) -> np.ndarray:
        """Mean gradient over the given rows — shape (p,)."""
        return self.per_sample_grads(X, y, theta).mean(axis=0)

    # ------------------------------------------------------------------
    # Shared validation / parameter plumbing
    # ------------------------------------------------------------------
    def _check_theta_stack(self, thetas: np.ndarray) -> np.ndarray:
        thetas = np.asarray(thetas, dtype=np.float64)
        if thetas.ndim != 2 or thetas.shape[1] != self.num_params:
            raise ValueError(
                f"thetas must have shape (m, {self.num_params}), got {thetas.shape}"
            )
        return thetas

    def _resolve_theta(self, theta: np.ndarray | None) -> np.ndarray:
        if theta is not None:
            arr = np.asarray(theta, dtype=np.float64)
            if arr.shape != (self.num_params,):
                raise ValueError(f"theta shape {arr.shape} != ({self.num_params},)")
            return arr
        if self.theta is None:
            raise RuntimeError(f"{type(self).__name__} is not fitted yet")
        return self.theta

    @staticmethod
    def _check_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        X = check_2d(np.asarray(X, dtype=np.float64), "X")
        y = check_binary_labels(np.asarray(y), "y")
        check_same_length(X, y, ("X", "y"))
        return X, y
