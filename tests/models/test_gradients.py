"""Finite-difference validation of every model's analytic derivatives.

Everything in the influence stack rests on these derivatives being exact,
so each model's gradient, per-sample gradients, Hessian, and probability
gradient are checked against central finite differences of the loss.
"""

import numpy as np
import pytest
from oracles import fd_hessian

from repro.models import LinearSVM, LogisticRegression, NeuralNetwork

EPS = 1e-6


def fd_grad(f, theta, eps=EPS):
    grad = np.zeros_like(theta)
    for k in range(len(theta)):
        step = np.zeros_like(theta)
        step[k] = eps
        grad[k] = (f(theta + step) - f(theta - step)) / (2 * eps)
    return grad


@pytest.fixture(scope="module")
def xy():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 5))
    y = (X[:, 0] - 0.5 * X[:, 1] + rng.normal(scale=0.5, size=60) > 0).astype(np.int64)
    return X, y


def fitted_models(X, y):
    return [
        LogisticRegression(l2_reg=1e-2).fit(X, y),
        LinearSVM(l2_reg=1e-2).fit(X, y),
        NeuralNetwork(hidden_units=4, l2_reg=1e-2, seed=0).fit(X, y),
    ]


@pytest.fixture(scope="module")
def models(xy):
    return fitted_models(*xy)


class TestGradientMatchesFiniteDifferences:
    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_mean_grad(self, xy, models, idx):
        X, y = xy
        model = models[idx]
        rng = np.random.default_rng(idx)
        theta = model.theta + 0.05 * rng.normal(size=model.num_params)
        analytic = model.grad(X, y, theta)
        numeric = fd_grad(lambda t: model.loss(X, y, t), theta)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_per_sample_grads_mean_to_grad(self, xy, models, idx):
        X, y = xy
        model = models[idx]
        per_sample = model.per_sample_grads(X, y)
        np.testing.assert_allclose(per_sample.mean(axis=0), model.grad(X, y), atol=1e-12)

    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_single_row_grad(self, xy, models, idx):
        X, y = xy
        model = models[idx]
        row_X, row_y = X[:1], y[:1]
        analytic = model.per_sample_grads(row_X, row_y)[0]
        numeric = fd_grad(lambda t: model.loss(row_X, row_y, t), model.theta)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5, rtol=1e-4)


class TestHessianMatchesFiniteDifferences:
    def test_lr_hessian(self, xy, models):
        X, y = xy
        model = models[0]
        analytic = model.hessian(X, y)
        numeric = fd_hessian(model, X, y)
        np.testing.assert_allclose(analytic, numeric, atol=1e-5)

    def test_svm_hessian_away_from_kink(self, xy):
        X, y = xy
        model = LinearSVM(l2_reg=1e-2).fit(X, y)
        # Shift parameters so no margin sits exactly at the kink m = 1.
        theta = model.theta * 1.07 + 1e-3
        margins = (2.0 * y - 1.0) * (np.hstack([X, np.ones((len(X), 1))]) @ theta)
        assert np.abs(margins - 1.0).min() > 1e-3
        analytic = model.hessian(X, y, theta)
        numeric = fd_hessian(model, X, y, theta)
        np.testing.assert_allclose(analytic, numeric, atol=1e-4)

    def test_nn_gauss_newton_is_psd(self, xy):
        X, y = xy
        model = NeuralNetwork(hidden_units=3, l2_reg=0.0, seed=1).fit(X, y)
        eigenvalues = np.linalg.eigvalsh(model.hessian(X, y))
        assert eigenvalues.min() > -1e-10

    def test_hessian_symmetric(self, xy, models):
        X, y = xy
        for model in models:
            H = model.hessian(X, y)
            np.testing.assert_allclose(H, H.T, atol=1e-10)


class TestInputGrads:
    """The analytic ∇_x(vᵀ∇_θℓ) hook that fast-paths the §5 update search."""

    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_matches_fd(self, xy, models, idx):
        X, y = xy
        model = models[idx]
        rng = np.random.default_rng(7 + idx)
        v = rng.normal(size=model.num_params)
        analytic = model.input_grads(X[:6], y[:6], v)
        assert analytic.shape == (6, X.shape[1])
        for i in range(6):
            def scalar(x_row, i=i):
                grads = model.per_sample_grads(x_row[None, :], y[i : i + 1])
                return float(v @ grads[0])

            numeric = fd_grad(scalar, X[i].copy())
            np.testing.assert_allclose(analytic[i], numeric, atol=1e-5, rtol=1e-4)

    def test_svm_matches_fd_away_from_kink(self, xy):
        """Margins at the kink have measure zero; checked off-kink so the
        subgradient convention cannot blur the comparison."""
        X, y = xy
        model = LinearSVM(l2_reg=1e-2).fit(X, y)
        theta = model.theta * 1.07 + 1e-3
        margins = (2.0 * y - 1.0) * (np.hstack([X, np.ones((len(X), 1))]) @ theta)
        assert np.abs(margins - 1.0).min() > 1e-3
        rng = np.random.default_rng(3)
        v = rng.normal(size=model.num_params)
        analytic = model.input_grads(X[:8], y[:8], v, theta)
        for i in range(8):
            def scalar(x_row, i=i):
                grads = model.per_sample_grads(x_row[None, :], y[i : i + 1], theta)
                return float(v @ grads[0])

            numeric = fd_grad(scalar, X[i].copy())
            np.testing.assert_allclose(analytic[i], numeric, atol=1e-5, rtol=1e-4)

    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_vector_shape_checked(self, xy, models, idx):
        X, y = xy
        with pytest.raises(ValueError, match="vector shape"):
            models[idx].input_grads(X, y, np.zeros(2))


class TestGradProba:
    @pytest.mark.parametrize("idx", [0, 1, 2], ids=["lr", "svm", "nn"])
    def test_matches_fd(self, xy, models, idx):
        X, _ = xy
        model = models[idx]
        analytic = model.grad_proba(X[:5])
        for i in range(5):
            numeric = fd_grad(
                lambda t, i=i: float(model.predict_proba(X[i : i + 1], t)[0]), model.theta
            )
            np.testing.assert_allclose(analytic[i], numeric, atol=1e-5, rtol=1e-4)

