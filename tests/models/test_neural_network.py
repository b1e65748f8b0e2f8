"""Tests for repro.models.neural_network."""

import numpy as np
import pytest
from oracles import fd_hessian

from repro.models import NeuralNetwork


@pytest.fixture(scope="module")
def xor_xy():
    """XOR-ish data a linear model cannot fit but a 1-hidden-layer net can."""
    rng = np.random.default_rng(0)
    X = rng.uniform(-1, 1, size=(400, 2))
    y = ((X[:, 0] * X[:, 1]) > 0).astype(np.int64)
    return X, y


class TestFitPredict:
    def test_solves_nonlinear_problem(self, xor_xy):
        X, y = xor_xy
        model = NeuralNetwork(hidden_units=8, l2_reg=1e-4, seed=0).fit(X, y)
        assert model.accuracy(X, y) > 0.9

    def test_linear_data(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=4, l2_reg=1e-3, seed=0).fit(X, y)
        assert model.accuracy(X, y) > 0.85

    def test_num_params_formula(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=10, seed=0).fit(X, y)
        d = X.shape[1]
        assert model.num_params == 10 * d + 10 + 10 + 1

    def test_deterministic_given_seed(self, tiny_xy):
        X, y = tiny_xy
        a = NeuralNetwork(hidden_units=4, seed=3).fit(X, y)
        b = NeuralNetwork(hidden_units=4, seed=3).fit(X, y)
        np.testing.assert_allclose(a.theta, b.theta, atol=1e-8)

    def test_gradient_near_zero_at_optimum(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=4, l2_reg=1e-3, seed=0).fit(X, y)
        assert np.linalg.norm(model.grad(X, y)) < 1e-4

    def test_warm_start(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=4, seed=0).fit(X, y)
        warm = NeuralNetwork(hidden_units=4, seed=0)
        warm.fit(X, y, warm_start=model.theta.copy())
        assert warm.accuracy(X, y) >= model.accuracy(X, y) - 0.02

    def test_clone_preserves_config(self):
        clone = NeuralNetwork(hidden_units=7, l2_reg=0.1, max_iter=5, seed=9).clone()
        assert (clone.hidden_units, clone.l2_reg, clone.max_iter, clone.seed) == (7, 0.1, 5, 9)
        assert clone.theta is None


class TestValidation:
    def test_invalid_hidden_units(self):
        with pytest.raises(ValueError, match="hidden_units"):
            NeuralNetwork(hidden_units=0)

    def test_negative_reg(self):
        with pytest.raises(ValueError, match="non-negative"):
            NeuralNetwork(l2_reg=-1e-3)

    def test_feature_mismatch(self, tiny_xy):
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=3, seed=0).fit(X, y)
        with pytest.raises(ValueError, match="features"):
            model.predict_proba(X[:, :2])


class TestHessianModes:
    def test_modes_agree_near_interpolation(self, tiny_xy):
        """GGN equals the exact Hessian when residuals vanish; on real data
        they should at least agree in scale.  The exact Hessian is the
        finite-difference reference of ``oracles``."""
        X, y = tiny_xy
        model = NeuralNetwork(hidden_units=3, l2_reg=1e-2, seed=0).fit(X, y)
        h_exact = fd_hessian(model, X, y)
        h_ggn = model.hessian(X, y)
        ratio = np.trace(h_ggn) / np.trace(h_exact)
        assert 0.3 < ratio < 3.0
