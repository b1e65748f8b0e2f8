"""Tests for repro.models.optim."""

import numpy as np
import pytest

from repro.models.optim import gradient_descent, minimize_loss


class TestMinimizeLoss:
    def test_quadratic_exact(self):
        target = np.array([1.0, -2.0, 3.0])
        objective = lambda t: (0.5 * float((t - target) @ (t - target)), t - target)
        solution = minimize_loss(objective, np.zeros(3))
        np.testing.assert_allclose(solution, target, atol=1e-6)

    def test_respects_start_for_multimodal(self):
        # f(t) = (t^2 - 1)^2 has minima at ±1; L-BFGS finds the nearby one.
        objective = lambda t: (
            float((t[0] ** 2 - 1) ** 2),
            np.array([4 * t[0] * (t[0] ** 2 - 1)]),
        )
        assert minimize_loss(objective, np.array([0.8]))[0] == pytest.approx(1.0, abs=1e-4)
        assert minimize_loss(objective, np.array([-0.8]))[0] == pytest.approx(-1.0, abs=1e-4)


class TestGradientDescent:
    def test_converges_on_quadratic(self):
        target = np.array([2.0, -1.0])
        grad = lambda t: t - target
        out = gradient_descent(grad, np.zeros(2), learning_rate=0.5, num_steps=100)
        np.testing.assert_allclose(out, target, atol=1e-6)

    def test_zero_steps_returns_start(self):
        start = np.array([1.0, 2.0])
        out = gradient_descent(lambda t: t, start, num_steps=0)
        np.testing.assert_array_equal(out, start)

    def test_does_not_mutate_start(self):
        start = np.array([1.0])
        gradient_descent(lambda t: t, start, num_steps=3)
        assert start[0] == 1.0

    def test_single_step_formula(self):
        grad = lambda t: np.array([3.0])
        out = gradient_descent(grad, np.array([1.0]), learning_rate=0.1, num_steps=1)
        assert out[0] == pytest.approx(1.0 - 0.3)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError, match="positive"):
            gradient_descent(lambda t: t, np.zeros(1), learning_rate=0.0)

    def test_invalid_steps(self):
        with pytest.raises(ValueError, match="non-negative"):
            gradient_descent(lambda t: t, np.zeros(1), num_steps=-1)
