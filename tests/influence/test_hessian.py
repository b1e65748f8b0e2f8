"""Tests for repro.influence.hessian."""

import numpy as np
import pytest

from repro.influence.hessian import (
    HessianSolver,
    ReducedHessianSolver,
    conjugate_gradient_solve,
)
from repro.obs import trace
from repro.obs.trace import Tracer


@pytest.fixture
def spd_matrix():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8))
    return A @ A.T + 0.5 * np.eye(8)


class TestHessianSolver:
    def test_solves_exactly(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        x = solver.solve(b)
        np.testing.assert_allclose(spd_matrix @ x, b, atol=1e-8)

    def test_solve_stacked_vectors(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        B = np.random.default_rng(1).normal(size=(8, 3))
        X = solver.solve(B)
        np.testing.assert_allclose(spd_matrix @ X, B, atol=1e-8)

    def test_no_damping_when_pd(self, spd_matrix):
        assert HessianSolver(spd_matrix).damping_used == 0.0

    def test_damping_applied_to_singular(self):
        singular = np.zeros((4, 4))
        solver = HessianSolver(singular)
        assert solver.damping_used > 0
        x = solver.solve(np.ones(4))
        assert np.isfinite(x).all()

    def test_apply_is_inverse_of_solve(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        b = np.random.default_rng(2).normal(size=8)
        np.testing.assert_allclose(solver.apply(solver.solve(b)), b, atol=1e-8)

    def test_apply_includes_damping(self):
        solver = HessianSolver(np.zeros((3, 3)))
        x = np.ones(3)
        np.testing.assert_allclose(solver.apply(solver.solve(x)), x, atol=1e-8)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HessianSolver(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            HessianSolver(M)

    def test_factor_exposed_for_external_solves(self, spd_matrix):
        from scipy import linalg

        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        np.testing.assert_allclose(
            linalg.cho_solve(solver.factor, b), solver.solve(b), atol=1e-12
        )


class TestEigendecomposition:
    def test_reconstructs_damped_matrix(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        eigvals, eigvecs = solver.eigendecomposition()
        np.testing.assert_allclose(
            (eigvecs * eigvals) @ eigvecs.T, spd_matrix, atol=1e-8
        )

    def test_cached(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        assert solver.eigendecomposition()[1] is solver.eigendecomposition()[1]

    def test_covers_escalated_damping(self):
        solver = HessianSolver(np.zeros((4, 4)))
        eigvals, _ = solver.eigendecomposition()
        # The decomposition is of the *damped* matrix, consistent with solve().
        np.testing.assert_allclose(eigvals, solver.damping_used, atol=1e-15)


def _spd_stack(count: int, dim: int = 8, seed: int = 3) -> np.ndarray:
    A = np.random.default_rng(seed).normal(size=(count, dim, dim))
    return A @ A.transpose(0, 2, 1) + 0.5 * np.eye(dim)


def _kernel_solve(matrices, B, damping=0.0, downdates=None):
    """The kernel's rows and its one span, over lower triangles only."""
    with trace.tracing(Tracer()) as tracer:
        X = ReducedHessianSolver.with_damping(damping).solve_many(
            B, [np.tril(A) for A in matrices], downdates
        )
    (span,) = [s for s in tracer.walk() if s.name == "hessian.reduced_solve"]
    return X, span


class TestReducedHessianSolver:
    @pytest.mark.parametrize("damping", [0.0, 1e-3])
    def test_matches_scalar_solver(self, damping):
        stack = _spd_stack(5)
        B = np.random.default_rng(4).normal(size=(5, 8))
        X, span = _kernel_solve(stack, B, damping)
        assert span.attrs["escalated"] == 0
        for A, b, row in zip(stack, B, X):
            np.testing.assert_allclose(
                row, HessianSolver(A, damping=damping).solve(b), atol=1e-10
            )

    def test_downdates_subtract_the_gram(self):
        """Matrix k is ``A_k − V_kᵀV_k`` for the rows ``V_k`` given with it,
        one ``dsyrk`` each, counted as r·p·(p+1) GEMM FLOPs."""
        rng = np.random.default_rng(6)
        rows = [rng.normal(size=(r, 8)) for r in (0, 2, 11)]
        stack = _spd_stack(3) + np.stack([V.T @ V for V in rows])
        B = rng.normal(size=(3, 8))
        X, span = _kernel_solve(stack, B, downdates=rows)
        for A, V, b, row in zip(stack, rows, B, X):
            np.testing.assert_allclose(row, HessianSolver(A - V.T @ V).solve(b), atol=1e-10)
        assert span.attrs["gemm_flops"] == 13 * 8 * 9
        assert span.attrs["solve_flops"] == pytest.approx(3 * (8**3 / 3 + 2 * 8 * 8))

    def test_escalation_parity_with_scalar_constructor(self):
        """Matrices failing ``dpotrf`` get the constructor's ×10 damping
        escalation; the rest are solved at the requested damping."""
        stack = _spd_stack(4)
        stack[1] = np.zeros((8, 8))  # singular: escalates to 1e-8
        stack[3] = np.diag([1.0] * 7 + [-1e-3])  # indefinite
        B = np.random.default_rng(5).normal(size=(4, 8))
        X, span = _kernel_solve(stack, B)
        assert span.attrs["escalated"] == 2
        for A, b, row in zip(stack, B, X):
            np.testing.assert_allclose(row, HessianSolver(A).solve(b), rtol=1e-12)
        # The ladder itself: 0 → 1e-8 for the zero matrix, and up to 1e-2
        # for the eigenvalue −1e-3 (at 1e-3 the pivot is exactly zero).
        np.testing.assert_allclose(X[1], B[1] / 1e-8, rtol=1e-12)
        np.testing.assert_allclose(X[3], B[3] / (np.diag(stack[3]) + 1e-2), rtol=1e-12)

    def test_unfixable_matrix_raises_like_the_constructor(self):
        """No step of the ×10 ladder makes ``−I`` positive definite."""
        with pytest.raises(np.linalg.LinAlgError) as scalar:
            HessianSolver(-np.eye(8))
        with pytest.raises(np.linalg.LinAlgError) as kernel:
            ReducedHessianSolver.with_damping().solve_many(np.ones((1, 8)), [-np.eye(8)])
        assert str(kernel.value) == str(scalar.value)

    def test_empty_batch(self):
        X, span = _kernel_solve(np.zeros((0, 8, 8)), np.zeros((0, 8)))
        assert X.shape == (0, 8)
        assert span.attrs["subsets"] == 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_rejects_mismatched_rhs(self, count):
        kernel = ReducedHessianSolver.with_damping()
        with pytest.raises(ValueError):
            kernel.solve_many(np.zeros((3, 8)), list(_spd_stack(count)))

    def test_rejects_misshapen_matrix(self):
        kernel = ReducedHessianSolver.with_damping()
        with pytest.raises(ValueError, match="shape"):
            kernel.solve_many(np.zeros((1, 8)), [np.eye(7)])
        with pytest.raises(ValueError, match="shape"):
            kernel.solve_many(np.zeros(8), [np.eye(8)])


class TestConjugateGradient:
    def test_matches_direct_solve(self, spd_matrix):
        b = np.arange(8.0)
        direct = np.linalg.solve(spd_matrix, b)
        cg = conjugate_gradient_solve(lambda v: spd_matrix @ v, b, dim=8)
        np.testing.assert_allclose(cg, direct, atol=1e-6)

    def test_nonconvergence_raises(self, spd_matrix):
        with pytest.raises(RuntimeError, match="converge"):
            conjugate_gradient_solve(
                lambda v: spd_matrix @ v, np.ones(8), dim=8, tol=1e-14, max_iter=1
            )
