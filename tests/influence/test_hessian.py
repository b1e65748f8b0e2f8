"""Tests for repro.influence.hessian."""

import numpy as np
import pytest

from repro.influence.hessian import HessianSolver, ReducedHessianSolver
from repro.obs import trace
from repro.obs.trace import Tracer


@pytest.fixture
def spd_matrix():
    rng = np.random.default_rng(0)
    A = rng.normal(size=(8, 8))
    return A @ A.T + 0.5 * np.eye(8)


@pytest.fixture
def new_matrix(spd_matrix):
    """The SPD matrix after a rank-2 update, as an edit would patch it."""
    U = np.random.default_rng(2).normal(size=(2, spd_matrix.shape[0]))
    return spd_matrix + U.T @ U


def _solve(solver, b):
    """One right-hand side, as first-order's s_test asks for it."""
    return solver.solve_many(b[None])[0]


class TestHessianSolver:
    def test_solves_exactly(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        np.testing.assert_allclose(spd_matrix @ _solve(solver, b), b, atol=1e-8)

    def test_solves_every_row(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        B = np.random.default_rng(1).normal(size=(3, 8))
        np.testing.assert_allclose(solver.solve_many(B) @ spd_matrix, B, atol=1e-8)

    def test_no_damping_when_pd(self, spd_matrix):
        assert HessianSolver(spd_matrix).damping_used == 0.0

    def test_damping_applied_to_singular(self):
        solver = HessianSolver(np.zeros((4, 4)))
        assert solver.damping_used > 0
        assert np.isfinite(_solve(solver, np.ones(4))).all()

    def test_solve_includes_damping(self):
        solver = HessianSolver(np.zeros((3, 3)))
        x = _solve(solver, np.ones(3))
        np.testing.assert_allclose(solver.damping_used * x, np.ones(3), rtol=1e-12)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError, match="square"):
            HessianSolver(np.zeros((2, 3)))

    def test_rejects_asymmetric(self):
        M = np.array([[1.0, 2.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="symmetric"):
            HessianSolver(M)

    def test_rejects_misshapen_rhs(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        with pytest.raises(ValueError, match="shape"):
            solver.solve_many(np.ones(8))
        with pytest.raises(ValueError, match="shape"):
            solver.solve_many(np.ones((2, 7)))

    def test_solve_matches_an_external_cholesky_solve(self, spd_matrix):
        from scipy import linalg

        solver = HessianSolver(spd_matrix)
        b = np.arange(8.0)
        np.testing.assert_allclose(
            linalg.cho_solve(linalg.cho_factor(spd_matrix), b), _solve(solver, b), atol=1e-12
        )


class TestUpdated:
    """``updated(new)`` is one ``eigh`` of the new matrix: the edited
    solver answers in that eigenbasis, at the ridge a fresh solver of the
    new matrix would use."""

    @pytest.mark.parametrize("damping", [0.0, 1e-3])
    def test_matches_a_fresh_solver(self, spd_matrix, new_matrix, damping):
        B = np.random.default_rng(3).normal(size=(3, 8))
        updated = HessianSolver(spd_matrix, damping=damping).updated(new_matrix)
        fresh = HessianSolver(new_matrix, damping=damping)
        assert updated._factor is None
        assert updated.damping_used == fresh.damping_used
        np.testing.assert_allclose(updated.solve_many(B), fresh.solve_many(B), atol=1e-10)
        np.testing.assert_allclose(_solve(updated, B[0]), _solve(fresh, B[0]), atol=1e-10)

    def test_reconstructs_damped_matrix(self, spd_matrix):
        updated = HessianSolver(spd_matrix).updated(np.zeros((8, 8)))
        eigvals, eigvecs = updated._eig
        damped = updated.damping_used * np.eye(8)
        np.testing.assert_allclose((eigvecs * eigvals) @ eigvecs.T, damped, atol=1e-15)
        updated = HessianSolver(np.zeros((8, 8))).updated(spd_matrix)
        eigvals, eigvecs = updated._eig
        np.testing.assert_allclose((eigvecs * eigvals) @ eigvecs.T, spd_matrix, atol=1e-8)

    def test_ladder_restarts_at_the_requested_damping(self, spd_matrix):
        """A singular matrix climbs the ladder; its update to an SPD matrix
        starts again at the requested damping, as a fresh solver does."""
        singular = HessianSolver(np.zeros((8, 8)))
        assert singular.damping_used > 0.0
        updated = singular.updated(spd_matrix)
        assert updated.damping_used == HessianSolver(spd_matrix).damping_used == 0.0
        np.testing.assert_allclose(
            updated.solve_many(np.eye(8)) @ spd_matrix, np.eye(8), atol=1e-8
        )

    def test_ladder_on_the_eigenvalues(self, spd_matrix):
        """A zero matrix escalates to 1e-8; ``diag(1, …, 1, −2⁻¹⁰)`` fails
        every ridge up to 1e-4 and passes at 1e-3, as ``dpotrf`` does."""
        solver = HessianSolver(spd_matrix)
        indefinite = np.diag([1.0] * 7 + [-(2.0**-10)])
        for matrix, ridge in ((np.zeros((8, 8)), 1e-8), (indefinite, 1e-3)):
            with trace.tracing(Tracer()) as tracer:
                updated = solver.updated(matrix)
            assert updated.damping_used == HessianSolver(matrix).damping_used == ridge
            (span,) = [s for s in tracer.walk() if s.name == "hessian.update"]
            assert span.attrs["damping"] == ridge
            assert span.attrs["attempts"] > 1

    def test_an_edited_solver_updates_again(self, spd_matrix, new_matrix):
        twice = HessianSolver(spd_matrix).updated(new_matrix).updated(spd_matrix)
        B = np.random.default_rng(4).normal(size=(2, 8))
        np.testing.assert_allclose(
            twice.solve_many(B), HessianSolver(spd_matrix).solve_many(B), atol=1e-10
        )

    def test_unfixable_matrix_raises_like_the_constructor(self, spd_matrix):
        with pytest.raises(np.linalg.LinAlgError) as fresh:
            HessianSolver(-np.eye(8))
        with pytest.raises(np.linalg.LinAlgError) as updated:
            HessianSolver(spd_matrix).updated(-np.eye(8))
        assert str(updated.value) == str(fresh.value)

    def test_rejects_a_matrix_of_another_shape(self, spd_matrix):
        solver = HessianSolver(spd_matrix)
        with pytest.raises(ValueError, match="shape"):
            solver.updated(np.eye(7))
        with pytest.raises(ValueError, match="symmetric"):
            solver.updated(np.triu(spd_matrix))


class TestSolveFlops:
    def test_fresh_and_edited_solvers_record_their_work(self, spd_matrix, new_matrix):
        """A solve's span carries ``solve_flops``: 2·p²·k through the
        Cholesky factor of a fresh solver, 4·p²·k (two GEMMs) in the
        eigenbasis of an edited one."""
        p, k = spd_matrix.shape[0], 5
        B = np.random.default_rng(1).normal(size=(k, p))
        fresh = HessianSolver(spd_matrix)
        updated = fresh.updated(new_matrix)
        for solver, per_entry in ((fresh, 2.0), (updated, 4.0)):
            with trace.tracing(Tracer()) as tracer:
                solver.solve_many(B)
                _solve(solver, B[0])
            flops = [s.attrs["solve_flops"] for s in tracer.walk() if s.name == "hessian.solve"]
            assert flops == [per_entry * p * p * k, per_entry * p * p]


def _kernel_solve(base, shifts, downdates, B, damping=0.0):
    """The kernel's rows and its one span, reading the base's lower triangle only."""
    with trace.tracing(Tracer()) as tracer:
        X = ReducedHessianSolver.with_damping(damping).solve_many(
            B, np.asfortranarray(np.tril(base)), shifts, downdates
        )
    (span,) = [s for s in tracer.walk() if s.name == "hessian.reduced_solve"]
    return X, span


def _reduced(base, shift, rows):
    return base - shift * np.eye(base.shape[0]) - rows.T @ rows


class TestReducedHessianSolver:
    """One base matrix, a diagonal shift and a downdate per subset."""

    @pytest.mark.parametrize("damping", [0.0, 1e-3])
    def test_matches_scalar_solver(self, spd_matrix, damping):
        rng = np.random.default_rng(4)
        base = spd_matrix + 4.0 * np.eye(8)
        shifts = np.array([0.0, 0.5, 1.0, 0.25, 2.0])
        rows = [0.3 * rng.normal(size=(r, 8)) for r in (0, 1, 3, 8, 12)]
        B = rng.normal(size=(5, 8))
        X, span = _kernel_solve(base, shifts, rows, B, damping)
        assert span.attrs["escalated"] == 0
        for shift, V, b, row in zip(shifts, rows, B, X):
            solver = HessianSolver(_reduced(base, shift, V), damping=damping)
            np.testing.assert_allclose(row, _solve(solver, b), atol=1e-10)

    def test_downdates_subtract_the_gram(self, spd_matrix):
        """Matrix k is ``A − V_kᵀV_k`` for the rows ``V_k`` given with it,
        one ``dsyrk`` each, counted as r·p·(p+1) GEMM FLOPs."""
        rng = np.random.default_rng(6)
        rows = [rng.normal(size=(r, 8)) for r in (0, 2, 11)]
        base = spd_matrix + sum(V.T @ V for V in rows)
        B = rng.normal(size=(3, 8))
        X, span = _kernel_solve(base, np.zeros(3), rows, B)
        for V, b, row in zip(rows, B, X):
            np.testing.assert_allclose(
                row, _solve(HessianSolver(_reduced(base, 0.0, V)), b), atol=1e-10
            )
        assert span.attrs["gemm_flops"] == 13 * 8 * 9
        assert span.attrs["solve_flops"] == pytest.approx(3 * (8**3 / 3 + 2 * 8 * 8))

    def test_rhs_flops_join_the_gram_flops(self):
        with trace.tracing(Tracer()) as tracer:
            ReducedHessianSolver.with_damping().solve_many(
                np.ones((1, 8)), np.eye(8), [0.0], [np.full((2, 8), 0.1)], rhs_flops=100.0
            )
        (span,) = [s for s in tracer.walk() if s.name == "hessian.reduced_solve"]
        assert span.attrs["gemm_flops"] == 2 * 8 * 9 + 100.0

    def test_escalation_parity_with_scalar_constructor(self):
        """Downdates that leave a singular or an indefinite matrix get the
        constructor's ×10 damping escalation; the rest are solved at the
        requested damping."""
        rng = np.random.default_rng(5)
        base = np.diag([1.0] * 7 + [4.0 - 2.0**-10])
        rows = [
            0.1 * rng.normal(size=(3, 8)),
            np.eye(8)[:1],  # zeroes the first pivot: singular
            0.1 * rng.normal(size=(2, 8)),
            2.0 * np.eye(8)[7:],  # leaves −2⁻¹⁰ exactly: indefinite
        ]
        B = rng.normal(size=(4, 8))
        X, span = _kernel_solve(base, np.zeros(4), rows, B)
        assert span.attrs["escalated"] == 2
        for V, b, row in zip(rows, B, X):
            np.testing.assert_allclose(
                row, _solve(HessianSolver(_reduced(base, 0.0, V)), b), rtol=1e-12
            )
        # The ladder itself: 0 → 1e-8 for the zero pivot, and up to 1e-3
        # for the eigenvalue −2⁻¹⁰ (every ridge up to 1e-4 leaves it negative).
        diagonal = np.diag(base) - np.diag(rows[3].T @ rows[3])
        assert diagonal[7] == -(2.0**-10)
        np.testing.assert_allclose(X[1][0], B[1][0] / 1e-8, rtol=1e-12)
        np.testing.assert_allclose(X[3], B[3] / (diagonal + 1e-3), rtol=1e-12)

    def test_unfixable_matrix_raises_like_the_constructor(self):
        """No step of the ×10 ladder makes ``I − (2I)ᵀ(2I) = −3I`` positive definite."""
        with pytest.raises(np.linalg.LinAlgError) as scalar:
            HessianSolver(-3.0 * np.eye(8))
        with pytest.raises(np.linalg.LinAlgError) as kernel:
            ReducedHessianSolver.with_damping().solve_many(
                np.ones((1, 8)), np.eye(8), [0.0], [2.0 * np.eye(8)]
            )
        assert str(kernel.value) == str(scalar.value)

    def test_empty_batch(self):
        X, span = _kernel_solve(np.eye(8), np.zeros(0), [], np.zeros((0, 8)))
        assert X.shape == (0, 8)
        assert span.attrs["subsets"] == 0

    @pytest.mark.parametrize("count", [2, 4])
    def test_rejects_mismatched_rhs(self, count):
        kernel = ReducedHessianSolver.with_damping()
        rows = [np.zeros((1, 8))] * count
        with pytest.raises(ValueError):
            kernel.solve_many(np.zeros((3, 8)), np.eye(8), np.zeros(count), rows)
        with pytest.raises(ValueError):
            kernel.solve_many(np.zeros((3, 8)), np.eye(8), np.zeros(3), rows)

    def test_rejects_misshapen_matrix(self):
        kernel = ReducedHessianSolver.with_damping()
        with pytest.raises(ValueError, match="shape"):
            kernel.solve_many(np.zeros((1, 8)), np.eye(7), [0.0], [np.zeros((0, 8))])
        with pytest.raises(ValueError, match="shape"):
            kernel.solve_many(np.zeros(8), np.eye(8), [0.0], [np.zeros((0, 8))])
