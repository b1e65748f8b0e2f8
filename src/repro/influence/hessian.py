"""Hessian solves shared by the influence estimators, one solver form per job.

Every influence estimate is a solve against the training Hessian, and
each job has one form:

* a fresh :class:`HessianSolver` factors its Hessian once by Cholesky and
  answers multi-RHS solves through the factor (2·p²·k FLOPs);
* :meth:`HessianSolver.updated` serves a training-data edit with one
  ``eigh`` of the patched Hessian and answers solves as two GEMMs in that
  eigenbasis (4·p²·k FLOPs).  The edit loop's many-row solves run faster
  there than through a Cholesky factor: at p = 54 a 500-row solve takes
  ~200 µs against ~420 µs (one OpenBLAS thread on a 2-vCPU VM);
* :class:`ReducedHessianSolver`, the exact second-order kernel, downdates
  one base matrix per subset and solves each with one in-place LAPACK
  ``dposv``.

The Hessian of a strictly convex L2-regularized loss is positive definite.
Models whose Hessian is only positive *semi*-definite in corner cases
(squared hinge with no active margins, Gauss-Newton at saturation) fall
back to adaptive damping — the same trick Koh & Liang apply: every form
climbs one ×10 ridge ladder from the requested damping.
"""

from __future__ import annotations

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack

from repro.obs import trace


class HessianSolver:
    """Solves H x = b for many right-hand sides against one Hessian.

    Parameters
    ----------
    hessian:
        Symmetric (p, p) matrix.
    damping:
        Initial ridge added when the raw matrix is not positive definite.
        The ridge grows ×10 until it is (bounded attempts);
        ``damping_used`` records the ridge every solve runs with.
    """

    def __init__(self, hessian: np.ndarray, damping: float = 0.0) -> None:
        self.hessian = _checked(hessian)
        self.dim = self.hessian.shape[0]
        self.damping = float(damping)
        with trace.span("hessian.factorize", dim=self.dim) as s:
            self._factor, self.damping_used, attempts = _escalate(
                _cholesky, self.hessian, self.damping
            )
            s.set(damping=self.damping_used, attempts=attempts)
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    def updated(self, new_hessian: np.ndarray) -> "HessianSolver":
        """A solver for ``new_hessian`` at this solver's requested damping.

        One ``eigh`` of the new matrix replaces the Cholesky factorization,
        and the new solver answers in that eigenbasis.  The ×10 ridge
        ladder runs on the eigenvalues from the requested ``damping``, as
        a fresh solver's runs on ``dpotrf``: ``damping_used`` is the first
        ridge under which the spectrum is positive.
        """
        new_hessian = _checked(new_hessian)
        if new_hessian.shape != self.hessian.shape:
            raise ValueError(
                f"new hessian has shape {new_hessian.shape}, expected {self.hessian.shape}"
            )
        solver = HessianSolver.__new__(HessianSolver)
        solver.hessian = new_hessian
        solver.dim = self.dim
        solver.damping = self.damping
        solver._factor = None
        with trace.span("hessian.update", dim=self.dim) as s:
            eigvals, eigvecs = linalg.eigh(new_hessian, check_finite=False)
            shifted, solver.damping_used, attempts = _escalate(
                _positive_spectrum, eigvals, self.damping
            )
            s.set(damping=solver.damping_used, attempts=attempts)
        solver._eig = (shifted, eigvecs)
        return solver

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Return H⁻¹ bᵢ for every *row* of a (k, p) matrix, as (k, p).

        A fresh solver runs one triangular multi-RHS solve through its
        Cholesky factor, an updated one two GEMMs in its eigenbasis.
        Row-major orientation matches the (batch, params) layout used
        throughout the batch influence API; the transposes are free (views).
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[1] != self.dim:
            raise ValueError(f"B must have shape (k, {self.dim}), got {B.shape}")
        if B.shape[0] == 0:
            return np.zeros_like(B)
        with trace.span("hessian.solve", n=self.dim, rhs=B.shape[0]) as s:
            if self._eig is None:
                s.add("solve_flops", 2.0 * self.dim * self.dim * B.shape[0])
                return linalg.cho_solve((self._factor, True), B.T, check_finite=False).T
            eigvals, eigvecs = self._eig
            s.add("solve_flops", 4.0 * self.dim * self.dim * B.shape[0])
            return ((B @ eigvecs) / eigvals[None, :]) @ eigvecs.T


def _checked(hessian: np.ndarray) -> np.ndarray:
    """``hessian`` as float64, refused unless square and symmetric."""
    hessian = np.asarray(hessian, dtype=np.float64)
    if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
        raise ValueError(f"hessian must be square, got shape {hessian.shape}")
    # Cheap max-abs check: np.allclose costs ~80µs of broadcasting
    # machinery per call.
    tolerance = 1e-8 + 1e-5 * np.abs(hessian).max(initial=0.0)
    if np.abs(hessian - hessian.T).max(initial=0.0) > tolerance:
        raise ValueError("hessian must be symmetric")
    return hessian


def _escalate(attempt, operand, damping: float):
    """Climb the ×10 ridge ladder until ``attempt(operand, ridge)`` returns a result.

    ``ridge`` starts at ``damping`` and grows ×10 (from at least 1e-8) for
    at most 8 attempts.  Returns the result, the ridge used and the attempt
    count.
    """
    ridge = damping
    for count in range(1, 9):
        result = attempt(operand, ridge)
        if result is not None:
            return result, ridge, count
        ridge = max(ridge * 10.0, 1e-8)
    raise np.linalg.LinAlgError(f"hessian could not be factorized even with damping {ridge:.1e}")


def _cholesky(matrix: np.ndarray, ridge: float) -> np.ndarray | None:
    """Lower Cholesky factor of ``matrix + ridge·I`` from the lower triangle,
    or None where ``dpotrf`` fails; ``matrix`` is never overwritten."""
    shifted = matrix if ridge == 0.0 else matrix + ridge * np.eye(matrix.shape[0])
    factor, info = lapack.dpotrf(shifted, lower=1, clean=0)
    return None if info else factor


def _positive_spectrum(eigvals: np.ndarray, ridge: float) -> np.ndarray | None:
    """Ascending ``eigvals`` shifted by ``ridge``, or None unless all are positive."""
    return eigvals + ridge if eigvals[0] + ridge > 0.0 else None


class ReducedHessianSolver(HessianSolver):
    """Solves ``(A − c_k·I − V_kᵀV_k) x_k = b_k``: one base, a matrix per subset.

    The exact second-order estimator's kernel, built by :meth:`with_damping`
    (no single matrix to factorize: the single-matrix views do not apply).
    A subclass because perfbench's ``influence.hessian.solve`` layer times
    the ``solve_many`` of every :class:`HessianSolver` subclass.
    """

    @classmethod
    def with_damping(cls, damping: float = 0.0) -> "ReducedHessianSolver":
        """A solver whose damping escalation starts at ``damping``."""
        solver = cls.__new__(cls)
        solver.damping = float(damping)
        return solver

    def solve_many(self, B, base, shifts, downdates, rhs_flops: float = 0.0) -> np.ndarray:
        """Rows ``x_k = (A − c_k·I − V_kᵀV_k)⁻¹ b_k`` for a (g, p) right-hand side, as (g, p).

        ``base`` is the (p, p) matrix A, whose lower triangle alone is read
        and which is never written; ``shifts`` holds the g diagonal shifts
        c_k, and ``downdates`` yields each subset's (r_k, p) rows V_k.
        Per subset, one Fortran buffer is refilled with ``A − c_k·I``, one
        ``dsyrk`` subtracts the Gram of V_k in place, and one ``dposv``
        factors the buffer in place and solves into the row (the cost model
        is in :mod:`repro.influence.second_order`).  A failing ``dposv``
        refills the buffer; it, and every matrix when ``damping`` > 0, runs
        the ×10 escalation from the unfactored matrix, so every row equals
        ``HessianSolver(A − c_k·I − V_kᵀV_k, damping)``'s solve of b_k up
        to rounding.  One span covers the batch: ``subsets``, ``escalated``
        (matrices that needed more than ``damping``), ``gemm_flops``
        (``dsyrk`` Grams plus ``rhs_flops``, the caller's cost of forming B)
        and ``solve_flops``.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2:
            raise ValueError(f"B must have shape (g, p), got {B.shape}")
        g, p = B.shape
        if base.shape != (p, p):
            raise ValueError(f"base matrix has shape {base.shape}, expected {(p, p)}")
        X = B.copy()  # each row is solved in place
        work = np.empty((p, p), order="F")
        diagonal = np.einsum("ii->i", work)  # a writable view
        escalated, gram_flops = 0, 0.0

        def reduced(shift, rows):
            nonlocal gram_flops
            np.copyto(work, base)
            np.subtract(diagonal, shift, out=diagonal)
            gram_flops += rows.shape[0] * p * (p + 1.0)
            return blas.dsyrk(-1.0, rows.T, beta=1.0, c=work, lower=1, overwrite_c=1)

        with trace.span("hessian.reduced_solve", subsets=g, p=p) as span:
            for x, shift, rows in zip(X, shifts, downdates, strict=True):
                matrix = reduced(shift, rows)
                if not self.damping:
                    if not lapack.dposv(matrix, x, lower=1, overwrite_a=1, overwrite_b=1)[2]:
                        continue
                    matrix = reduced(shift, rows)  # dposv factored it in place
                factor, _, attempts = _escalate(_cholesky, matrix, self.damping)
                escalated += attempts > 1
                x[:] = lapack.dpotrs(factor, x, lower=1)[0]
            span.set(escalated=escalated)
            span.add("gemm_flops", gram_flops + rhs_flops)
            span.add("solve_flops", g * (p**3 / 3.0 + 2.0 * p * p))
        return X


def largest_eigenvalue(hessian: np.ndarray) -> float:
    """λ_max of a symmetric matrix — the one place this spectral query lives.

    Curvature probes elsewhere in the tree (the one-step learning-rate rule,
    step-size diagnostics) route through this helper so every spectral
    factorization of Hessian-shaped state stays inside this module.
    """
    hessian = np.asarray(hessian, dtype=np.float64)
    return float(np.linalg.eigvalsh(hessian).max())
