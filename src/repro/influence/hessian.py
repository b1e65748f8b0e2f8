"""Hessian factorization and solves shared by the influence estimators.

The Hessian of a strictly convex L2-regularized loss is positive definite, so
a Cholesky factorization is the fast path.  Models whose Hessian is only
positive *semi*-definite in corner cases (squared hinge with no active
margins, Gauss-Newton at saturation) fall back to adaptive damping — the same
trick Koh & Liang apply — and, as a last resort, a conjugate-gradient solve.
:class:`ReducedHessianSolver` applies the same factorize-then-escalate
contract to a batch of matrices, one LAPACK factor-and-solve each.
"""

from __future__ import annotations

import itertools
import threading

import numpy as np
from scipy import linalg
from scipy.linalg import blas, lapack
from scipy.sparse.linalg import LinearOperator, cg

from repro.obs import trace
from repro.obs.metrics import StatsView


class HessianSolver:
    """Solves H x = b repeatedly against one factorized Hessian.

    Parameters
    ----------
    hessian:
        Symmetric (p, p) matrix.
    damping:
        Initial ridge added when the raw matrix fails to factorize.  The
        damping grows ×10 until factorization succeeds (bounded attempts).
    """

    def __init__(self, hessian: np.ndarray, damping: float = 0.0) -> None:
        hessian = np.asarray(hessian, dtype=np.float64)
        if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
            raise ValueError(f"hessian must be square, got shape {hessian.shape}")
        # Cheap max-abs check: np.allclose costs ~80µs of broadcasting
        # machinery per call.
        tolerance = 1e-8 + 1e-5 * np.abs(hessian).max(initial=0.0)
        if np.abs(hessian - hessian.T).max(initial=0.0) > tolerance:
            raise ValueError("hessian must be symmetric")
        self.dim = hessian.shape[0]
        self.hessian = hessian
        self.damping_used = 0.0
        self.stats = StatsView({"eigendecompositions": 0}, namespace="hessian")
        self._lock = threading.RLock()
        self._factor = self._factorize(hessian, damping)
        self._eig: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def from_eigendecomposition(
        cls,
        hessian: np.ndarray,
        eigvals: np.ndarray,
        eigvecs: np.ndarray,
        damping: float = 0.0,
    ) -> "HessianSolver":
        """A solver over a known eigendecomposition — no factorization runs.

        ``eigvals`` / ``eigvecs`` must decompose ``hessian + damping·I``.
        This is the construction :meth:`updated` uses: a rank-k or
        congruence update of an existing solver lands directly in the new
        eigenbasis, and every solve can run there, so the Cholesky
        factorization is never recomputed (the :attr:`factor` property
        still materializes one lazily if some caller insists on it).

        The ridge escalation of :meth:`_factorize` is mirrored on the
        eigenvalues: the first ridge in the ×10 sequence starting at
        ``damping`` under which the spectrum is positive becomes
        ``damping_used``, and the stored eigenvalues are shifted to match.
        """
        self = cls.__new__(cls)
        hessian = np.asarray(hessian, dtype=np.float64)
        if hessian.ndim != 2 or hessian.shape[0] != hessian.shape[1]:
            raise ValueError(f"hessian must be square, got shape {hessian.shape}")
        self.dim = hessian.shape[0]
        self.hessian = hessian
        self.stats = StatsView({"eigendecompositions": 0}, namespace="hessian")
        self._lock = threading.RLock()
        eigvals = np.asarray(eigvals, dtype=np.float64)
        eigvecs = np.asarray(eigvecs, dtype=np.float64)
        if eigvals.shape != (self.dim,) or eigvecs.shape != (self.dim, self.dim):
            raise ValueError(
                f"eigendecomposition shapes {eigvals.shape} / {eigvecs.shape} do not "
                f"match dimension {self.dim}"
            )
        base = float(damping)
        ridge = base
        for _ in range(8):
            if eigvals.min() + (ridge - base) > 0.0:
                self.damping_used = ridge
                if ridge != base:
                    eigvals = eigvals + (ridge - base)
                self._factor = None
                self._eig = (eigvals, eigvecs)
                return self
            ridge = max(ridge * 10.0, 1e-8)
        raise np.linalg.LinAlgError(
            f"hessian could not be made positive definite even with damping {ridge:.1e}"
        )

    @property
    def factor(self):
        """The ``scipy.linalg.cho_factor`` pair of the damped matrix.

        Exposed so callers can run their own ``cho_solve`` variants (e.g.
        triangular solves inside rank-k downdates) against the one cached
        factorization instead of refactorizing.  For an eigendecomposition-
        mode solver the factor is materialized lazily on first access —
        solves never need it there.
        """
        if self._factor is None:
            with self._lock:
                if self._factor is None:
                    matrix = self.hessian
                    if self.damping_used:
                        matrix = matrix + self.damping_used * np.eye(self.dim)
                    self._factor = linalg.cho_factor(matrix, check_finite=False)
        return self._factor

    def updated(
        self,
        new_hessian: np.ndarray,
        update_vectors: np.ndarray | None = None,
        update_weights: np.ndarray | None = None,
        scale: float = 1.0,
        shift: float = 0.0,
    ) -> "HessianSolver":
        """A solver for ``new_hessian`` derived from this solver's eigenbasis.

        With rank-k factors the caller certifies the identity

        ``new_hessian + damping_used·I
          = scale·M + shift·I + Uᵀ diag(c) U``

        where ``M`` is this solver's damped matrix, ``U`` the (k, p)
        ``update_vectors`` and ``c`` the ``update_weights``.  Rotating into
        the cached eigenbasis ``M = Q Λ Qᵀ`` turns the right-hand side into
        ``T = diag(scale·Λ + shift) + (UQ)ᵀ diag(c) (UQ)``; one small
        ``eigh(T) = (Λ', W)`` then gives the new eigendecomposition as
        ``(Λ', Q·W)`` without any Cholesky refactorization.  Without
        factors the dense congruence ``T = Qᵀ(new_hessian + d₀·I)Q`` is
        used instead — same rotation trick, O(p³) GEMMs but still no
        factorization.
        """
        rank = -1 if update_vectors is None else int(np.shape(update_vectors)[0])
        with trace.span("hessian.update", dim=self.dim, rank=rank):
            eigvals, eigvecs = self.eigendecomposition()
            new_hessian = np.asarray(new_hessian, dtype=np.float64)
            if update_vectors is not None:
                V = np.asarray(update_vectors, dtype=np.float64) @ eigvecs
                weights = np.asarray(update_weights, dtype=np.float64).reshape(-1)
                if V.shape[0] != weights.shape[0]:
                    raise ValueError(
                        f"{V.shape[0]} update vectors but {weights.shape[0]} weights"
                    )
                core = np.diag(scale * eigvals + shift)
                core += (V * weights[:, None]).T @ V
            else:
                matrix = new_hessian
                if self.damping_used:
                    matrix = matrix + self.damping_used * np.eye(self.dim)
                core = eigvecs.T @ matrix @ eigvecs
            new_eigvals, W = linalg.eigh(core, check_finite=False)
            return HessianSolver.from_eigendecomposition(
                new_hessian, new_eigvals, eigvecs @ W, damping=self.damping_used
            )

    def eigendecomposition(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigendecomposition ``(eigvals, eigvecs)`` of the damped matrix.

        Computed lazily and cached; :meth:`updated` starts every rank-k
        edit from it, so an edited solver never refactorizes.
        """
        if self._eig is None:
            with self._lock:
                if self._eig is None:
                    with trace.span("hessian.eigendecomposition", dim=self.dim):
                        matrix = self.hessian
                        if self.damping_used:
                            matrix = matrix + self.damping_used * np.eye(self.dim)
                        self._eig = linalg.eigh(matrix, check_finite=False)
                    self.stats.inc("eigendecompositions")
        return self._eig

    def _factorize(self, hessian: np.ndarray, damping: float):
        with trace.span("hessian.factorize", dim=self.dim) as s:
            factor, self.damping_used, attempts = _cholesky(hessian, damping)
            s.set(damping=self.damping_used, attempts=attempts)
            return factor, True

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Return H⁻¹ b for a vector or a column-stack of vectors (p, k).

        The Cholesky factor is computed once at construction, so a k-column
        right-hand side costs one triangular multi-RHS solve — the primitive
        the batched influence estimators lean on.
        """
        b = np.asarray(b, dtype=np.float64)
        if b.shape[0] != self.dim:
            raise ValueError(f"right-hand side has leading dimension {b.shape[0]}, expected {self.dim}")
        rhs = 1 if b.ndim == 1 else b.shape[1]
        with trace.span("hessian.solve", n=self.dim, rhs=rhs) as s:
            s.add("solve_flops", 2.0 * self.dim * self.dim * rhs)
            if self._factor is not None:
                return linalg.cho_solve(self._factor, b, check_finite=False)
            eigvals, eigvecs = self._eig  # type: ignore[misc]
            proj = eigvecs.T @ b
            proj = proj / (eigvals if proj.ndim == 1 else eigvals[:, None])
            return eigvecs @ proj

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Return H⁻¹ bᵢ for every *row* of a (k, p) matrix, as (k, p).

        Row-major orientation matches the (batch, params) layout used
        throughout the batch influence API; the transposes are free (views).
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2 or B.shape[1] != self.dim:
            raise ValueError(f"B must have shape (k, {self.dim}), got {B.shape}")
        if B.shape[0] == 0:
            return np.zeros_like(B)
        with trace.span("hessian.solve", n=self.dim, rhs=B.shape[0]) as s:
            if self._factor is not None:
                s.add("solve_flops", 2.0 * self.dim * self.dim * B.shape[0])
                return linalg.cho_solve(self._factor, B.T, check_finite=False).T
            eigvals, eigvecs = self._eig  # type: ignore[misc]
            s.add("solve_flops", 4.0 * self.dim * self.dim * B.shape[0])
            return ((B @ eigvecs) / eigvals[None, :]) @ eigvecs.T

    def apply(self, x: np.ndarray) -> np.ndarray:
        """Return H x (with the damping used, for consistency with solve)."""
        x = np.asarray(x, dtype=np.float64)
        out = self.hessian @ x
        if self.damping_used:
            out = out + self.damping_used * x
        return out


def _cholesky(matrix: np.ndarray, damping: float) -> tuple[np.ndarray, float, int]:
    """Lower Cholesky factor of ``matrix + ridge·I``, reading the lower triangle.

    ``ridge`` starts at ``damping`` and grows ×10 (from at least 1e-8)
    until ``dpotrf`` succeeds, for at most 8 attempts.  Returns the factor,
    the ridge used and the attempt count; ``matrix`` is never overwritten.
    """
    ridge = damping
    for attempt in range(8):
        shifted = matrix if ridge == 0.0 else matrix + ridge * np.eye(matrix.shape[0])
        factor, info = lapack.dpotrf(shifted, lower=1, clean=0)
        if info == 0:
            return factor, ridge, attempt + 1
        ridge = max(ridge * 10.0, 1e-8)
    raise np.linalg.LinAlgError(f"hessian could not be factorized even with damping {ridge:.1e}")


class ReducedHessianSolver(HessianSolver):
    """Solves ``A_k x_k = b_k`` with a different matrix for every right-hand side.

    The exact second-order estimator reduces the Hessian differently for
    every subset.  :meth:`solve_many` answers a batch of such systems one
    at a time with raw LAPACK — an optional ``dsyrk`` downdate, one
    ``dpotrf`` and one ``dpotrs`` per matrix — so only one (p, p) matrix
    is alive at a time.  Built by :meth:`with_damping`, never by the
    constructor: there is no single matrix to factorize, and the
    single-matrix views of :class:`HessianSolver` (``solve``, ``apply``,
    ``factor``, ``eigendecomposition``, ``updated``) do not apply.
    """

    @classmethod
    def with_damping(cls, damping: float = 0.0) -> "ReducedHessianSolver":
        """A solver whose damping escalation starts at ``damping``."""
        solver = cls.__new__(cls)
        solver.damping = float(damping)
        return solver

    def solve_many(self, B, matrices, downdates=None, rhs_flops: float = 0.0) -> np.ndarray:
        """Rows ``x_k = (A_k − V_kᵀV_k)⁻¹ b_k`` for a (g, p) right-hand side, as (g, p).

        ``matrices`` yields the g (p, p) matrices ``A_k``; only their lower
        triangles are read, and each may be overwritten.  ``downdates``
        optionally yields each matrix's (r_k, p) rows ``V_k``, subtracted
        with one ``dsyrk``.  A matrix that fails ``dpotrf`` runs
        :class:`HessianSolver`'s ×10 damping escalation, so every row
        equals ``HessianSolver(A_k − V_kᵀV_k, damping).solve(b_k)`` up to
        rounding.  One span covers the batch: ``subsets``, ``escalated``
        (matrices that needed more than ``damping``), ``gemm_flops`` (the
        ``dsyrk`` Grams plus ``rhs_flops``, the caller's cost of forming
        B) and ``solve_flops``.
        """
        B = np.asarray(B, dtype=np.float64)
        if B.ndim != 2:
            raise ValueError(f"B must have shape (g, p), got {B.shape}")
        g, p = B.shape
        if downdates is None:
            downdates = itertools.repeat(None, g)
        X = np.empty_like(B)
        escalated, gram_flops = 0, 0.0
        with trace.span("hessian.reduced_solve", subsets=g, p=p) as span:
            for k, (b, matrix, rows) in enumerate(zip(B, matrices, downdates, strict=True)):
                if matrix.shape != (p, p):
                    raise ValueError(f"matrix {k} has shape {matrix.shape}, expected {(p, p)}")
                if rows is not None:
                    matrix = blas.dsyrk(-1.0, rows.T, beta=1.0, c=matrix, lower=1, overwrite_c=1)
                    gram_flops += rows.shape[0] * p * (p + 1.0)
                factor, _, attempts = _cholesky(matrix, self.damping)
                escalated += attempts > 1
                X[k] = lapack.dpotrs(factor, b, lower=1)[0]
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


def conjugate_gradient_solve(
    hessian_vector_product,
    b: np.ndarray,
    dim: int,
    tol: float = 1e-8,
    max_iter: int | None = None,
) -> np.ndarray:
    """Matrix-free H⁻¹b via conjugate gradients.

    Useful when p is large enough that materializing H is wasteful; the
    library's models are small so this is an alternative path, exercised in
    tests and available for user-supplied models.
    """
    op = LinearOperator((dim, dim), matvec=hessian_vector_product)
    x, info = cg(op, np.asarray(b, dtype=np.float64), rtol=tol, maxiter=max_iter)
    if info > 0:
        raise RuntimeError(f"conjugate gradient did not converge within {info} iterations")
    return x
