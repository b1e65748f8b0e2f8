"""Hessian factorization and solves shared by the influence estimators.

The Hessian of a strictly convex L2-regularized loss is positive definite, so
a Cholesky factorization is the fast path.  Models whose Hessian is only
positive *semi*-definite in corner cases (squared hinge with no active
margins, Gauss-Newton at saturation) fall back to adaptive damping — the same
trick Koh & Liang apply — and, as a last resort, a conjugate-gradient solve.
:class:`StackedHessianSolver` applies the same factorize-then-escalate
contract to a whole stack of matrices at once.
"""

from __future__ import annotations

import threading

import numpy as np
from scipy import linalg
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
        # machinery per call, which dominates the ctor when the exact
        # estimator's dense fallback builds thousands of small solvers.
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
            ridge = damping
            for attempt in range(8):
                try:
                    matrix = hessian if ridge == 0.0 else hessian + ridge * np.eye(self.dim)
                    factor = linalg.cho_factor(matrix, check_finite=False)
                    self.damping_used = ridge
                    s.set(damping=ridge, attempts=attempt + 1)
                    return factor
                except linalg.LinAlgError:
                    ridge = max(ridge * 10.0, 1e-8)
            raise np.linalg.LinAlgError(
                f"hessian could not be factorized even with damping {ridge:.1e}"
            )

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


class StackedHessianSolver(HessianSolver):
    """Solves ``A_k x_k = b_k`` against a stack of g symmetric (p, p) matrices.

    The stacked form of constructing one solver per matrix, for callers
    that need a different matrix per right-hand side.  Built by
    :meth:`factorize`, never by the constructor, and answered by
    :meth:`solve_many`, which pairs row k of its right-hand side with
    matrix k.  The single-matrix views of :class:`HessianSolver`
    (``solve``, ``apply``, ``factor``, ``eigendecomposition``,
    ``updated``) do not apply to a stack.
    """

    @classmethod
    def factorize(cls, matrices: np.ndarray, damping: float = 0.0) -> "StackedHessianSolver":
        """One batched Cholesky of ``A_k + damping·I`` over the whole stack.

        The Cholesky is also the positive-definiteness test.  A matrix
        that fails it runs the constructor's ×10 damping escalation on its
        own, so every solve equals ``HessianSolver(A_k, damping)``'s up to
        rounding; ``escalated`` marks those matrices.  Only lower
        triangles are read on the batched path.
        """
        matrices = np.asarray(matrices, dtype=np.float64)
        if matrices.ndim != 3 or matrices.shape[1] != matrices.shape[2]:
            raise ValueError(f"matrices must have shape (g, p, p), got {matrices.shape}")
        g, p = matrices.shape[:2]
        stack = cls.__new__(cls)
        stack.dim = p
        stack.escalated = np.zeros(g, dtype=bool)
        damped = matrices + damping * np.eye(p) if damping else matrices
        try:
            stack._factor = np.linalg.cholesky(damped)
        except np.linalg.LinAlgError:
            # Some matrix is not positive definite: find which, one by one.
            stack._factor = np.empty_like(damped)
            for k in range(g):
                try:
                    stack._factor[k] = np.linalg.cholesky(damped[k])
                except np.linalg.LinAlgError:
                    stack.escalated[k] = True
                    stack._factor[k] = np.eye(p)
        stack._escalations = {
            int(k): HessianSolver(matrices[k], damping=damping)
            for k in np.flatnonzero(stack.escalated)
        }
        return stack

    def solve_many(self, B: np.ndarray) -> np.ndarray:
        """Rows ``x_k = A_k⁻¹ b_k`` for a (g, p) right-hand side, as (g, p).

        Forward then back substitution, vectorized across the stack: 2p
        steps of O(g·p) work each, where one LAPACK call per matrix would
        pay the dispatch overhead g times.
        """
        B = np.asarray(B, dtype=np.float64)
        lower = self._factor
        if B.shape != lower.shape[:2]:
            raise ValueError(f"B must have shape {lower.shape[:2]}, got {B.shape}")
        y = np.empty_like(B)
        for i in range(self.dim):
            y[:, i] = (B[:, i] - np.einsum("kj,kj->k", lower[:, i, :i], y[:, :i])) / lower[:, i, i]
        x = np.empty_like(B)
        for i in range(self.dim - 1, -1, -1):
            tail = np.einsum("kj,kj->k", lower[:, i + 1 :, i], x[:, i + 1 :])
            x[:, i] = (y[:, i] - tail) / lower[:, i, i]
        for k, solver in self._escalations.items():
            x[k] = solver.solve(B[k])
        return x


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
