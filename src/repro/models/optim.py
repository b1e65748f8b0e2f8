"""Optimizers used to fit the models.

``minimize_loss`` fits every model.  It runs scipy's L-BFGS-B (fast,
deterministic, no learning-rate tuning) on one callable that returns the
mean loss and its gradient together, so an evaluation shares its forward
pass between the two.  Each fit opens one ``model.fit`` span with the
parameter count, the objective evaluations, the L-BFGS-B iterations and
its exit status; at a fixed seed the evaluation count is a deterministic
measure of set-up work.

``mean_rows`` is the linear models' gradient: the mean of the per-sample
rows ``ℓ'(z_i)·x̃_i + λθ``, formed a block of rows at a time and never as
the whole (n, p) matrix.  The block order is what keeps the fitted θ
reproducible.  Each block's sum continues from the running total, which
is how numpy itself sums an (n, p) matrix along axis 0, one row after
another, so the gradient, and with it every L-BFGS-B step, is
bit-identical to averaging the rows of ``per_sample_grads``
(``tests/oracles/fit_loop.py`` fits that way).  One BLAS product ``X̃ᵀr``
would be faster, but it sums in another order, moves θ by about 1e-10
and breaks the influence equivalence suites.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np
from scipy import optimize

from repro.obs import trace

# Rows per block of the gradient reduction.  At p = 72 a (1024, p) block
# stays in cache; 256, 4096 and 16384 rows all fitted slower.
_BLOCK_ROWS = 1024


def minimize_loss(
    objective: Callable[[np.ndarray], tuple[float, np.ndarray]],
    x0: np.ndarray,
    max_iter: int = 500,
    tol: float = 1e-10,
) -> np.ndarray:
    """Minimize a smooth loss with L-BFGS-B; returns the optimal parameters.

    ``objective(θ)`` returns ``(loss, gradient)`` and runs once per
    evaluation.  A tight gradient tolerance matters here: influence
    functions assume the fitted parameters are a stationary point
    (∇L(θ*) ≈ 0), and a sloppy fit shows up directly as estimation error
    in Figure 3.  The ``model.fit`` span records ``params``,
    ``evaluations`` (objective calls), ``iterations`` and ``status``
    (L-BFGS-B's exit code, 0 when it converged).
    """
    x0 = np.asarray(x0, dtype=np.float64)
    with trace.span("model.fit", params=x0.size) as span:
        result = optimize.minimize(
            objective,
            x0,
            jac=True,
            method="L-BFGS-B",
            options={"maxiter": max_iter, "gtol": tol, "ftol": 1e-14},
        )
        span.set(
            evaluations=int(result.nfev), iterations=int(result.nit), status=int(result.status)
        )
    return np.asarray(result.x, dtype=np.float64)


def mean_rows(coef: np.ndarray, design: np.ndarray, shift: np.ndarray) -> np.ndarray:
    """``(coef[:, None] * design + shift).mean(axis=0)``, a block of rows at a time.

    Row 0 of the block buffer holds the running sum, so each
    ``np.add.reduce`` adds the block's rows to it one after another.  That
    is the order numpy sums a C-ordered (n, p) matrix along axis 0, so for a
    C-ordered design with p ≥ 2 the result is bit-identical.  (numpy sums a
    single column, or a Fortran-ordered matrix, pairwise; there the two can
    differ in the last bits.)
    """
    n, p = design.shape
    buffer = np.empty((min(n, _BLOCK_ROWS) + 1, p))
    total = np.zeros(p)
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        rows = buffer[1 : stop - start + 1]
        np.multiply(coef[start:stop, None], design[start:stop], out=rows)
        rows += shift
        buffer[0] = total
        total = np.add.reduce(buffer[: stop - start + 1], axis=0)
    return total / n

