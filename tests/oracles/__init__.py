"""Reference implementations the equivalence suites compare ``src`` against.

Each module keeps a slow, obviously-correct form of a job that ``src`` now
does one faster way; ``src`` never imports them.
"""

import numpy as np


def row_subsets(subsets, num_rows: int | None = None) -> list[np.ndarray]:
    """Row index arrays of a batch in any form the estimators take.

    Packed uint8 rows (with ``num_rows``) are unpacked with
    :func:`repro.mining.bitset.unpack_rows`; boolean masks become their
    row indices; index arrays pass through.
    """
    from repro.mining.bitset import unpack_rows

    if num_rows is not None and isinstance(subsets, np.ndarray) and subsets.dtype == np.uint8:
        subsets = unpack_rows(subsets, num_rows)
    rows = [np.asarray(subset) for subset in subsets]
    return [np.flatnonzero(r) if r.dtype == bool else r.astype(np.int64) for r in rows]


def fd_hessian(model, X, y, theta=None, eps: float = 1e-5) -> np.ndarray:
    """The mean Hessian by central differences of ``model.grad``, symmetrized.

    The reference for the closed-form curvature of ``model.hessian``: the
    true Hessian of the loss, which for the network differs from its
    Gauss–Newton curvature away from interpolation.
    """
    theta = model.theta if theta is None else theta
    p = len(theta)
    H = np.zeros((p, p))
    for k in range(p):
        step = np.zeros(p)
        step[k] = eps
        H[:, k] = (model.grad(X, y, theta + step) - model.grad(X, y, theta - step)) / (2 * eps)
    return 0.5 * (H + H.T)
