"""The two-closure L-BFGS-B fit: the reference for ``fit``'s one objective.

Every model's ``fit`` hands L-BFGS-B one callable that returns the loss
and its gradient from a shared forward pass, and the linear models sum
that gradient in row blocks.  This module keeps the fit they replaced:
L-BFGS-B over the public ``model.loss`` and ``model.grad``, two closures
that each re-validate (X, y) and redo the forward pass, with the same
options.  ``fit`` must reproduce its θ bit for bit, in as many
evaluations.
"""

from __future__ import annotations

import numpy as np
from scipy import optimize

from repro.models import NeuralNetwork


def fit_loop(model, X, y, warm_start=None) -> optimize.OptimizeResult:
    """Fit ``model`` over its public loss and gradient; returns scipy's result.

    The start is ``warm_start`` or the model's own default: zeros, or the
    network's seeded initialization.  Sets ``model.theta`` as ``fit`` does.
    """
    X = np.asarray(X, dtype=np.float64)
    model._num_features = X.shape[1]
    if warm_start is not None:
        x0 = warm_start
    elif isinstance(model, NeuralNetwork):
        x0 = model._init_theta(X.shape[1])
    else:
        x0 = np.zeros(model.num_params)
    result = optimize.minimize(
        lambda t: model.loss(X, y, t),
        np.asarray(x0, dtype=np.float64),
        jac=lambda t: model.grad(X, y, t),
        method="L-BFGS-B",
        options={"maxiter": model.max_iter, "gtol": 1e-10, "ftol": 1e-14},
    )
    model.theta = np.asarray(result.x, dtype=np.float64)
    return result
