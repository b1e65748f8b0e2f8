"""Ground-truth influence by retraining (the brute-force baseline).

This is the quantity every other estimator approximates: remove the subset,
refit with the same learning algorithm, and measure the new bias on the test
set.  Following the paper's setup (§6.3), retraining warm-starts from the
original parameters to speed convergence — which is also why its runtime in
Figure 4 sits close to one-step gradient descent rather than a cold fit.
"""

from __future__ import annotations

import numpy as np

from repro.fairness.metrics import FairnessContext, FairnessMetric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator
from repro.influence.parallel import RetrainTask, retrain_thetas
from repro.models.base import TwiceDifferentiableClassifier


class RetrainInfluence(InfluenceEstimator):
    """Exact Δθ and ΔF via refitting on the reduced training data.

    ``n_jobs`` controls the batch queries: each subset's refit is
    independent, so ``param_change_batch`` and friends fan the fits out over
    a process pool (``None`` = one worker per CPU, ``1`` = the serial loop).
    Scalar queries are batches of one and refit in-process.
    """

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        X_train: np.ndarray,
        y_train: np.ndarray,
        metric: FairnessMetric,
        test_ctx: FairnessContext,
        warm_start: bool = True,
        evaluation: str = "hard",
        n_jobs: int | None = 1,
        artifacts: ModelArtifacts | None = None,
    ) -> None:
        if evaluation == "linear":
            raise ValueError("retraining computes exact parameters; use 'hard' or 'smooth'")
        super().__init__(model, X_train, y_train, metric, test_ctx, evaluation, artifacts)
        self.warm_start = bool(warm_start)
        self.n_jobs = n_jobs

    def retrained_theta(self, indices: np.ndarray) -> np.ndarray:
        """Fit a clone on D ∖ S and return its parameters."""
        indices = self._subset_size_ok(indices)
        return retrain_thetas(
            self.model, self.X_train, self.y_train, [RetrainTask(indices)],
            warm_start=self.theta if self.warm_start else None, n_jobs=1,
        )[0]

    def _param_changes_indices(self, idxs: list[np.ndarray]) -> np.ndarray:
        # One refit per subset, run through the shared (optionally
        # process-parallel) retrain helper.  Packed batches arrive here
        # too, unpacked to their indices by the base class, and a scalar
        # query is a batch of one, which never starts a pool.
        warm = self.theta.copy() if self.warm_start else None
        thetas = retrain_thetas(
            self.model, self.X_train, self.y_train, [RetrainTask(idx) for idx in idxs],
            warm_start=warm, n_jobs=self.n_jobs,
        )
        return thetas - self.theta[None, :]
