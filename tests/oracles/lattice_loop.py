"""The per-candidate lattice evaluation: the reference for the batched search.

:func:`repro.patterns.lattice.compute_candidates` scores each level with
one ``bias_change_batch`` call per chunk.  :class:`LoopEstimator` wraps an
estimator so that call answers one subset at a time through the scalar
``bias_change``, which is the per-candidate query loop the lattice ran
before it batched.  ``compute_candidates(table, LoopEstimator(estimator))``
is therefore the loop search, and must return what the batched one does.
"""

from __future__ import annotations

import numpy as np


class LoopEstimator:
    """An estimator whose batched bias change is a loop of scalar queries."""

    def __init__(self, estimator) -> None:
        self._estimator = estimator

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def bias_change_batch(self, masks: np.ndarray) -> np.ndarray:
        """ΔF of each boolean row mask, one ``bias_change`` call per row."""
        return np.array([self._estimator.bias_change(np.flatnonzero(mask)) for mask in masks])
