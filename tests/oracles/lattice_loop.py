"""The per-candidate lattice evaluation: the reference for the batched search.

:func:`repro.patterns.lattice.compute_candidates` scores each level with
one ``score_batch`` call per chunk.  :class:`LoopEstimator` wraps an
estimator so that call, and ``bias_change_batch``, answer one subset at a
time through the scalar ``bias_change``, which is the per-candidate query
loop the lattice ran before it batched.
``compute_candidates(table, LoopEstimator(estimator))`` is therefore the
loop search, and must return what the batched one does; ``scalar_calls``
counts the scalar queries, so a test can check the loop really ran.
"""

from __future__ import annotations

import numpy as np
from oracles import row_subsets


class LoopEstimator:
    """An estimator whose batched bias change is a loop of scalar queries."""

    def __init__(self, estimator) -> None:
        self._estimator = estimator
        self.scalar_calls = 0

    def __getattr__(self, name: str):
        return getattr(self._estimator, name)

    def bias_change_batch(self, subsets, num_rows: int | None = None) -> np.ndarray:
        """ΔF of each subset (packed rows, boolean mask or index array),
        one ``bias_change`` call per subset."""
        rows = row_subsets(subsets, num_rows)
        self.scalar_calls += len(rows)
        return np.array([self._estimator.bias_change(r) for r in rows], dtype=np.float64)

    def score_batch(self, subsets, num_rows: int | None = None):
        """``(responsibilities, bias changes)`` from the scalar loop."""
        baseline = self._estimator.nonzero_baseline()
        bias_changes = self.bias_change_batch(subsets, num_rows=num_rows)
        return -bias_changes / baseline, bias_changes
