"""Algorithm 2 — top-k selection with containment-based diversity.

Selection runs on the columns of a
:class:`~repro.patterns.lattice.CandidateResult`, the form every search
and the delta replay return: the root-cause window and the protected-only
filter are array masks, the visit order is one stable ``np.lexsort``, and
containment is read off packed rows as ``popcount(a & b) / popcount(a)``.
A :class:`~repro.patterns.lattice.PatternStats` is built only for each row
selected.  A plain list of candidates is converted to columns on entry
(:meth:`~repro.patterns.lattice.CandidateResult.of_stats`), and its own
objects are returned.
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace
from repro.patterns.lattice import CandidateResult, PatternStats


def select_top_k(
    candidates: list[PatternStats] | CandidateResult,
    k: int,
    containment_threshold: float = 0.75,
    require_positive_responsibility: bool = True,
    exclude_features_only: set[str] | None = None,
    max_responsibility: float = 1.25,
) -> list[PatternStats]:
    """Pick the k most interesting, mutually diverse candidates.

    ``candidates`` is the :class:`CandidateResult` either search engine
    returns, or a plain list of :class:`PatternStats`.

    Candidates are visited in descending interestingness order; ties fall
    back to the canonical pattern order (the deterministic tie-break
    Definition 3.7 requires: the id rows ranked by predicate sort key,
    a prefix first), then to candidate order.  A candidate is skipped when
    its containment in any already-selected explanation exceeds the
    threshold.

    Definition 3.1 requires a *root cause* to satisfy
    ``0 <= F(after) < F(before)`` — removing it must reduce the bias, not
    overshoot past zero and flip its sign.  ``require_positive_responsibility``
    enforces the lower bound and ``max_responsibility`` the upper one; the
    default allows 25% slack above R = 1 because the lattice works with
    *estimated* responsibilities, and near-total fixes routinely estimate
    slightly above 1.  Set ``max_responsibility=float("inf")`` to disable.

    ``exclude_features_only`` drops candidates whose predicates mention
    *only* the given features.  The explainer passes the protected attribute
    here: a pattern like ``gender = Female`` alone is vacuous as a fairness
    explanation ("the protected group is responsible for the disparity") —
    the paper's result tables never contain one, while the attribute freely
    appears *combined* with other predicates.

    Returns the selected candidates, best first.  Callers that report the
    filtering time (Table 7 tracks it apart from search time) read it off
    the span they open around this call; the call adds to that span
    ``pool`` (rows inside the window and not protected-only) and
    ``visited`` (rows the containment loop read).
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < containment_threshold <= 1.0:
        raise ValueError(
            f"containment_threshold must be in (0, 1], got {containment_threshold}"
        )
    if max_responsibility <= 0:
        raise ValueError(f"max_responsibility must be positive, got {max_responsibility}")
    if not isinstance(candidates, CandidateResult):
        candidates = CandidateResult.of_stats(list(candidates))
    from repro.mining.bitset import popcount  # repro.mining imports this package

    responsibilities = candidates.responsibilities
    window = responsibilities <= max_responsibility
    if require_positive_responsibility:
        window &= responsibilities > 0.0
    if exclude_features_only:
        predicates = candidates.index.predicates
        # A trailing True answers the −1 padding of shorter rows.
        inside = np.array([p.feature in exclude_features_only for p in predicates] + [True])
        window &= ~inside[candidates.rows].all(axis=1)
    pool = np.flatnonzero(window)
    supports = candidates.supports[pool]
    interest = np.zeros(pool.size)
    np.divide(responsibilities[pool], supports, out=interest, where=supports > 0)
    ranks = np.append(candidates.index.ranks, -1)[candidates.rows[pool]]
    order = pool[np.lexsort((*ranks.T[::-1], -interest))]

    packed = candidates.packed
    chosen: list[int] = []
    visited = 0
    for i in order:
        visited += 1
        row = packed[i]
        if chosen:
            size = popcount(row)
            if size == 0:
                raise ValueError("containment is undefined for an empty pattern")
            if np.any(popcount(packed[chosen] & row) / size > containment_threshold):
                continue
        chosen.append(int(i))
        if len(chosen) == k:
            break
    trace.add("pool", int(pool.size))
    trace.add("visited", visited)
    return [candidates.stats(i) for i in chosen]
