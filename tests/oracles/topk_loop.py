"""Algorithm 2 over a list of objects: the reference for ``select_top_k``.

This is the selection :func:`repro.patterns.topk.select_top_k` ran before
it moved to columns: filter a list of
:class:`~repro.patterns.lattice.PatternStats` by the root-cause window and
the protected-only rule, sort it by ``(-interestingness, sort key)``
with Python's stable sort, and test containment on unpacked boolean masks
with :func:`repro.patterns.containment.containment`.
"""

from __future__ import annotations

import numpy as np

from repro.patterns.containment import containment
from repro.patterns.lattice import CandidateResult, PatternStats


def select_top_k(
    candidates: list[PatternStats] | CandidateResult,
    k: int,
    containment_threshold: float = 0.75,
    require_positive_responsibility: bool = True,
    exclude_features_only: set[str] | None = None,
    max_responsibility: float = 1.25,
) -> list[PatternStats]:
    """The list loop; same arguments, answers and errors as the column form."""
    if isinstance(candidates, CandidateResult):
        candidates = candidates.candidates
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if not 0.0 < containment_threshold <= 1.0:
        raise ValueError(
            f"containment_threshold must be in (0, 1], got {containment_threshold}"
        )
    if max_responsibility <= 0:
        raise ValueError(f"max_responsibility must be positive, got {max_responsibility}")
    pool = [
        c
        for c in candidates
        if (not require_positive_responsibility or c.responsibility > 0.0)
        and c.responsibility <= max_responsibility
    ]
    if exclude_features_only:
        pool = [c for c in pool if not c.pattern.features() <= exclude_features_only]
    ordered = sorted(pool, key=lambda c: (-c.interestingness, c.pattern.sort_key()))
    selected: list[PatternStats] = []
    selected_masks: list[np.ndarray] = []
    for candidate in ordered:
        mask = candidate.mask()
        if any(
            containment(mask, other) > containment_threshold for other in selected_masks
        ):
            continue
        selected.append(candidate)
        selected_masks.append(mask)
        if len(selected) == k:
            break
    return selected
