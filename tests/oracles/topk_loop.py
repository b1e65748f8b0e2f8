"""Algorithm 2 over a list of objects: the reference for ``select_top_k``.

This is the selection :func:`repro.patterns.topk.select_top_k` ran before
it moved to columns: filter a list of
:class:`~repro.patterns.lattice.PatternStats` by the root-cause window
(0, ``_MAX_RESPONSIBILITY``] and the protected-only rule, sort it by
``(-interestingness, sort key)`` with Python's stable sort, and test
containment (Def. 3.6) on unpacked boolean masks with :func:`containment`.
"""

from __future__ import annotations

import numpy as np

from repro.patterns.lattice import _MAX_RESPONSIBILITY, CandidateResult, PatternStats


def containment(mask_a: np.ndarray, mask_b: np.ndarray) -> float:
    """C(a, b) = |D(a) ∩ D(b)| / |D(a)| — the fraction of a inside b.

    Asymmetric by design: a small pattern fully inside a big one has
    containment 1 while the reverse direction can be small.
    """
    mask_a = np.asarray(mask_a, dtype=bool)
    mask_b = np.asarray(mask_b, dtype=bool)
    if mask_a.shape != mask_b.shape:
        raise ValueError(f"mask shapes differ: {mask_a.shape} vs {mask_b.shape}")
    size_a = int(mask_a.sum())
    if size_a == 0:
        raise ValueError("containment is undefined for an empty pattern")
    return float((mask_a & mask_b).sum() / size_a)


def select_top_k(
    candidates: list[PatternStats] | CandidateResult,
    k: int,
    containment_threshold: float,
    exclude_features_only: set[str] | None = None,
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
    pool = [c for c in candidates if 0.0 < c.responsibility <= _MAX_RESPONSIBILITY]
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
