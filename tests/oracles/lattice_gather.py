"""The per-merge lattice level: the reference for ``merge_pairs`` and
``gather_level``.

This is the level step the lattice ran before it moved to arrays: every
mergeable pair of :class:`Pattern` objects from :func:`_mergeable_pairs`,
merged with :meth:`Pattern.merge`, deduplicated with a ``seen`` set and
checked with :meth:`Pattern.is_satisfiable` (:func:`merges_of`), then each
merge's boolean masks ANDed and summed (:func:`gather_level`).  The
oracle's :func:`gather_level` takes and returns the same types as
:func:`repro.patterns.lattice.gather_level`, so tests can run both on the
pairs one level hands them, or swap this one into a whole search.  Heuristic
2 and the result filter are not here: both engines and the delta replay
share them in :func:`repro.patterns.lattice.score_level`.
"""

from __future__ import annotations

import numpy as np

from repro.patterns.lattice import LevelMerges, LevelState
from repro.patterns.pattern import Pattern


def _mergeable_pairs(patterns: list[tuple]):
    """Yield index pairs of patterns differing in exactly one predicate.

    ``patterns`` is a list of tuples whose first element is the
    :class:`Pattern`; the remaining elements (masks, statistics) are
    ignored here.  Each pattern is filed under every (size−1)-subset of its
    predicates; two patterns land in the same bucket iff they share that
    subset, i.e. differ in exactly one predicate.  For level 1 every pair
    qualifies (the shared subset is empty).
    """
    if not patterns:
        return
    size = len(patterns[0][0])
    if size == 1:
        for i in range(len(patterns)):
            for j in range(i + 1, len(patterns)):
                yield i, j
        return
    buckets: dict[tuple, list[int]] = {}
    for idx, entry in enumerate(patterns):
        preds = entry[0].predicates
        for drop in range(len(preds)):
            key = tuple(
                p.sort_key() for k, p in enumerate(preds) if k != drop
            )
            buckets.setdefault(key, []).append(idx)
    emitted: set[tuple[int, int]] = set()
    for members in buckets.values():
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                pair = (members[a], members[b])
                if pair not in emitted:
                    emitted.add(pair)
                    yield pair


def merges_of(patterns: list[Pattern]) -> tuple[list[tuple[int, int, Pattern]], int]:
    """One level's structural merges, one pair at a time.

    ``(i, j, merged)`` for every mergeable pair, in :func:`_mergeable_pairs`
    order, whose merge is one predicate longer, not produced by an earlier
    pair, and satisfiable; plus the number of pairs tried.
    """
    out: list[tuple[int, int, Pattern]] = []
    seen: set[Pattern] = set()
    tried = 0
    for i, j in _mergeable_pairs([(pattern,) for pattern in patterns]):
        tried += 1
        merged = patterns[i].merge(patterns[j])
        if len(merged) != len(patterns[i]) + 1 or merged in seen:
            continue
        seen.add(merged)
        if merged.is_satisfiable():
            out.append((i, j, merged))
    return out, tried


def gather_level(
    level: LevelState,
    left: np.ndarray,
    right: np.ndarray,
    rows: np.ndarray,
    num_rows: int,
    support_threshold: float,
) -> LevelMerges:
    """The supported merges among the handed pairs, one merge at a time."""
    masks = [np.unpackbits(packed, count=num_rows).astype(bool) for packed in level.packed]
    out = []
    for position, (i, j) in enumerate(zip(left.tolist(), right.tolist())):
        mask = masks[i] & masks[j]
        size = int(mask.sum())
        if size / num_rows <= support_threshold:
            continue
        known = 1 if size == masks[i].sum() else 2 if size == masks[j].sum() else 0
        out.append((position, i, j, rows[position], np.packbits(mask), size, known))
    return LevelMerges(
        positions=np.array([r[0] for r in out], dtype=np.int64),
        left=np.array([r[1] for r in out], dtype=np.int64),
        right=np.array([r[2] for r in out], dtype=np.int64),
        rows=np.array([r[3] for r in out], dtype=np.int64).reshape(len(out), rows.shape[1]),
        packed=np.array([r[4] for r in out], dtype=np.uint8).reshape(
            len(out), level.packed.shape[1]
        ),
        sizes=np.array([r[5] for r in out], dtype=np.int64),
        known=np.array([r[6] for r in out], dtype=np.int8),
    )
