"""The per-merge lattice gather: the reference for ``gather_level``.

This is the level gather the lattice ran before it moved to arrays: every
mergeable pair of :class:`Pattern` objects from :func:`_mergeable_pairs`,
merged with :meth:`Pattern.merge`, deduplicated with a ``seen`` set,
checked with :meth:`Pattern.is_satisfiable`, and its boolean masks ANDed
and summed.  :func:`gather_level` takes and returns the same types as
:func:`repro.patterns.lattice.gather_level`, so tests can run both on one
level, or swap this one into a whole search.
"""

from __future__ import annotations

import numpy as np

from repro.patterns.lattice import LevelMerges, LevelState, PredicateIndex, _parent_bar
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


def gather_level(
    level: LevelState,
    index: PredicateIndex,
    num_rows: int,
    support_threshold: float,
    max_responsibility: float,
) -> LevelMerges:
    """One level's gather, one merge at a time."""
    ids = {predicate: i for i, predicate in enumerate(index.predicates)}
    current = [
        (
            index.pattern(row),
            np.unpackbits(packed, count=num_rows).astype(bool),
            int(size),
            resp,
        )
        for row, packed, size, resp in zip(
            level.rows, level.packed, level.sizes, level.responsibilities
        )
    ]
    out = []
    merges_tried = 0
    seen: set[Pattern] = set()
    target = level.rows.shape[1] + 1
    for i_a, i_b in _mergeable_pairs(current):
        pattern_a, mask_a, size_a, resp_a = current[i_a]
        pattern_b, mask_b, size_b, resp_b = current[i_b]
        merges_tried += 1
        merged = pattern_a.merge(pattern_b)
        if len(merged) != target or merged in seen:
            continue
        seen.add(merged)
        if not merged.is_satisfiable():
            continue
        mask = mask_a & mask_b
        size = int(mask.sum())
        if size / num_rows <= support_threshold:
            continue
        known = 1 if size == size_a else 2 if size == size_b else 0
        bar = _parent_bar(resp_a, resp_b, max_responsibility)
        row = [ids[p] for p in merged.predicates]
        out.append((i_a, i_b, row, np.packbits(mask), size, known, bar))
    width = level.packed.shape[1]
    return LevelMerges(
        left=np.array([r[0] for r in out], dtype=np.int64),
        right=np.array([r[1] for r in out], dtype=np.int64),
        rows=np.array([r[2] for r in out], dtype=np.int64).reshape(len(out), target),
        packed=np.array([r[3] for r in out], dtype=np.uint8).reshape(len(out), width),
        sizes=np.array([r[4] for r in out], dtype=np.int64),
        known=np.array([r[5] for r in out], dtype=np.int8),
        bars=np.array([r[6] for r in out], dtype=np.float64),
        tried=merges_tried,
    )
