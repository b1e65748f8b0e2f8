"""Algorithm 1 — lattice-based candidate generation with pruning.

The search climbs the pattern lattice level by level: level ``i`` patterns
(i predicates) are built by merging two level ``i−1`` patterns that differ in
exactly one predicate, exactly as in frequent-itemset mining.  Two heuristics
prune the exponential space (paper §4.2):

1. **support** — candidates at or below the threshold τ are dropped, and
   anti-monotonicity means the whole sub-lattice above them dies with them;
2. **responsibility** — a merged pattern survives only if its (estimated)
   causal responsibility strictly exceeds its parents', which guarantees its
   interestingness also exceeds theirs and keeps longer patterns only when
   the extra predicate pays for itself.  A parent only constrains the merge
   when it is itself a plausible *root cause* (Definition 3.1: removal
   reduces the bias without overshooting it past zero, 0 < R ≤ cap) —
   influence estimates for very large subsets routinely overshoot far past
   R = 1, and letting such junk estimates veto every refinement would cut
   off exactly the coherent subgroups the search exists to find.

Each level's gather runs on arrays.  A level stores its patterns as rows
of predicate ids — the level-1 predicates numbered in canonical sort
order, so an ascending row is the pattern's canonical form — next to their
masks packed to ``ceil(n/8)`` bytes (:class:`LevelState`).  Pairs are
enumerated by bucketing every pattern under each of its one-shorter
sub-rows: two patterns share a bucket iff they differ in exactly one
predicate, so the enumeration is complete without an all-pairs scan.
Buckets are visited in order of first appearance and pairs within a bucket
in row order.  That order is part of the answer: a candidate reachable
through several parent pairs is evaluated once, against the first pair
that produces it, and that pair's parents set its responsibility bar.
Only the two predicates the parents do not share can conflict, so
satisfiability is one lookup in a K×K conflict table; support is an AND of
packed rows plus a popcount.  The result is columns too: each level hands
its in-result rows, packed masks and scores to :class:`CandidateResult`,
and no :class:`Pattern` or :class:`PatternStats` is built during the
search.  Algorithm 2 (:func:`repro.patterns.topk.select_top_k`) builds
them for the k rows it selects; :attr:`CandidateResult.candidates` builds
the whole list once, on first read.

Influence queries are *batched*: each level first gathers every merge that
survives the structural checks (dedup, satisfiability, support), then hands
the estimator their packed masks, unchanged, in one ``score_batch`` call
per ``batch_size`` chunk — one BLAS-level pass per lattice level instead of
thousands of tiny per-candidate queries (see the cost model in
``repro.influence.estimators``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table

if TYPE_CHECKING:  # repro.influence imports repro.mining.bitset
    from repro.influence.estimators import InfluenceEstimator

# Bytes of packed pair masks ANDed at a time during a level's gather.
_GATHER_BYTES = 1 << 22


@dataclass
class PatternStats:
    """A candidate explanation with its search-time statistics."""

    pattern: Pattern
    support: float
    size: int
    responsibility: float
    bias_change: float
    _packed_mask: np.ndarray = field(repr=False)
    _num_rows: int = field(repr=False)

    @property
    def interestingness(self) -> float:
        """U(φ) = R(φ) / Sup(φ) (Def. 3.5)."""
        return self.responsibility / self.support if self.support > 0 else 0.0

    def mask(self) -> np.ndarray:
        """The boolean row mask of D(φ) (unpacked on demand)."""
        from repro.mining.bitset import unpack_rows  # repro.mining imports this module

        return unpack_rows(self._packed_mask, self._num_rows)

    def describe(self) -> str:
        return (
            f"{self.pattern}  [sup={self.support:.2%}, "
            f"R={self.responsibility:.2%}, U={self.interestingness:.3f}]"
        )


@dataclass
class LatticeLevelStats:
    """Per-level accounting reported in the paper's Table 7.

    ``seconds`` is the level's ``lattice.level`` span (the miner reports
    each depth's share of its ``mining.batch`` spans instead).
    """

    level: int
    num_candidates: int
    num_merges_tried: int
    seconds: float


@dataclass
class LatticeRecord:
    """Replay state of a depth-≤2 search, for incremental re-audits.

    When the search runs over a shared alphabet with ``max_predicates <= 2``
    its candidate space is a pure function of the level-1 entry list: the
    level-2 pair enumeration, dedup, and satisfiability checks never look at
    the data, only the support filter and the scores do.  Recording, per
    evaluated level-2 merge, the entry indices of its parents plus its
    extent size, score, and filter outcome therefore captures everything an
    incremental re-certification (:meth:`repro.core.AuditSession.delta_audit`)
    needs to replay the search against patched masks without re-running the
    merge loop.  All ``pair_*`` arrays are parallel, in the search's
    deterministic enumeration order.

    ``pair_known`` mirrors the parent-reuse short-circuit (0 = evaluated,
    1/2 = extent collapsed onto the left/right parent, whose evaluation was
    reused verbatim); a replayed record writes −1 for a pair the replay
    did not re-score, whose stored score is therefore stale and must not
    seed the next replay; ``pair_in_result`` marks merges that survived the
    responsibility bar and the minimum-responsibility filter into
    ``candidates``.  Searches deeper than two levels do not record — their
    level-3+ frontier depends on scores and cannot be replayed structurally.
    """

    num_entries: int
    level1_responsibilities: np.ndarray
    level1_bias_changes: np.ndarray
    pair_left: np.ndarray
    pair_right: np.ndarray
    pair_sizes: np.ndarray
    pair_known: np.ndarray
    pair_responsibilities: np.ndarray
    pair_bias_changes: np.ndarray
    pair_in_result: np.ndarray


@dataclass(frozen=True)
class PredicateIndex:
    """Predicates numbered in canonical (sort-key) order.

    An ascending row of ids is therefore a pattern's canonical predicate
    order.  ``ranks[i]`` is id i's sort-key rank: ids whose predicates
    differ but print alike (equal sort keys) share a rank, so comparing
    ``ranks`` rows compares the patterns' sort keys.  ``conflicts[a, b]``
    is True when predicates a and b cannot both hold
    (:meth:`Predicate.conflicts_with`, asked of the earlier one, as
    :meth:`Pattern.is_satisfiable` does); only the lattice's merge reads
    it, so it is built on first read.
    """

    predicates: list[Predicate]
    ranks: np.ndarray

    @classmethod
    def of(cls, predicates: list[Predicate]) -> tuple["PredicateIndex", np.ndarray]:
        """The index over ``predicates`` and each one's id (equal ones share)."""
        keyed = sorted(((p.sort_key(), p) for p in set(predicates)), key=lambda kp: kp[0])
        ordered = [predicate for _, predicate in keyed]
        ranks = np.zeros(len(keyed), dtype=np.int64)
        for i in range(1, len(keyed)):
            ranks[i] = ranks[i - 1] + (keyed[i][0] != keyed[i - 1][0])
        ids = {predicate: i for i, predicate in enumerate(ordered)}
        return cls(ordered, ranks), np.array([ids[p] for p in predicates], dtype=np.int64)

    def pattern(self, row) -> Pattern:
        """The pattern of an ascending id row (−1 padding skipped)."""
        return Pattern([self.predicates[k] for k in row if k >= 0])

    @cached_property
    def conflicts(self) -> np.ndarray:
        ordered = self.predicates
        conflicts = np.zeros((len(ordered), len(ordered)), dtype=bool)
        for a, first in enumerate(ordered):
            # Sort keys lead with the feature, so a feature's predicates are
            # contiguous and only they can conflict.
            for b in range(a + 1, len(ordered)):
                if ordered[b].feature != first.feature:
                    break
                conflicts[a, b] = conflicts[b, a] = first.conflicts_with(ordered[b])
        return conflicts


@dataclass
class LevelState:
    """Patterns as row-aligned arrays: one lattice level, or a result block."""

    rows: np.ndarray  # (N, level) ascending predicate ids
    packed: np.ndarray  # (N, ceil(n/8)) packed row masks
    sizes: np.ndarray  # (N,) covered-row counts
    responsibilities: np.ndarray
    bias_changes: np.ndarray

    def take(self, keep: np.ndarray) -> "LevelState":
        """The rows ``keep`` selects, in order (copies)."""
        return LevelState(
            self.rows[keep],
            self.packed[keep],
            self.sizes[keep],
            self.responsibilities[keep],
            self.bias_changes[keep],
        )


@dataclass
class CandidateResult:
    """Scored candidates plus per-level accounting, from either engine.

    :func:`compute_candidates`, the closed-pattern miner
    (:func:`repro.mining.closed.mine_closed_candidates`) and the delta
    replay all return this.  The candidates are columns, one row each in
    candidate order:

    * ``rows`` — each pattern's ascending ids into ``index.predicates``,
      padded on the right with −1, so ``index.ranks`` over a row (−1 kept)
      sorts a prefix first, as pattern sort keys do;
    * ``packed`` — the row masks packed to ``ceil(num_rows/8)`` bytes;
    * ``sizes``, ``supports``, ``responsibilities``, ``bias_changes``.

    Algorithm 2 (:func:`repro.patterns.topk.select_top_k`) reads the
    columns and builds a :class:`PatternStats` only for each row it
    selects (:meth:`stats`).  :attr:`candidates` builds the whole list
    once, on first read; :attr:`num_candidates` is the row count.

    ``num_evaluated`` counts the influence evaluations actually issued —
    merges that reuse a parent's evaluation (collapsed row sets) are
    excluded — which is how the miner's candidate-space reduction (one
    evaluation per distinct extent) is measured.  ``levels`` reports
    per-level (lattice) or per-depth (miner) search statistics in the
    shape of the paper's Table 7.  ``record`` is the replay state of a
    depth-≤2 lattice search (None otherwise).
    """

    index: PredicateIndex
    rows: np.ndarray
    packed: np.ndarray
    num_rows: int
    sizes: np.ndarray
    supports: np.ndarray
    responsibilities: np.ndarray
    bias_changes: np.ndarray
    levels: list[LatticeLevelStats]
    num_evaluated: int = 0
    record: LatticeRecord | None = None
    _built: list[PatternStats] | None = field(default=None, repr=False, compare=False)

    @classmethod
    def of_blocks(
        cls,
        index: PredicateIndex,
        blocks: list[LevelState],
        num_rows: int,
        levels: list[LatticeLevelStats],
        num_evaluated: int = 0,
        record: LatticeRecord | None = None,
    ) -> "CandidateResult":
        """Stack result blocks (each an id-row width) into one column set.

        A single block's arrays are taken as they are, not copied."""

        def join(parts: list[np.ndarray]) -> np.ndarray:
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        sizes = join([block.sizes for block in blocks]).astype(np.int64, copy=False)
        rows = np.full((len(sizes), max(b.rows.shape[1] for b in blocks)), -1, dtype=np.int64)
        start = 0
        for block in blocks:
            rows[start : start + len(block.rows), : block.rows.shape[1]] = block.rows
            start += len(block.rows)
        return cls(
            index=index,
            rows=rows,
            packed=join([block.packed for block in blocks]),
            num_rows=num_rows,
            sizes=sizes,
            supports=sizes / num_rows,
            responsibilities=join([b.responsibilities for b in blocks]),
            bias_changes=join([b.bias_changes for b in blocks]),
            levels=levels,
            num_evaluated=num_evaluated,
            record=record,
        )

    @classmethod
    def of_stats(
        cls,
        candidates: list[PatternStats],
        levels: list[LatticeLevelStats] | None = None,
    ) -> "CandidateResult":
        """Columns over a built candidate list, in list order; the list is
        kept, so :meth:`stats` hands back its own objects."""
        index, _ = PredicateIndex.of([p for c in candidates for p in c.pattern.predicates])
        ids = {predicate: i for i, predicate in enumerate(index.predicates)}
        width = max((len(c.pattern) for c in candidates), default=1)
        rows = np.full((len(candidates), width), -1, dtype=np.int64)
        for r, candidate in enumerate(candidates):
            row = sorted(ids[p] for p in candidate.pattern.predicates)
            rows[r, : len(row)] = row
        block = LevelState(
            rows,
            np.stack([c._packed_mask for c in candidates])
            if candidates
            else np.zeros((0, 0), dtype=np.uint8),
            np.array([c.size for c in candidates], dtype=np.int64),
            np.array([c.responsibility for c in candidates], dtype=float),
            np.array([c.bias_change for c in candidates], dtype=float),
        )
        num_rows = candidates[0]._num_rows if candidates else 0
        result = cls.of_blocks(index, [block], num_rows, levels or [])
        result.supports = np.array([c.support for c in candidates], dtype=float)
        result._built = list(candidates)
        return result

    @property
    def num_candidates(self) -> int:
        return len(self.sizes)

    @property
    def candidates(self) -> list[PatternStats]:
        """Every candidate as a :class:`PatternStats`, built on first read.

        Two threads reading it first at once may both build it; the lists
        are equal and one of them is kept."""
        if self._built is None:
            self._built = [
                self._make(i, row) for i, row in enumerate(self.rows.tolist())
            ]
        return self._built

    def stats(self, i: int) -> PatternStats:
        """Candidate row ``i`` (the built list's object once it exists)."""
        if self._built is not None:
            return self._built[i]
        return self._make(i, self.rows[i].tolist())

    def _make(self, i: int, row: list[int]) -> PatternStats:
        return PatternStats(
            pattern=self.index.pattern(row),
            support=float(self.supports[i]),
            size=int(self.sizes[i]),
            responsibility=float(self.responsibilities[i]),
            bias_change=float(self.bias_changes[i]),
            _packed_mask=self.packed[i],
            _num_rows=self.num_rows,
        )


@dataclass
class LevelMerges:
    """A level's merges that pass dedup, satisfiability and support, in pair order."""

    left: np.ndarray  # parent indices into the LevelState
    right: np.ndarray
    rows: np.ndarray  # (m, level + 1) merged predicate ids
    packed: np.ndarray
    sizes: np.ndarray
    known: np.ndarray  # 0 = evaluate; 1/2 = extent collapsed onto the left/right parent
    bars: np.ndarray  # the responsibility each merge must strictly exceed
    tried: int  # pairs enumerated: the level's num_merges_tried


def merge_pairs(
    rows: np.ndarray, conflicts: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, int]:
    """Structural merges of one level: ``(left, right, merged rows, pairs tried)``.

    ``rows`` holds the level's patterns as ascending id rows.  Every pair
    differing in exactly one id is tried, in bucket order (see the module
    docstring).  A pair survives when its merge is one id longer than its
    parents, no earlier pair produced the same merge, and its two unshared
    predicates do not conflict.
    """
    num, size = rows.shape
    # Element e = (pattern e // size, dropped column e % size); its key is
    # the pattern's row without that column.
    keys = np.stack([np.delete(rows, d, axis=1) for d in range(size)], axis=1)
    keys = keys.reshape(num * size, size - 1)
    if size == 1:
        bucket = np.zeros(num, dtype=np.int64)  # every pair shares the empty key
    else:
        _, first, inverse = np.unique(_row_codes(keys), return_index=True, return_inverse=True)
        rank = np.empty(first.size, dtype=np.int64)
        rank[np.argsort(first)] = np.arange(first.size)
        bucket = rank[inverse.reshape(-1)]
    order = np.argsort(bucket, kind="stable")
    counts = np.bincount(bucket)
    local = np.arange(order.size) - np.repeat(np.cumsum(counts) - counts, counts)
    later = np.repeat(counts, counts) - 1 - local  # partners after each element
    left_at = np.repeat(np.arange(order.size), later)
    right_at = left_at + 1 + np.arange(left_at.size) - np.repeat(np.cumsum(later) - later, later)
    left, right = order[left_at], order[right_at]
    tried = left.size
    # Each side's unshared predicate is the id its element dropped.
    x_left, x_right = rows.reshape(-1)[left], rows.reshape(-1)[right]
    grown = x_left != x_right
    left, right, x_left, x_right = left[grown], right[grown], x_left[grown], x_right[grown]
    merged = np.sort(np.column_stack([keys[left], x_left, x_right]), axis=1)
    fresh = np.zeros(left.size, dtype=bool)
    fresh[np.unique(_row_codes(merged), return_index=True)[1]] = True
    keep = fresh & ~conflicts[x_left, x_right]
    return left[keep] // size, right[keep] // size, merged[keep], tried


def _row_codes(rows: np.ndarray) -> np.ndarray:
    """One integer per row of non-negative ids, equal iff the rows are.

    ``np.unique`` over these is ``np.unique(rows, axis=0)`` without its slow
    structured-dtype sort.  Each column folds into the running code, which
    is then re-ranked below the row count, so no width overflows.
    """
    codes = np.zeros(len(rows), dtype=np.int64)
    for column in rows.T:
        codes = codes * (int(column.max(initial=0)) + 1) + column
        codes = np.unique(codes, return_inverse=True)[1].reshape(-1)
    return codes


def gather_level(
    level: LevelState,
    index: PredicateIndex,
    num_rows: int,
    support_threshold: float,
    max_responsibility: float,
) -> LevelMerges:
    """The next level's merges that pass the structural checks and support.

    Masks are ANDed ``_GATHER_BYTES`` of packed pairs at a time and only
    supported merges keep theirs.  A merge whose extent equals a parent's
    (``known`` 1 or 2) reuses that parent's evaluation downstream.
    """
    from repro.mining.bitset import popcount  # repro.mining imports this module

    left, right, rows, tried = merge_pairs(level.rows, index.conflicts)
    step = max(1, _GATHER_BYTES // max(level.packed.shape[1], 1))
    kept = [np.zeros(0, dtype=np.int64)]
    packed = [level.packed[:0]]
    sizes = [np.zeros(0, dtype=np.int64)]
    for start in range(0, left.size, step):
        block = level.packed[left[start : start + step]]
        block &= level.packed[right[start : start + step]]
        counts = popcount(block)
        supported = counts / num_rows > support_threshold
        kept.append(start + np.flatnonzero(supported))
        packed.append(block[supported])
        sizes.append(counts[supported])
    kept = np.concatenate(kept)
    left, right, sizes = left[kept], right[kept], np.concatenate(sizes)
    # mask ⊆ each parent's, so an equal size means an equal row set.
    known = np.where(
        sizes == level.sizes[left], 1, np.where(sizes == level.sizes[right], 2, 0)
    ).astype(np.int8)
    return LevelMerges(
        left=left,
        right=right,
        rows=rows[kept],
        packed=np.concatenate(packed),
        sizes=sizes,
        known=known,
        bars=np.maximum(
            _root_cause(level.responsibilities[left], max_responsibility),
            _root_cause(level.responsibilities[right], max_responsibility),
        ),
        tried=tried,
    )


def _parent_bar(resp_a: float, resp_b: float, cap: float) -> float:
    """The responsibility a merged child must strictly exceed.

    Only parents inside the root-cause window (0, cap] count; children of
    two out-of-window parents face no responsibility bar (support pruning
    still applies).  :func:`gather_level` applies the same rule to whole
    arrays through :func:`_root_cause`.
    """
    valid = [r for r in (resp_a, resp_b) if 0.0 < r <= cap]
    return max(valid) if valid else -np.inf


def _root_cause(responsibilities: np.ndarray, cap: float) -> np.ndarray:
    """Responsibilities inside the root-cause window (0, cap]; −inf outside."""
    inside = (responsibilities > 0.0) & (responsibilities <= cap)
    return np.where(inside, responsibilities, -np.inf)


def compute_candidates(
    table: Table,
    estimator: InfluenceEstimator,
    support_threshold: float = 0.05,
    max_predicates: int = 3,
    num_bins: int = 4,
    exclude_features: set[str] | None = None,
    prune_by_responsibility: bool = True,
    min_responsibility: float = 0.0,
    max_responsibility: float = 1.25,
    batch_size: int = 1024,
    alphabet=None,
) -> CandidateResult:
    """Run Algorithm 1 over ``table`` and return all surviving candidates.

    Parameters
    ----------
    table:
        The *training* feature table the patterns quantify over.
    estimator:
        Influence estimator bound to the model trained on this table; its
        ``responsibility`` drives both pruning and ranking.
    support_threshold:
        τ — patterns must cover strictly more than this fraction of rows;
        a candidate whose support equals τ exactly is dropped, at every
        level of the lattice.
    max_predicates:
        Lattice depth cap (the "level" axis of Table 7).
    num_bins:
        Quantile bins per numeric feature for level-1 thresholds.
    exclude_features:
        Features never used in predicates (e.g. identifiers).
    prune_by_responsibility:
        Toggle for heuristic 2 — exposed so the ablation bench can measure
        how much of the space it removes.
    min_responsibility:
        Candidates below this responsibility are kept out of the *result*
        (but still allowed to merge upward), letting callers drop
        bias-increasing patterns early.
    max_responsibility:
        Root-cause cap for the pruning comparison: parents whose estimated
        responsibility falls outside (0, max_responsibility] do not veto
        their children (see the module docstring).
    batch_size:
        Maximum candidates per batched influence call; bounds each call's
        Δθ matrix.
    alphabet:
        A pre-built level-1 :class:`repro.mining.alphabet.PredicateAlphabet`
        for *this* table and *these* generation parameters, letting many
        searches (different metrics, groups, estimators) share one
        predicate/mask build; level 1 is its packed
        :meth:`~repro.mining.alphabet.PredicateAlphabet.entry_matrix`.
        ``None`` builds a throwaway alphabet for this call; an alphabet
        built for another τ, bin count, exclusion set or row count raises
        ``ValueError`` naming the field.
    """
    if max_predicates < 1:
        raise ValueError(f"max_predicates must be >= 1, got {max_predicates}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    num_rows = table.num_rows
    if num_rows != estimator.num_train:
        raise ValueError(
            f"table rows ({num_rows}) must match estimator training rows "
            f"({estimator.num_train}); patterns quantify over the training data"
        )
    estimator.nonzero_baseline()  # an unbiased model has nothing to explain

    levels: list[LatticeLevelStats] = []
    blocks: list[LevelState] = []  # each level's in-result rows

    # --- level 1 ---------------------------------------------------------
    with trace.span("lattice.level", level=1) as level_span:
        # repro.mining imports this module.
        from repro.mining.alphabet import search_alphabet
        from repro.mining.bitset import popcount

        alphabet = search_alphabet(
            table, alphabet, support_threshold, num_bins, exclude_features
        )
        # Full-coverage predicates (which would "remove the entire data")
        # are already filtered out of the alphabet's entries.
        entries = alphabet.entries
        predicates = [predicate for predicate, _ in entries]
        index, ids = PredicateIndex.of(predicates)
        packed = alphabet.entry_matrix()
        responsibilities, bias_changes = _evaluate_all(estimator, packed, num_rows, batch_size)
        num_evaluated = len(entries)
        current = LevelState(ids[:, None], packed, popcount(packed), responsibilities, bias_changes)
        blocks.append(current.take(responsibilities >= min_responsibility))
        level_span.set(candidates=len(entries), evaluated=len(entries))
    levels.append(
        LatticeLevelStats(1, len(entries), alphabet.num_generated, level_span.seconds)
    )

    # Depth-2 searches are structurally replayable under data edits; record
    # the per-merge state the incremental re-audit needs (see LatticeRecord).
    recording = max_predicates <= 2
    pairs = dict(
        pair_left=np.zeros(0, dtype=np.int64),
        pair_right=np.zeros(0, dtype=np.int64),
        pair_sizes=np.zeros(0, dtype=np.int64),
        pair_known=np.zeros(0, dtype=np.int8),
        pair_responsibilities=np.zeros(0),
        pair_bias_changes=np.zeros(0),
        pair_in_result=np.zeros(0, dtype=bool),
    )

    # --- levels 2..max ----------------------------------------------------
    level = 2
    while len(current.rows) and level <= max_predicates:
        with trace.span("lattice.level", level=level) as level_span:
            # Gather phase: structural pruning only (dedup, satisfiability,
            # support).  Influence is deferred so the whole level is one batch.
            with trace.span("lattice.gather"):
                merges = gather_level(
                    current, index, num_rows, support_threshold, max_responsibility
                )

            # Evaluate phase: one batched influence query per chunk.  A merge
            # whose row set collapses onto one parent's (a redundant
            # predicate) has *exactly* that parent's responsibility, so the
            # parent's evaluation is reused — the influence query would only
            # reproduce it up to floating-point noise, and the strict pruning
            # comparison must not hinge on that noise.
            fresh = merges.known == 0
            resp = np.empty(len(merges.sizes))
            dbias = np.empty(len(merges.sizes))
            resp[fresh], dbias[fresh] = _evaluate_all(
                estimator, merges.packed[fresh], num_rows, batch_size
            )
            num_evaluated += int(fresh.sum())
            for code, parents in ((1, merges.left), (2, merges.right)):
                collapsed = merges.known == code
                resp[collapsed] = current.responsibilities[parents[collapsed]]
                dbias[collapsed] = current.bias_changes[parents[collapsed]]

            # Prune phase: heuristic 2 against the recorded parent bars.
            with trace.span("lattice.prune"):
                survive = (
                    ~(resp <= merges.bars)
                    if prune_by_responsibility
                    else np.ones(len(resp), dtype=bool)
                )
                in_result = survive & (resp >= min_responsibility)
                scored = LevelState(merges.rows, merges.packed, merges.sizes, resp, dbias)
                current = scored.take(survive)
                blocks.append(scored.take(in_result))
                if recording:
                    pairs.update(
                        pair_left=merges.left,
                        pair_right=merges.right,
                        pair_sizes=merges.sizes,
                        pair_known=merges.known,
                        pair_responsibilities=resp,
                        pair_bias_changes=dbias,
                        pair_in_result=in_result,
                    )

            level_span.set(
                candidates=len(current.rows), merges=merges.tried, evaluated=int(fresh.sum())
            )
        levels.append(
            LatticeLevelStats(level, len(current.rows), merges.tried, level_span.seconds)
        )
        level += 1

    record = None
    if recording:
        record = LatticeRecord(
            num_entries=len(entries),
            level1_responsibilities=np.asarray(responsibilities, dtype=np.float64),
            level1_bias_changes=np.asarray(bias_changes, dtype=np.float64),
            **pairs,
        )
    return CandidateResult.of_blocks(index, blocks, num_rows, levels, num_evaluated, record)


# ----------------------------------------------------------------------
def _evaluate_all(
    estimator: InfluenceEstimator,
    packed: np.ndarray,
    num_rows: int,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and bias changes for a level's packed candidate masks.

    The packed rows go to the estimator as they are, one ``score_batch``
    per ``batch_size`` rows; the arrays returned are aligned with ``packed``.
    """
    if not len(packed):
        empty = np.zeros(0)
        return empty, empty
    scores = [
        estimator.score_batch(packed[start : start + batch_size], num_rows=num_rows)
        for start in range(0, len(packed), batch_size)
    ]
    return np.concatenate([r for r, _ in scores]), np.concatenate([b for _, b in scores])

