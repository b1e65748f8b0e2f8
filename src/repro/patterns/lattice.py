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
packed rows plus a popcount.  :class:`Pattern` objects are built only for
candidates that enter the result.

Influence queries are *batched*: each level first gathers every merge that
survives the structural checks (dedup, satisfiability, support), then asks
the estimator for all bias changes in one ``bias_change_batch`` call per
``batch_size`` chunk — one BLAS-level pass per lattice level instead of
thousands of tiny per-candidate queries (see the cost model in
``repro.influence.estimators``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.influence.estimators import InfluenceEstimator
from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table

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
        return np.unpackbits(self._packed_mask, count=self._num_rows).astype(bool)

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


@dataclass
class CandidateResult:
    """Scored candidates plus per-level accounting, from either engine.

    :func:`compute_candidates`, the closed-pattern miner
    (:func:`repro.mining.closed.mine_closed_candidates`) and the delta
    replay all return this.  ``num_evaluated`` counts the influence
    evaluations actually issued — merges that reuse a parent's evaluation
    (collapsed row sets) are excluded — which is how the miner's
    candidate-space reduction (one evaluation per distinct extent) is
    measured.  ``levels`` reports per-level (lattice) or per-depth (miner)
    search statistics in the shape of the paper's Table 7.  ``record`` is
    the replay state of a depth-≤2 lattice search (None otherwise).
    """

    candidates: list[PatternStats]
    levels: list[LatticeLevelStats]
    num_evaluated: int = 0
    record: LatticeRecord | None = None

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)


@dataclass(frozen=True)
class PredicateIndex:
    """The level-1 predicates numbered in canonical (sort-key) order.

    An ascending row of ids is therefore a pattern's canonical predicate
    order.  ``conflicts[a, b]`` is True when predicates a and b cannot both
    hold (:meth:`Predicate.conflicts_with`, asked of the earlier one, as
    :meth:`Pattern.is_satisfiable` does).
    """

    predicates: list[Predicate]
    conflicts: np.ndarray

    @classmethod
    def of(cls, predicates: list[Predicate]) -> tuple["PredicateIndex", np.ndarray]:
        """The index over ``predicates`` and each one's id (equal ones share)."""
        ordered = sorted(set(predicates), key=Predicate.sort_key)
        conflicts = np.zeros((len(ordered), len(ordered)), dtype=bool)
        for a, first in enumerate(ordered):
            # Sort keys lead with the feature, so a feature's predicates are
            # contiguous and only they can conflict.
            for b in range(a + 1, len(ordered)):
                if ordered[b].feature != first.feature:
                    break
                conflicts[a, b] = conflicts[b, a] = first.conflicts_with(ordered[b])
        ids = {predicate: i for i, predicate in enumerate(ordered)}
        return cls(ordered, conflicts), np.array([ids[p] for p in predicates], dtype=np.int64)

    def pattern(self, row: np.ndarray) -> Pattern:
        return Pattern([self.predicates[k] for k in row])


@dataclass
class LevelState:
    """One lattice level's patterns, row-aligned arrays."""

    rows: np.ndarray  # (N, level) ascending predicate ids
    packed: np.ndarray  # (N, ceil(n/8)) packed row masks
    sizes: np.ndarray  # (N,) covered-row counts
    responsibilities: np.ndarray
    bias_changes: np.ndarray


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
        Maximum candidates per batched influence call; bounds the (m, n)
        mask matrix handed to the estimator.
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

    levels: list[LatticeLevelStats] = []
    all_stats: list[PatternStats] = []

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
        for k in np.flatnonzero(responsibilities >= min_responsibility):
            all_stats.append(
                _stats(Pattern([predicates[k]]), current, k, num_rows)
            )
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
                current = LevelState(
                    merges.rows[survive],
                    merges.packed[survive],
                    merges.sizes[survive],
                    resp[survive],
                    dbias[survive],
                )
                scored = LevelState(merges.rows, merges.packed, merges.sizes, resp, dbias)
                for j in np.flatnonzero(in_result):
                    all_stats.append(_stats(index.pattern(merges.rows[j]), scored, j, num_rows))
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
    return CandidateResult(
        candidates=all_stats, levels=levels, num_evaluated=num_evaluated, record=record
    )


# ----------------------------------------------------------------------
def _evaluate_all(
    estimator: InfluenceEstimator,
    packed: np.ndarray,
    num_rows: int,
    batch_size: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and bias changes for a level's packed candidate masks.

    The masks are unpacked into (m, n) matrices of at most ``batch_size``
    rows, one ``bias_change_batch`` per chunk; the arrays returned are
    aligned with ``packed``.
    """
    if not len(packed):
        empty = np.zeros(0)
        return empty, empty
    chunks = [
        estimator.bias_change_batch(
            np.unpackbits(packed[start : start + batch_size], axis=1, count=num_rows).view(bool)
        )
        for start in range(0, len(packed), batch_size)
    ]
    bias_changes = np.concatenate(chunks)
    baseline = estimator.baseline
    if baseline != 0.0:
        responsibilities = -bias_changes / baseline
    else:
        responsibilities = np.zeros_like(bias_changes)
    return responsibilities, bias_changes


def _stats(pattern: Pattern, level: LevelState, j: int, num_rows: int) -> PatternStats:
    size = int(level.sizes[j])
    return PatternStats(
        pattern=pattern,
        support=float(size / num_rows),
        size=size,
        responsibility=level.responsibilities[j],
        bias_change=level.bias_changes[j],
        _packed_mask=level.packed[j].copy(),
        _num_rows=num_rows,
    )
