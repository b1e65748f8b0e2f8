"""Incremental replay of a depth-≤2 lattice search after a data edit.

:meth:`repro.core.AuditSession.delta_audit` answers a re-audit without
re-running Algorithm 1.  The trick is that a ``max_predicates <= 2``
search is *structurally* a pure function of the level-1 entry list: which
pairs merge into which two-predicate patterns, the dedup order, and the
satisfiability checks never look at the data — only the support filter
and the influence scores do.  Given the :class:`~repro.patterns.lattice.
LatticeRecord` of the pre-edit search and the alphabet patched for the
edit, the post-edit search output can therefore be *replayed* through the
lattice's own level-2 step:

1. **structure** — :func:`~repro.patterns.lattice.gather_level` runs over
   the pair skeleton cached on the alphabet (a depth-1 search gathers no
   pairs), so the post-edit support filter and parent-collapse flags are
   the fresh search's, computed from the patched masks.  Pairs the edit
   pushed below the support threshold simply drop out; pairs it pushed
   above are scored from scratch (there is nothing below depth 2 to
   cascade).  The session decides whether a query replays
   (:meth:`~repro.core.AuditSession.delta_audit`): an edit that changes the
   level-1 entry list itself — and with it the skeleton — or a before side
   without a record falls back to a fresh engine search;
2. **scores** — every level-1 entry, every pair that was in the pre-edit
   result, and every pair without a usable pre-edit score (newly passing,
   or freshly un-collapsed from a parent) is re-scored exactly through
   one packed ``score_batch`` against the patched artifacts; the
   lattice's scoring tail (:func:`~repro.patterns.lattice.score_level`)
   then copies collapsed pairs' scores from their parents and applies
   heuristic 2 and the result filter;
3. **selection** — the exactly-scored level-1 entries and in-result pairs
   go to Algorithm 2 as columns (:class:`~repro.patterns.lattice.
   CandidateResult`), which builds objects only for the k rows it
   selects;
4. **boundaries** — pairs that the pre-edit search evaluated but filtered
   out (responsibility below the parent bar, or negative) can only affect
   the *selected top-k* by crossing their filter boundary AND overtaking
   the k-th selected explanation's interestingness.  Each such pair gets a
   drift margin calibrated from everything re-scored exactly in step 2 —
   binned by support, because influence-score drift grows with the
   fraction of data a pattern removes — and is re-scored exactly when
   ``score + margin`` clears both its filter boundary and the k-th
   interestingness; any actual entrant re-runs step 3 over the new
   columns.  Pairs that cannot reach the top-k even with the margin are
   left unscored, marked so in the refreshed record so a chained replay
   scores them exactly.

The margin in step 4 is the one empirical element: a filtered-out pair
whose score moved past its boundary by more than twice the largest drift
observed among its several hundred exactly-re-scored, same-support-band
neighbours could in principle be missed.  Everything the *selection* can
see is exact — the screen only decides which pairs provably cannot reach
it; a fresh :meth:`~repro.core.AuditSession.audit` of the patched session
is the full search, and the equivalence suite fuzzes edit sequences
against it.
"""
from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.mining.alphabet import PredicateAlphabet
from repro.obs import trace
from repro.patterns.lattice import (
    _MAX_RESPONSIBILITY,
    _MIN_RESPONSIBILITY,
    CandidateResult,
    LatticeRecord,
    LevelMerges,
    LevelState,
    PatternStats,
    PredicateIndex,
    gather_level,
    level_one,
    score_level,
)

# Boundary screen: a filtered-out pair is re-scored exactly when its
# pre-edit score plus FACTOR·(binned max observed drift) + FLOOR clears
# its filter boundary and the k-th selected interestingness.  Drift grows
# with support (large-support removals extrapolate more steeply), so the
# calibration envelope is per-support-band, monotone non-decreasing.
_SCREEN_FACTOR = 2.0
_SCREEN_FLOOR = 1e-6
_SCREEN_SUPPORT_EDGES = np.array([0.1, 0.2, 0.4, 0.6, 0.8, 1.0])


@dataclass
class DeltaReplay:
    """The replayed search output for one (metric, estimator) query.

    ``result`` holds the replayed candidates as columns, the evaluations
    issued and the refreshed record a chained replay starts from.
    """

    result: CandidateResult
    selected: list[PatternStats]
    filter_seconds: float


def _batch_scores(estimator, packed: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and bias changes for packed masks, in one span."""
    with trace.span("delta.score", m=int(packed.shape[0])):
        return estimator.score_batch(packed, num_rows=num_rows)


@dataclass
class ReplayGeometry:
    """Metric-independent structural state shared by one edit's replays.

    A function of the patched alphabet (τ included) and the depth alone:
    the index numbering the entries, the unscored level 1, the level-2
    :func:`~repro.patterns.lattice.gather_level` over the alphabet's pair
    skeleton (over no pairs at depth 1), the skeleton's length and the
    alphabet's row count.  One lattice ``delta_audit`` builds it once for
    every query of its grid.
    """

    index: PredicateIndex
    level1: LevelState
    merges: LevelMerges
    num_skeleton: int
    num_rows: int


def replay_geometry(alphabet: PredicateAlphabet, max_predicates: int) -> ReplayGeometry:
    """Build the shared structural state for replays against ``alphabet``."""
    index, level1 = level_one(alphabet)
    no_pairs = (np.zeros(0, dtype=np.int64),) * 2
    left, right = alphabet.pair_skeleton() if max_predicates >= 2 else no_pairs
    ids = level1.rows[:, 0]
    rows = np.sort(np.column_stack([ids[left], ids[right]]), axis=1)
    n = alphabet.num_rows
    merges = gather_level(level1, left, right, rows, n, alphabet.support_threshold)
    return ReplayGeometry(index, level1, merges, len(left), n)


def replay_search(
    record: LatticeRecord,
    geometry: ReplayGeometry,
    estimator,
    config,
    k: int,
    protected_attribute: str,
) -> DeltaReplay:
    """Replay one depth-≤2 lattice search from its pre-edit ``record``.

    ``record`` and ``geometry`` (shared by one edit's queries) must describe
    one level-1 entry list; :meth:`~repro.core.AuditSession.delta_audit`
    replays only then."""
    n = geometry.num_rows
    prune = config.prune_by_responsibility
    merges = geometry.merges

    def recorded(column: np.ndarray, missing) -> np.ndarray:
        """A record column at the post-edit merges (``missing``: unsupported pre-edit)."""
        at_skeleton = np.full(geometry.num_skeleton, missing, dtype=column.dtype)
        at_skeleton[record.pair_positions] = column
        return at_skeleton[merges.positions]

    rec_resp = recorded(record.pair_responsibilities, np.nan)
    rec_known = recorded(record.pair_known, -1)
    rec_in_result = recorded(record.pair_in_result, False)

    # Which pairs need their own exact score now?  Parent-collapsed ones
    # take the re-scored parent's (score_level).  Of the rest, a pair with
    # a usable pre-edit own score is re-scored only if it was in the result
    # (drift calibration + exact output) — filtered-out ones face the
    # boundary screen below.  Pairs with no usable pre-edit score (newly
    # support-passing, or collapsed onto a parent pre-edit) must be scored.
    unknown = merges.known == 0
    has_pre = rec_known == 0
    exact_result = unknown & has_pre & rec_in_result
    score_now = exact_result | (unknown & ~has_pre)

    batch = np.concatenate([geometry.level1.packed, merges.packed[score_now]], axis=0)
    resp_batch, bias_batch = _batch_scores(estimator, batch, n)
    num_entries = len(geometry.level1.rows)
    level1 = replace(
        geometry.level1,
        responsibilities=resp_batch[:num_entries],
        bias_changes=bias_batch[:num_entries],
    )
    resp2, bias2 = np.full((2, len(merges.sizes)), np.nan)
    resp2[score_now] = resp_batch[num_entries:]
    bias2[score_now] = bias_batch[num_entries:]
    # The candidates, as the fresh search orders them: level-1 entries,
    # then the in-result pairs in skeleton order.
    level1_result = level1.take(level1.responsibilities >= _MIN_RESPONSIBILITY)

    def select(scored: LevelState, in_result: np.ndarray):
        result = CandidateResult.of_blocks(
            geometry.index, [level1_result, scored.take(in_result)], n, levels=[]
        )
        with trace.span("delta.filter", k=k) as filter_span:
            chosen = config.top_k(result, k, protected_attribute)
        return result, chosen, filter_span.seconds

    # Phase-1 selection over the exactly-scored pool.
    scored, _, in_result = score_level(level1, merges, resp2, bias2, prune)
    result, selected, filter_seconds = select(scored, in_result)

    # Boundary screen for pairs the pre-edit search evaluated but filtered
    # out.  A support-banded drift envelope, calibrated from everything
    # re-scored exactly above, bounds how far each stale score can have
    # moved; only a pair whose score+margin clears its filter boundary AND
    # the k-th selected interestingness is re-scored, the rest stay unscored.
    supports2 = merges.sizes / n
    cal_drift = np.concatenate([
        np.abs(level1.responsibilities - record.level1_responsibilities),
        np.abs(resp2[exact_result] - rec_resp[exact_result]),
    ])
    cal_support = np.concatenate([level1.sizes / n, supports2[exact_result]])
    envelope = np.zeros(len(_SCREEN_SUPPORT_EDGES) + 1)
    np.maximum.at(envelope, np.searchsorted(_SCREEN_SUPPORT_EDGES, cal_support), cal_drift)
    envelope = np.maximum.accumulate(envelope)
    margin = (
        _SCREEN_FACTOR * envelope[np.searchsorted(_SCREEN_SUPPORT_EDGES, supports2)]
        + _SCREEN_FLOOR
    )
    kth_interest = selected[k - 1].interestingness if len(selected) == k else -np.inf
    screenable = unknown & has_pre & ~rec_in_result
    with np.errstate(invalid="ignore"):
        # In the result with score + margin (the tail's filter), and able
        # to overtake the k-th selection without leaving the window.
        _, _, reachable = score_level(
            level1, merges, rec_resp + margin, np.zeros(len(margin)), prune
        )
        reachable &= (rec_resp + margin) / supports2 >= kth_interest
        reachable &= rec_resp - margin <= _MAX_RESPONSIBILITY
    rescore = screenable & reachable
    if np.any(rescore):
        resp2[rescore], bias2[rescore] = _batch_scores(estimator, merges.packed[rescore], n)
        scored, _, in_result = score_level(level1, merges, resp2, bias2, prune)
        if np.any(rescore & in_result):
            # An actual entrant: select again over the grown columns.
            result, selected, reselect_seconds = select(scored, in_result)
            filter_seconds += reselect_seconds

    # Refresh the record so successive delta audits chain off this one.
    # Screened-out pairs stay unscored (pair_known = -1): the next replay
    # calibrates against one edit's drift, so it must score them exactly.
    result.num_evaluated = int(batch.shape[0] + np.count_nonzero(rescore))
    result.record = LatticeRecord.of(level1.responsibilities, merges, resp2, in_result)
    return DeltaReplay(result=result, selected=selected, filter_seconds=filter_seconds)
