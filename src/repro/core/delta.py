"""Incremental replay of a depth-2 lattice search after a data edit.

:meth:`repro.core.AuditSession.delta_audit` answers a re-audit without
re-running Algorithm 1.  The trick is that a ``max_predicates <= 2``
search is *structurally* a pure function of the level-1 entry list: which
pairs merge into which two-predicate patterns, the dedup order, and the
satisfiability checks never look at the data — only the support filter
and the influence scores do.  Given the :class:`~repro.patterns.lattice.
LatticeRecord` of the pre-edit search and the alphabet patched for the
edit, the post-edit search output can therefore be *replayed*:

1. **structure** — the pair skeleton is reused from the alphabet cache
   and re-ANDed against the patched level-1 masks; the post-edit support
   filter and parent-collapse short-circuits are recomputed exactly from
   the patched sizes.  Pairs the edit pushed below the support threshold
   simply drop out; pairs it pushed above are scored from scratch (there
   is nothing below depth 2 to cascade).  Only an edit that changes the
   level-1 entry list itself — re-indexing the skeleton — refuses, and
   the caller falls back to a fresh engine search;
2. **scores** — every level-1 entry, every pair that was in the pre-edit
   result, and every pair without a usable pre-edit score (newly passing,
   or freshly un-collapsed from a parent) is re-scored exactly through
   one packed ``bias_change_batch`` against the patched artifacts;
3. **boundaries** — pairs that the pre-edit search evaluated but filtered
   out (responsibility below the parent bar, or negative) can only affect
   the *selected top-k* by crossing their filter boundary AND overtaking
   the k-th selected explanation's interestingness.  Each such pair gets a
   drift margin calibrated from everything re-scored exactly in step 2 —
   binned by support, because influence-score drift grows with the
   fraction of data a pattern removes — and is re-scored exactly when
   ``score + margin`` clears both its filter boundary and the k-th
   interestingness; any actual entrant triggers a re-selection.  Pairs
   that cannot reach the top-k even with the margin are left with their
   (slightly stale) recorded score, marked unscored in the refreshed
   record so a chained replay scores them exactly.

The margin in step 3 is the one empirical element: a filtered-out pair
whose score moved past its boundary by more than twice the largest drift
observed among its several hundred exactly-re-scored, same-support-band
neighbours could in principle be missed.  Everything the *selection* can
see is exact — the screen only decides which pairs provably cannot reach
it; ``recheck="always"`` forces the full search, and the equivalence
suite fuzzes edit sequences against from-scratch audits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mining.alphabet import PredicateAlphabet
from repro.mining.bitset import pack_rows, popcount
from repro.obs import trace
from repro.patterns.lattice import LatticeRecord, PatternStats
from repro.patterns.pattern import Pattern
from repro.patterns.topk import select_top_k

# The lattice's result filter (engine default; not a config knob).
_MIN_RESPONSIBILITY = 0.0
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
    """The replayed search output for one (metric, estimator) query."""

    candidates: list[PatternStats]
    selected: list[PatternStats]
    filter_seconds: float
    num_evaluated: int
    record: LatticeRecord


def _baseline(estimator) -> float:
    return (
        estimator.original_surrogate
        if estimator.evaluation == "smooth"
        else estimator.original_bias
    )


def _batch_scores(estimator, packed: np.ndarray, num_rows: int) -> tuple[np.ndarray, np.ndarray]:
    """Responsibilities and bias changes for packed masks (empty-safe)."""
    if packed.shape[0] == 0:
        empty = np.zeros(0)
        return empty, empty
    with trace.span("delta.score", m=int(packed.shape[0])):
        bias = estimator.bias_change_batch(packed, num_rows=num_rows)
        base = _baseline(estimator)
        resp = -bias / base if base != 0.0 else np.zeros_like(bias)
    return resp, bias


@dataclass
class ReplayGeometry:
    """Metric-independent structural state shared by one edit's replays.

    Everything here is a function of the patched alphabet and the search
    parameters (τ) alone — packing, the skeleton AND, the post-edit
    support filter, and the parent-collapse flags.  One ``delta_audit``
    builds it once and reuses it across every (metric, group, estimator)
    query of the grid; only the influence scores differ per query.
    """

    num_entries: int
    num_rows: int
    entries: list
    packed1: np.ndarray
    sizes1: np.ndarray
    skeleton_keys: np.ndarray
    num_skeleton: int
    pairs: np.ndarray
    sizes2: np.ndarray
    packed2: np.ndarray
    pair_left: np.ndarray
    pair_right: np.ndarray
    known_post: np.ndarray
    supports2: np.ndarray


def replay_geometry(alphabet: PredicateAlphabet, support_threshold: float) -> ReplayGeometry:
    """Build the shared structural state for replays against ``alphabet``."""
    if getattr(alphabet, "packed", False):
        raise ValueError(
            "delta replay consumes boolean level-1 masks and cannot run on a "
            "packed (out-of-core) alphabet"
        )
    entries = alphabet.entries
    n = alphabet.num_rows
    num_entries = len(entries)
    if num_entries:
        masks1 = np.stack([mask for _, mask in entries])
        packed1 = pack_rows(masks1)
        sizes1 = masks1.sum(axis=1)
    else:
        packed1 = np.zeros((0, (n + 7) // 8), dtype=np.uint8)
        sizes1 = np.zeros(0, dtype=np.int64)

    # The full structural pair space, re-ANDed against the patched masks.
    left, right = alphabet.pair_skeleton()
    num_sk = len(left)
    pair_packed = packed1[left] & packed1[right] if num_sk else np.zeros_like(packed1[:0])
    pair_sizes = np.asarray(popcount(pair_packed)).reshape(-1)

    # Post-edit support filter and parent-collapse short-circuits, exactly
    # as the fresh search would compute them from the patched masks.
    passing = pair_sizes / n > support_threshold if n else np.zeros(num_sk, dtype=bool)
    pairs = np.flatnonzero(passing)  # skeleton order == lattice result order
    sizes2 = pair_sizes[pairs]
    packed2 = pair_packed[pairs]
    pair_left, pair_right = left[pairs], right[pairs]
    known_post = np.where(
        sizes2 == sizes1[pair_left],
        1,
        np.where(sizes2 == sizes1[pair_right], 2, 0),
    ).astype(np.int8)
    return ReplayGeometry(
        num_entries=num_entries,
        num_rows=n,
        entries=entries,
        packed1=packed1,
        sizes1=sizes1,
        skeleton_keys=left * num_entries + right if num_entries else left,
        num_skeleton=num_sk,
        pairs=pairs,
        sizes2=sizes2,
        packed2=packed2,
        pair_left=pair_left,
        pair_right=pair_right,
        known_post=known_post,
        supports2=sizes2 / n if n else sizes2.astype(np.float64),
    )


def replay_search(
    record: LatticeRecord | None,
    alphabet: PredicateAlphabet,
    estimator,
    config,
    k: int,
    protected_attribute: str | None,
    geometry: ReplayGeometry | None = None,
) -> tuple[DeltaReplay | None, str]:
    """Replay one search against the patched alphabet, or refuse.

    Returns ``(replay, "")`` on success, ``(None, reason)`` when the
    certificate does not cover the edit (the reason strings surface in
    :class:`repro.core.DeltaQuery` diagnostics).  ``geometry`` shares the
    structural work across the queries of one edit; when omitted it is
    built here.
    """
    if record is None:
        return None, "no replay record (engine or search depth unsupported)"
    if config.max_predicates > 2:
        return None, "search depth > 2 is not replayable"
    entries = alphabet.entries
    if len(entries) != record.num_entries:
        return None, "level-1 entry list changed size"
    if geometry is None:
        geometry = replay_geometry(alphabet, config.support_threshold)
    n = geometry.num_rows
    prune = config.prune_by_responsibility
    cap = config.max_responsibility

    num_entries = geometry.num_entries
    packed1, sizes1 = geometry.packed1, geometry.sizes1
    pairs = geometry.pairs
    num_pairs = len(pairs)
    sizes2, packed2 = geometry.sizes2, geometry.packed2
    pair_left, pair_right = geometry.pair_left, geometry.pair_right
    known_post = geometry.known_post

    # Scatter the pre-edit record onto skeleton positions.  The record's
    # pairs are the pre-edit support survivors in skeleton order, so the
    # lexicographic keys must embed into the skeleton's.
    num_sk = geometry.num_skeleton
    keys = geometry.skeleton_keys
    rec_keys = record.pair_left * num_entries + record.pair_right
    pos = np.searchsorted(keys, rec_keys)
    if np.any(pos >= num_sk) or np.any(keys[pos] != rec_keys):
        return None, "replay record does not match the alphabet's pair skeleton"
    rec_resp = np.full(num_sk, np.nan)
    rec_bias = np.full(num_sk, np.nan)
    rec_known = np.full(num_sk, -1, dtype=np.int8)
    rec_in_result = np.zeros(num_sk, dtype=bool)
    rec_resp[pos] = record.pair_responsibilities
    rec_bias[pos] = record.pair_bias_changes
    rec_known[pos] = record.pair_known
    rec_in_result[pos] = record.pair_in_result

    # Which pairs need their own exact score now?  Parent-collapsed ones
    # copy the re-scored parent bit-exactly (as the fresh search does);
    # of the rest, a pair with a usable pre-edit own score is re-scored
    # only if it was in the result (drift calibration + exact output) —
    # filtered-out ones face the boundary screen below.  Pairs with no
    # usable pre-edit score (newly support-passing, or collapsed onto a
    # parent pre-edit) must be scored exactly.
    unknown = known_post == 0
    has_pre = rec_known[pairs] == 0
    exact_result = unknown & has_pre & rec_in_result[pairs]
    exact_new = unknown & ~has_pre
    score_now = exact_result | exact_new

    batch = np.concatenate([packed1, packed2[score_now]], axis=0)
    resp_batch, bias_batch = _batch_scores(estimator, batch, n)
    resp1, bias1 = resp_batch[:num_entries], bias_batch[:num_entries]

    resp2 = np.full(num_pairs, np.nan)
    bias2 = np.full(num_pairs, np.nan)
    resp2[score_now] = resp_batch[num_entries:]
    bias2[score_now] = bias_batch[num_entries:]
    resp2[known_post == 1] = resp1[pair_left[known_post == 1]]
    bias2[known_post == 1] = bias1[pair_left[known_post == 1]]
    resp2[known_post == 2] = resp1[pair_right[known_post == 2]]
    bias2[known_post == 2] = bias1[pair_right[known_post == 2]]

    # Responsibility bars against the re-scored level-1 parents (the
    # lattice's root-cause window: only parents with 0 < R <= cap veto).
    resp_l, resp_r = resp1[pair_left], resp1[pair_right]
    bars = np.full(num_pairs, -np.inf)
    valid_l = (resp_l > 0.0) & (resp_l <= cap)
    valid_r = (resp_r > 0.0) & (resp_r <= cap)
    bars[valid_l] = resp_l[valid_l]
    bars[valid_r] = np.maximum(bars[valid_r], resp_r[valid_r])

    def build_candidates() -> list[PatternStats]:
        built: list[PatternStats] = []
        for i, (predicate, _) in enumerate(entries):
            if resp1[i] >= _MIN_RESPONSIBILITY:
                built.append(
                    PatternStats(
                        pattern=Pattern([predicate]),
                        support=float(sizes1[i] / n),
                        size=int(sizes1[i]),
                        responsibility=float(resp1[i]),
                        bias_change=float(bias1[i]),
                        _packed_mask=packed1[i],
                        _num_rows=n,
                    )
                )
        for e in np.flatnonzero(in_result):
            built.append(
                PatternStats(
                    pattern=Pattern([entries[pair_left[e]][0], entries[pair_right[e]][0]]),
                    support=float(sizes2[e] / n),
                    size=int(sizes2[e]),
                    responsibility=float(resp2[e]),
                    bias_change=float(bias2[e]),
                    _packed_mask=packed2[e],
                    _num_rows=n,
                )
            )
        return built

    protected_only = (
        {protected_attribute}
        if config.exclude_protected_only and protected_attribute
        else None
    )

    # Phase-1 selection over the exactly-scored pool.
    supports2 = geometry.supports2
    scored = ~np.isnan(resp2)
    in_result = scored & (resp2 >= _MIN_RESPONSIBILITY)
    if prune:
        in_result &= resp2 > bars
    candidates = build_candidates()
    selected, filter_seconds = select_top_k(
        candidates,
        k,
        config.containment_threshold,
        exclude_features_only=protected_only,
        max_responsibility=config.max_responsibility,
    )

    # Boundary screen for pairs the pre-edit search evaluated but filtered
    # out.  A support-banded drift envelope, calibrated from everything
    # re-scored exactly above, bounds how far each stale score can have
    # moved; a pair is re-scored exactly only when score+margin clears its
    # filter boundary AND could overtake the k-th selected interestingness
    # — otherwise it provably cannot change the selection and keeps its
    # recorded score.
    cal_drift = np.abs(resp1 - record.level1_responsibilities)
    cal_support = sizes1 / n if n else sizes1.astype(np.float64)
    if np.any(exact_result):
        cal_drift = np.concatenate(
            [cal_drift, np.abs(resp2[exact_result] - rec_resp[pairs][exact_result])]
        )
        cal_support = np.concatenate([cal_support, supports2[exact_result]])
    envelope = np.zeros(len(_SCREEN_SUPPORT_EDGES) + 1)
    if len(cal_drift):
        cal_bin = np.searchsorted(_SCREEN_SUPPORT_EDGES, cal_support)
        np.maximum.at(envelope, cal_bin, cal_drift)
    envelope = np.maximum.accumulate(envelope)
    margin = (
        _SCREEN_FACTOR * envelope[np.searchsorted(_SCREEN_SUPPORT_EDGES, supports2)]
        + _SCREEN_FLOOR
    )
    kth_interest = selected[k - 1].interestingness if len(selected) == k else -np.inf
    resp_pre = rec_resp[pairs]
    screenable = unknown & has_pre & ~rec_in_result[pairs]
    with np.errstate(invalid="ignore"):
        reachable = resp_pre + margin >= _MIN_RESPONSIBILITY
        if prune:
            reachable &= resp_pre + margin > bars
        reachable &= (resp_pre + margin) / supports2 >= kth_interest
        reachable &= resp_pre - margin <= cap
    rescore = screenable & reachable
    if np.any(rescore):
        resp_extra, bias_extra = _batch_scores(estimator, packed2[rescore], n)
        resp2[rescore] = resp_extra
        bias2[rescore] = bias_extra
        scored = ~np.isnan(resp2)
        in_result = scored & (resp2 >= _MIN_RESPONSIBILITY)
        if prune:
            in_result &= resp2 > bars
        if np.any(rescore & in_result):
            # An actual entrant: rebuild the pool and re-select.
            candidates = build_candidates()
            selected, reselect_seconds = select_top_k(
                candidates,
                k,
                config.containment_threshold,
                exclude_features_only=protected_only,
                max_responsibility=config.max_responsibility,
            )
            filter_seconds += reselect_seconds

    # Refresh the record so successive delta audits chain off this one.
    # Screened-out pairs keep their (now stale) pre-edit score, marked
    # pair_known = -1: the next replay calibrates its screen against one
    # edit's drift, so it must score those pairs exactly.
    new_record = LatticeRecord(
        num_entries=num_entries,
        level1_responsibilities=resp1,
        level1_bias_changes=bias1,
        pair_left=pair_left,
        pair_right=pair_right,
        pair_sizes=sizes2,
        pair_known=np.where(scored, known_post, -1).astype(np.int8),
        pair_responsibilities=np.where(scored, resp2, resp_pre),
        pair_bias_changes=np.where(scored, bias2, rec_bias[pairs]),
        pair_in_result=in_result,
    )
    return (
        DeltaReplay(
            candidates=candidates,
            selected=selected,
            filter_seconds=filter_seconds,
            num_evaluated=int(batch.shape[0] + np.count_nonzero(rescore)),
            record=new_record,
        ),
        "",
    )
