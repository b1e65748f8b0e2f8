"""Closed-pattern enumeration over packed tidlists (vertical mining).

The lattice search of Algorithm 1 (``repro.patterns.lattice``) enumerates
*patterns* level by level, so several candidates describing the exact same
training subset — the same *extent* — are all generated and (unless one
collapses onto a direct parent) all evaluated.  This module enumerates one
node per distinct extent instead, depth-first by vertical tidlist
intersection (the Eclat/LCM family of miners, cf. scikit-mine), with the
paper's two pruning heuristics applied per node.

The item alphabet is the level-1 predicate set of Algorithm 1 (every
single predicate whose support strictly exceeds τ), each carrying its
packed tidlist, ordered frequency-ascending.  A search node is the extent
``e = ⋂ tid`` of a *strictly shrinking* ascending item path — extensions
that leave the extent unchanged (items already in its closure) are
skipped, so path depth equals generator size and the ``max_predicates``
cap bounds exactly the pattern sizes Algorithm 1 explores.  Every such
extent is closed (it equals the intersection of all alphabet tidlists
covering it), and sibling/cross-branch duplicates are deduplicated by
extent key, so each distinct extent is scored once.  Classic LCM instead
walks prefix-preserving *closure* extensions; that enumeration is
output-linear but its canonical paths can be longer than the smallest
generator, which under a generator-size cap silently loses extents the
lattice reaches — completeness matters more here than per-node
output-linearity.

Cost model
----------
* **start-up** — one packed tidlist per level-1 predicate (``K · n/8``
  bytes) plus one batched influence query over the distinct level-1
  extents (exactly the evaluations Algorithm 1 spends on level 1, minus
  duplicate extents).
* **per node** — one bitset AND + one popcount per attempted extension
  (support check; see ``repro.mining.bitset``).  No influence work, no
  boolean masks.
* **per buffer** — frontier nodes are buffered up to ``batch_size`` packed
  extents and scored in one ``bias_change_batch(packed, num_rows=n)``
  call; the estimator unpacks the buffer chunk-by-chunk internally, so the
  search never materializes an (m, n) boolean mask matrix (one unpack +
  one GEMM per chunk — the packed cost model of
  ``repro.influence.estimators``).
* **per emitted extent** — one broadcast AND + popcount against the
  ``(K, n/8)`` tidlist matrix to recover the closure, then the generator
  replay of :class:`_GeneratorReplay` to pick the reported pattern.

Memory per search path is ``O(depth · n/8)`` for the extents plus the
``O(batch_size · n/8)`` packed buffer, instead of the
``O(level_width · n)`` boolean masks the lattice holds per level.

Conditional-database projection (``projection="auto"``, the default)
replaces both ``n/8`` terms with *parent-extent-proportional* ones: a
branch whose extent shrinks below ``1/_PROJECT_SHRINK`` of its space is
re-packed into a dense local coordinate space (LCM2-style) carrying the
still-extendable items' tidlists at ``ceil(count/8)`` bytes each, so the
per-node AND/popcount below it costs ``count/8`` — and the one-off
projection costs the same bytes one round of child ANDs would have.
Extent identity switches from packed bytes (``n/8`` per retained key) to
an O(1)-sized set-homomorphic digest, global tidlists handed to the
estimator switch to the sparse index representation below the
``repro.mining.bitset`` density threshold (the estimator consumes index
batches directly — no pack/unpack round trip), and flush groups are
byte-capped, so the frontier's peak memory is bounded by constants and
by extent sizes, not by the table's row count.  ``projection="never"``
preserves the flat traversal byte-for-byte; both modes visit the same
nodes and emit identical candidates (the projection property suite and
the engine-equivalence suite pin this).

Pruning mirrors Algorithm 1: support must stay strictly above τ
(anti-monotone, kills the subtree), and with ``prune_by_responsibility`` a
node survives only when its estimated responsibility strictly exceeds the
responsibility of its in-window ancestors (see
:func:`repro.patterns.lattice._parent_bar` for the root-cause window).
At depth 2 the DFS parent and extension item are exactly the lattice's
two merge parents.  Deeper, a *descent-bar cache* reconstructs the
lattice's merge-pair bars extent-wise: the traversal records every scored
extent as survived or defeated, and a depth-k extension looks up the
extents of its other (k−1)-sub-patterns — known survivors raise the bar
exactly as a producing merge parent would, and when every one of them is
known-defeated the pattern is unformable in the lattice (no surviving
pair can merge to it) and the branch is skipped without an influence
evaluation.  Unknown sub-extents stay conservative (no bar raise, no
veto), so a missed lookup degrades to the one-sided DFS-parent bar rather
than over-pruning.  Two path-level gaps versus Algorithm 1 remain
inherent to depth-first search and are accepted (the engine equivalence
suite pins the workloads where they never fire):

* pruning a node kills its whole ascending subtree, while the lattice
  can still reach a deeper pattern through an alternative surviving
  merge pair (e.g. ``abc`` via ``ac``+``bc`` after ``ab`` died);
* the lattice's own bar is path-dependent — each merged pattern is
  tested against the *first producing pair* in its deterministic bucket
  order — which the extent-level emission replay below approximates
  order-independently with all surviving sub-patterns.

Because several patterns can share one closed extent, each emitted node is
reported under a *representative* pattern: the lexicographically smallest
generator of its extent (in the canonical predicate order) that the
lattice's pruning would also have let through — which is exactly the
pattern Algorithm 2's deterministic tie-break would pick among the
lattice's duplicates, so the two engines agree on top-k output while the
miner evaluates each distinct extent once.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field

import numpy as np

from repro.influence.estimators import InfluenceEstimator
from repro.mining.alphabet import PredicateAlphabet
from repro.mining.bitset import (
    bit_test,
    covers_all,
    extent_key,
    intersect,
    is_sparse,
    pack_rows,
    popcount,
    sparse_eligible,
    sparse_index_dtype,
    to_packed,
    to_sparse,
    unpack_rows,
)
from repro.obs import trace
from repro.patterns.lattice import (
    CandidateResult,
    LatticeLevelStats,
    PatternStats,
    _baseline,
    _parent_bar,
)
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.tabular import Table

#: Project a branch once its extent is this many times smaller than its
#: current coordinate space ("auto" mode).  Below 1/8 density the re-pack
#: pays for itself within one level: building the conditional database
#: costs one pass over the remaining items' local tidlists — the same
#: bytes a single round of child ANDs would have touched — and every
#: deeper AND, popcount, key, and co-parent lookup then runs over
#: ``count/8`` bytes instead of the parent space's width.
_PROJECT_SHRINK = 8

#: Items per chunk when re-packing a conditional database: bounds the
#: transient unpacked (items, count) bit matrix to chunk·count bytes.
_PROJECT_ITEM_CHUNK = 64

#: Below this many table rows, "auto" runs the flat (never-mode) search.
#: The projection machinery adds per-node work the flat search doesn't
#: do — member digests for sparse-eligible extents, a popcount per
#: descent-bar lookup, dense→sparse compressions, conditional-database
#: builds — and on a table small enough to sit in cache every full-width
#: AND and scoring pass is already near-free, so there is nothing for
#: that machinery to save.  Auto switches it on only once the byte
#: traffic it removes is worth the bookkeeping it adds.
_AUTO_DIGEST_MIN_ROWS = 1 << 17

#: Byte cap on one flush group's materialized global tidlists.  Local
#: extents are expanded to global coordinates only for scoring; capping
#: the group keeps that transient — and the stacked copy the estimator
#: sees — independent of how many rows the table has.
_FLUSH_GROUP_BYTES = 1 << 25


class _Space:
    """One conditional database: an ancestor extent re-packed densely.

    Projection (LCM2-style) re-indexes the surviving rows of a node's
    extent into a *local* coordinate space of ``count`` rows: ``rows``
    maps local index → global row id (``None`` for the root space, where
    the two coincide), and ``tids`` holds the still-extendable items'
    tidlists re-packed to ``ceil(count/8)`` bytes each — only items above
    the path's last item (``base``), which is every item a descendant (or
    a co-parent lookup, see ``children``) can ever AND with.  Child
    intersections inside a space are *rows of the matrix*: the projection
    already performed the AND, so extending by item ``j`` is a view plus
    a popcount over ``count/8`` bytes instead of ``n/8``.

    ``hvals`` are the space's slice of the global digest values (see
    ``mine_closed_candidates``): extents that live in different spaces
    hash to the same key whenever they cover the same global rows, which
    is what lets the sibling/descent-bar dedup work across spaces.
    """

    __slots__ = ("rows", "num_local", "base", "tids", "depth", "parent", "_hvals", "_hsource")

    def __init__(
        self,
        rows: np.ndarray | None,
        num_local: int,
        base: int,
        tids: np.ndarray,
        depth: int,
        parent: "_Space | None",
        hsource: np.ndarray | None,
    ) -> None:
        self.rows = rows
        self.num_local = num_local
        self.base = base
        self.tids = tids
        self.depth = depth
        self.parent = parent
        self._hvals: np.ndarray | None = None
        self._hsource = hsource

    def tid(self, j: int) -> np.ndarray:
        """The packed local tidlist of (global) item index ``j``."""
        return self.tids[j - self.base]

    @property
    def hvals(self) -> np.ndarray:
        if self._hvals is None:
            assert self._hsource is not None
            self._hvals = (
                self._hsource if self.rows is None else self._hsource[self.rows]
            )
        return self._hvals


@dataclass
class _Node:
    """One extent on the search frontier."""

    extent: np.ndarray  # packed row mask of the extent, local to ``space``
    count: int  # |extent|
    items: tuple[int, ...]  # the ascending item path (= the generator)
    depth: int  # number of extension items on the path (= generator size)
    bar: float  # responsibility the node must strictly exceed
    space: _Space  # the coordinate space ``extent`` is packed in
    key: object = None  # hashable global identity of the extent
    responsibility: float = 0.0
    bias_change: float = 0.0

    @property
    def last_item(self) -> int:
        """Index of the last extension item on the path (-1 at the root)."""
        return self.items[-1] if self.items else -1


class _InfluenceCache:
    """Extent-keyed influence results, filled by batched packed queries.

    ``key_fn`` maps a *global* tidlist (packed row or sparse index array)
    to its hashable identity — raw packed bytes for the unprojected
    search, the digest key under projection.  Tidlists flow to the
    estimator in whatever representation they arrive: packed rows are
    stacked into one ``bias_change_batch(packed, num_rows=n)`` call and
    sparse index arrays go through the estimator's index-streamed batch
    entry *as indices* — no pack/unpack round-trip on either path.
    """

    def __init__(
        self,
        estimator: InfluenceEstimator,
        num_rows: int,
        batch_size: int,
        key_fn=extent_key,
    ) -> None:
        self.estimator = estimator
        self.num_rows = num_rows
        self.batch_size = batch_size
        self.key_fn = key_fn
        self.baseline = _baseline(estimator)
        self.by_key: dict[object, tuple[float, float]] = {}
        self.num_evaluated = 0

    def evaluate(self, extents: list[np.ndarray]) -> None:
        """Score every not-yet-seen extent, ``batch_size`` per packed call."""
        self.evaluate_pairs([(self.key_fn(extent), extent) for extent in extents])

    def evaluate_pairs(self, pairs: list[tuple[object, np.ndarray]]) -> None:
        """Score every not-yet-seen ``(key, global tidlist)`` pair."""
        fresh: list[tuple[object, np.ndarray]] = []
        claimed: set[object] = set()
        for key, extent in pairs:
            if key not in self.by_key and key not in claimed:
                claimed.add(key)
                fresh.append((key, extent))
        if not fresh:
            return
        with trace.span("mining.flush", extents=len(fresh)):
            for start in range(0, len(fresh), self.batch_size):
                chunk = fresh[start : start + self.batch_size]
                dense = [(key, tid) for key, tid in chunk if not is_sparse(tid)]
                sparse = [(key, tid) for key, tid in chunk if is_sparse(tid)]
                if dense:
                    packed = np.stack([tid for _, tid in dense])
                    self._store(
                        dense,
                        self.estimator.bias_change_batch(packed, num_rows=self.num_rows),
                    )
                if sparse:
                    indices = [tid for _, tid in sparse]
                    self._store(
                        sparse,
                        self.estimator.bias_change_batch(indices, num_rows=self.num_rows),
                    )
                self.num_evaluated += len(chunk)

    def _store(self, pairs: list[tuple[object, np.ndarray]], bias_changes: np.ndarray) -> None:
        if self.baseline != 0.0:
            responsibilities = -bias_changes / self.baseline
        else:
            responsibilities = np.zeros_like(bias_changes)
        for (key, _), resp, dbias in zip(pairs, responsibilities, bias_changes):
            self.by_key[key] = (float(resp), float(dbias))

    def lookup(self, extent: np.ndarray) -> tuple[float, float]:
        return self.by_key[self.key_fn(extent)]

    def responsibility_of(self, extent: np.ndarray) -> float | None:
        found = self.by_key.get(self.key_fn(extent))
        return None if found is None else found[0]


def mine_closed_candidates(
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
    projection: str = "auto",
) -> CandidateResult:
    """Mine all closed candidate explanations of ``table``.

    Parameters mirror :func:`repro.patterns.lattice.compute_candidates`
    exactly — the two are interchangeable candidate-generation backends
    behind :class:`repro.mining.engine.CandidateEngine`.  ``batch_size``
    bounds how many packed extents are buffered per influence call (the
    boolean unpack inside the estimator is further chunked, so it does not
    bound mask memory — the packed representation does).  ``alphabet`` is
    an optional pre-built :class:`repro.mining.alphabet.PredicateAlphabet`
    whose frequency-ascending packed tidlists are reused instead of
    re-generated — how an :class:`repro.core.AuditSession` shares one
    tidlist build across every query of an audit.

    ``projection`` selects the conditional-database strategy.  ``"never"``
    is the flat traversal: every extension ANDs two global ``n/8``-byte
    rows and every extent key is its packed bytes.  ``"auto"`` (the
    default) projects a node's extent into a dense local coordinate space
    once it has shrunk below ``1/_PROJECT_SHRINK`` of its current space —
    descendants then pay ``count/8`` bytes per AND — and switches global
    tidlists to the sparse index representation for keys, scoring, and
    co-parent lookups where the density rule of ``repro.mining.bitset``
    says indices are cheaper.  Both traverse the identical node set and
    emit identical candidates; they differ only in representation.

    ``levels`` maps the miner's per-depth accounting onto the lattice's
    Table-7 shape: candidates = nodes surviving pruning at that depth,
    merges tried = attempted extensions, seconds = that depth's share of
    *influence-evaluation* time (flushes of the packed buffer).  Bitset
    traversal and the emission replay are not in any depth bucket, so the
    per-depth seconds sum to less than the search's wall time — unlike
    the lattice, whose level timers are wall-clock per level.  The number
    of distinct extents visited is the ``closed`` attribute of the
    ``mining.frontier`` span.
    """
    if max_predicates < 1:
        raise ValueError(f"max_predicates must be >= 1, got {max_predicates}")
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    if projection not in ("auto", "never"):
        raise ValueError(f"projection must be 'auto' or 'never', got {projection!r}")
    num_rows = table.num_rows
    if num_rows != estimator.num_train:
        raise ValueError(
            f"table rows ({num_rows}) must match estimator training rows "
            f"({estimator.num_train}); patterns quantify over the training data"
        )

    start = time.perf_counter()
    if alphabet is None:
        alphabet = PredicateAlphabet(
            table, support_threshold, num_bins, exclude_features
        )
    # Frequency-ascending item order (LCM's standard heuristic), sort-key
    # tie-broken for determinism, full-coverage predicates dropped.
    # Rarest-first matters beyond speed here: an item subsumed by another
    # (e.g. ``age >= 46`` inside ``age >= 38``) must come *before* its
    # subsumer, so closures list subsuming items after the canonical prefix
    # and nested-threshold chains don't inflate the canonical path depth
    # past the generator size.  The ordered predicates and the packed
    # (K, w) tidlist matrix are built once per alphabet and shared across
    # queries.
    predicates, tids = alphabet.miner_items()
    if not predicates:
        return CandidateResult([], [LatticeLevelStats(1, 0, 0, time.perf_counter() - start)])
    num_items = len(predicates)

    use_digest = projection == "auto" and num_rows >= _AUTO_DIGEST_MIN_ROWS
    if use_digest:
        # Two-tier extent identity, branch chosen by the *global* density
        # rule so every representation of the same row set lands in the
        # same branch:
        #
        # * sparse-eligible (count·32 ≤ n) — set-homomorphic digest: each
        #   row carries a fixed random 64-bit value and the key is
        #   (count, Σ values mod 2⁶⁴).  O(count) from an index tidlist,
        #   coordinate-space independent, O(8n) to store the values once.
        # * dense — (count, hash of the global packed bytes).  One n/8
        #   memcpy + siphash instead of an O(n) member extraction — the
        #   extraction cost is exactly what made digest keys lose to the
        #   flat search's raw-bytes keys on dense sub-extent lookups.
        #   Only the 64-bit hash is retained, so the survived/defeated
        #   caches stay O(1) per extent either way.
        #
        # A sparse-eligible extent can never be packed-keyed (or vice
        # versa): eligibility depends only on the count, which both
        # branches carry.  A collision needs two same-size extents whose
        # digests or byte hashes agree mod 2⁶⁴: union-bound
        # ≈ (#distinct extents)² / 2⁶⁵, vanishing for any feasible
        # search, and a false merge only skips one subtree re-walk.  The
        # seed is fixed so a search is reproducible run-to-run.
        hsource = np.random.default_rng(0x9E3779B97F4A7C15 ^ num_rows).integers(
            0, np.iinfo(np.uint64).max, size=num_rows, dtype=np.uint64
        )
    else:
        hsource = None
    root_space = _Space(None, num_rows, 0, tids, 0, None, hsource)

    def space_key(tid: np.ndarray, space: _Space, count: int | None = None):
        """Hashable global identity of a tidlist local to ``space``."""
        if not use_digest:
            return extent_key(tid)
        if is_sparse(tid):
            return (int(tid.size), int(space.hvals[tid].sum(dtype=np.uint64)))
        if count is None:
            count = int(popcount(tid))
        if sparse_eligible(count, num_rows):
            # Globally sparse-eligible but still packed (a sub-extent that
            # was never compressed): member digest, the same value its
            # index form would hash to.
            members = np.flatnonzero(unpack_rows(tid, space.num_local))
            return (count, int(space.hvals[members].sum(dtype=np.uint64)))
        if space.rows is not None:
            members = np.flatnonzero(unpack_rows(tid, space.num_local))
            mask = np.zeros(num_rows, dtype=bool)
            mask[space.rows[members]] = True
            tid = pack_rows(mask)
        return (count, hash(extent_key(tid)))

    def global_key(tid: np.ndarray):
        """Key of a tidlist already in global coordinates (the cache's view)."""
        return space_key(tid, root_space)

    # Hot-loop event tallies, flushed to the alphabet's StatsView once per
    # search (a registry bump per lattice node would put a lock in the
    # innermost loop).
    counters = {
        "projection_builds": 0,
        "tidlist_compressions": 0,
        "sparse_dispatch_hits": 0,
        "dense_dispatch_hits": 0,
    }

    def project(node: _Node) -> _Space:
        """Re-pack ``node``'s extent into a dense local space (the
        conditional database of its branch)."""
        space = node.space
        base = node.last_item + 1
        with trace.span("mining.project", rows=node.count, depth=node.depth):
            if is_sparse(node.extent):
                members = node.extent
            else:
                members = np.flatnonzero(unpack_rows(node.extent, space.num_local))
            rows = members if space.rows is None else space.rows[members]
            sub = space.tids[base - space.base :]
            cols = members >> 3
            shifts = (7 - (members & 7)).astype(np.uint8)
            local = np.empty((sub.shape[0], (members.size + 7) // 8), dtype=np.uint8)
            # Chunk over items so the transient unpacked (items, count) bit
            # matrix stays bounded regardless of alphabet size.
            for s0 in range(0, sub.shape[0], _PROJECT_ITEM_CHUNK):
                bits = (sub[s0 : s0 + _PROJECT_ITEM_CHUNK, cols] >> shifts) & np.uint8(1)
                local[s0 : s0 + _PROJECT_ITEM_CHUNK] = np.packbits(bits, axis=1)
            counters["projection_builds"] += 1
            return _Space(rows, int(members.size), base, local, node.depth, space, hsource)

    def global_tid(node: _Node) -> np.ndarray:
        """``node``'s extent in global coordinates, density-canonical.

        Sparse-eligible extents come back as sorted global row indices
        (what the estimator's index-streamed batch path consumes
        directly); denser ones as a packed global row.  In the
        unprojected search every extent already *is* a packed global row
        and is returned as-is — byte-identical to the historical path.
        """
        space = node.space
        if space.rows is None:
            if is_sparse(node.extent):
                return node.extent.astype(sparse_index_dtype(num_rows), copy=False)
            if use_digest and sparse_eligible(node.count, num_rows):
                counters["tidlist_compressions"] += 1
                return np.flatnonzero(unpack_rows(node.extent, num_rows)).astype(
                    sparse_index_dtype(num_rows), copy=False
                )
            return node.extent
        if is_sparse(node.extent):
            members = node.extent
        else:
            members = np.flatnonzero(unpack_rows(node.extent, space.num_local))
        # space.rows is ascending and members indexes it in ascending order,
        # so the gathered global rows arrive sorted.
        rows = space.rows[members]
        if sparse_eligible(node.count, num_rows):
            counters["tidlist_compressions"] += 1
            return rows.astype(sparse_index_dtype(num_rows), copy=False)
        mask = np.zeros(num_rows, dtype=bool)
        mask[rows] = True
        return pack_rows(mask)

    cache = _InfluenceCache(
        estimator, num_rows, batch_size, key_fn=global_key if use_digest else extent_key
    )
    # Level-1 pre-pass: every distinct item extent in one batched sweep —
    # the same influence work Algorithm 1 spends on level 1, minus
    # duplicate extents — so every deeper node can form its pruning bar
    # from its extension item's responsibility.
    cache.evaluate(list(tids))
    item_resp = np.array([cache.lookup(tids[j])[0] for j in range(num_items)])

    tried = _DepthCounter()
    survivors = _DepthCounter()
    seconds = _DepthCounter()

    # Sub-extent → descent-bar cache (the lattice's merge-pair bars,
    # reconstructed extent-wise).  ``survived`` maps the extent of every
    # node that passed pruning to its responsibility; ``defeated`` holds
    # extents scored and pruned on every path walked so far.  A deep node's
    # merge parents in Algorithm 1 are its (k−1)-sub-patterns — for the
    # path P extended by item j those are P itself (the DFS parent) and
    # (P∖{x})∪{j} for each x in P, whose extents are cheap tidlist ANDs.
    # The depth-first order visits (and batches) those sub-extents before P
    # is expanded in all but batch-boundary races, so the lookup almost
    # always resolves.
    survived: dict[bytes, float] = {}
    defeated: set[bytes] = set()

    def children(node: _Node) -> list[_Node]:
        out: list[_Node] = []
        siblings: set[object] = set()
        space = node.space
        if node.last_item + 1 >= num_items:
            return out
        # Branch projection: once an extent has shrunk well below its
        # current coordinate space, re-pack it so every descendant AND and
        # popcount runs over count/8 bytes.  The root level never projects
        # (children of the root are the items themselves).
        do_project = (
            use_digest
            and node.depth >= 1
            and node.count * _PROJECT_SHRINK <= space.num_local
        )
        if do_project:
            child_space = project(node)
            # One vectorized popcount over the conditional database gives
            # every extension's support at once.
            child_counts = popcount(child_space.tids)
        else:
            child_space = space
            child_counts = None
        deep = prune_by_responsibility and node.depth >= 2
        if deep:
            # Extents of P∖{x}, shared by every extension of this node.
            # Each is built in the deepest ancestor space that conditions
            # on at most ``drop`` path items — the projected spaces only
            # carry tidlists for items *after* their branch point, and
            # every kept item (and every extension j) is after the
            # ancestor's, so the AND chain stays inside that space and
            # costs its local width instead of n/8.  Sparse-eligible
            # co-parents switch to index form: the per-extension
            # refinement below is then an O(count) bit gather instead of
            # a full-width AND.
            co_parents: list[tuple[_Space, np.ndarray | None]] = []
            with trace.span("mining.sparse_and", drops=node.depth):
                for drop in range(node.depth):
                    anc = space
                    while anc.parent is not None and anc.depth > drop:
                        anc = anc.parent
                    kept = [
                        item
                        for pos, item in enumerate(node.items)
                        if pos != drop and pos >= anc.depth
                    ]
                    if kept:
                        co = anc.tid(kept[0])
                        for item in kept[1:]:
                            co = intersect(co, anc.tid(item))
                        if use_digest and sparse_eligible(int(popcount(co)), anc.num_local):
                            co = np.flatnonzero(unpack_rows(co, anc.num_local))
                            counters["tidlist_compressions"] += 1
                    else:
                        # Every kept item is conditioned into the ancestor
                        # space itself: the co-parent is the whole space.
                        co = None
                    co_parents.append((anc, co))
        for j in range(node.last_item + 1, num_items):
            tried.add(node.depth + 1, 1)
            if child_counts is not None:
                extent = child_space.tids[j - child_space.base]
                count = int(child_counts[j - child_space.base])
            else:
                extent = intersect(node.extent, space.tid(j))
                count = int(popcount(extent))
            if count == node.count:
                # Item j covers the whole extent (it is in the closure):
                # the pattern gains a redundant predicate and nothing
                # shrinks.  Skipping keeps path depth equal to generator
                # size, which is what the max_predicates cap must bound.
                continue
            # Same expression as the lattice's support check — support is
            # a float division there, and τ·n can round differently.
            if count / num_rows <= support_threshold:
                continue
            if (
                use_digest
                and not is_sparse(extent)
                and sparse_eligible(count, child_space.num_local)
            ):
                # Density-adaptive node extents: below the cutoff the
                # surviving extent switches to index form at creation —
                # its key costs O(count) instead of an O(num_local) member
                # extraction, descendant ANDs become bit gathers, and the
                # estimator consumes the indices directly at scoring time.
                extent = to_sparse(extent, child_space.num_local)
                counters["tidlist_compressions"] += 1
            key = space_key(extent, child_space, count)
            if key in siblings:
                # A sibling with a smaller extension item reached the same
                # extent; its subtree covers a superset of this one's
                # extension range, so this branch adds nothing.
                continue
            if not prune_by_responsibility or node.depth == 0:
                bar = -np.inf
            elif node.depth == 1:
                # A depth-2 node's DFS parent and extension item are
                # exactly the lattice's two level-1 merge parents.
                bar = _parent_bar(node.responsibility, item_resp[j], max_responsibility)
            else:
                # Deeper, the lattice's merge parents are the (k−1)-sub-
                # patterns (P∖{x})∪{j}, not the level-1 extension item.
                # Their extents are looked up in the descent-bar cache:
                # every known-surviving one raises the bar exactly as a
                # producing merge parent would, and when *all* of them are
                # known-defeated the lattice has no surviving pair left to
                # merge — the pattern is unformable and the whole branch
                # (evaluation included) is skipped.  Unknown sub-extents
                # (not yet scored, or support-dead along another branch
                # shape) stay conservative: they neither raise the bar nor
                # veto formability, so a missed lookup degrades to the
                # one-sided parent bar rather than over-pruning.  This is
                # still an extent-level approximation of the lattice's
                # pattern-level, first-producing-pair bar — the engine
                # equivalence suite pins the workloads where they agree.
                bar = _parent_bar(node.responsibility, -np.inf, max_responsibility)
                formable = False
                for anc, co in co_parents:
                    item_tid = anc.tid(j)
                    if co is None:
                        sub = item_tid
                    elif is_sparse(co):
                        sub = co[bit_test(item_tid, co)]
                        counters["sparse_dispatch_hits"] += 1
                    else:
                        sub = intersect(co, item_tid)
                        counters["dense_dispatch_hits"] += 1
                    sub_key = space_key(sub, anc)
                    resp = survived.get(sub_key)
                    if resp is not None:
                        formable = True
                        if 0.0 < resp <= max_responsibility:
                            bar = max(bar, resp)
                    elif sub_key not in defeated:
                        formable = True
                if not formable:
                    continue
            siblings.add(key)
            out.append(
                _Node(
                    extent,
                    count,
                    node.items + (j,),
                    node.depth + 1,
                    bar,
                    space=child_space,
                    key=key,
                )
            )
        return out

    root = _Node(
        extent=pack_rows(np.ones(num_rows, dtype=bool)),
        count=num_rows,
        items=(),
        depth=0,
        bar=-np.inf,
        space=root_space,
    )
    pending: list[_Node] = children(root)
    expandable: list[_Node] = []
    emitted: list[_Node] = []
    emitted_keys: set[object] = set()
    visited_keys: set[object] = set()

    with trace.span("mining.frontier") as frontier_span:
        while pending or expandable:
            if expandable and len(pending) < batch_size:
                # Descend (LIFO keeps the frontier depth-first and the packed
                # working set small) until a full buffer is ready to score.
                pending.extend(children(expandable.pop()))
                continue
            batch = pending[:batch_size]
            del pending[: len(batch)]
            flush_start = time.perf_counter()
            if use_digest:
                # Expand local extents to global tidlists in byte-capped
                # groups: the global forms are scoring transients, so the
                # flush never holds batch_size full-width rows at once —
                # the peak the memory-bound benchmark asserts on.
                group: list[tuple[object, np.ndarray]] = []
                group_bytes = 0
                for node in batch:
                    tid = global_tid(node)
                    group.append((node.key, tid))
                    group_bytes += tid.nbytes
                    if group_bytes >= _FLUSH_GROUP_BYTES:
                        cache.evaluate_pairs(group)
                        group = []
                        group_bytes = 0
                if group:
                    cache.evaluate_pairs(group)
            else:
                cache.evaluate_pairs([(node.key, node.extent) for node in batch])
            flush_seconds = time.perf_counter() - flush_start
            for node in batch:
                key = node.key
                visited_keys.add(key)
                seconds.add(node.depth, flush_seconds / len(batch))
                node.responsibility, node.bias_change = cache.by_key[key]
                if prune_by_responsibility and node.responsibility <= node.bar:
                    # heuristic 2 — the whole subtree dies with it.  Record the
                    # defeat for the descent-bar cache unless another path
                    # already carried this extent through.
                    if key not in survived:
                        defeated.add(key)
                    continue
                survived[key] = node.responsibility
                defeated.discard(key)
                survivors.add(node.depth, 1)
                if node.responsibility >= min_responsibility:
                    if key not in emitted_keys:
                        # The same extent can be revisited through another
                        # branch; the representative is extent-determined, so
                        # the first unpruned occurrence stands for all.
                        emitted_keys.add(key)
                        emitted.append(node)
                if node.depth < max_predicates:
                    expandable.append(node)
        frontier_span.set(
            closed=len(visited_keys), emitted=len(emitted), evaluated=cache.num_evaluated
        )
    replay = _GeneratorReplay(
        predicates, tids, cache, max_predicates, prune_by_responsibility, max_responsibility
    )
    candidates = []
    with trace.span("mining.replay", extents=len(emitted)):
        for node in emitted:
            # Emitted extents leave their local coordinate space here: the
            # replay gets the density-canonical global tidlist (covers_all
            # dispatches on it) and PatternStats the packed global mask.
            gtid = global_tid(node)
            pattern = replay.representative(gtid, node.count)
            if pattern is None:
                # Every generator of this extent fails the lattice's strict
                # improvement test against its own sub-patterns; Algorithm 1
                # would not have emitted any pattern for it.
                continue
            candidates.append(
                PatternStats(
                    pattern=pattern,
                    support=node.count / num_rows,
                    size=node.count,
                    responsibility=node.responsibility,
                    bias_change=node.bias_change,
                    _packed_mask=to_packed(gtid, num_rows),
                    _num_rows=num_rows,
                )
            )
    alphabet.record_mining_counters(**counters)
    levels = [
        LatticeLevelStats(
            depth, int(survivors.get(depth)), int(tried.get(depth)), seconds.get(depth)
        )
        for depth in range(1, max_predicates + 1)
        if tried.get(depth) or survivors.get(depth) or depth == 1
    ]
    return CandidateResult(candidates, levels, cache.num_evaluated)


# ----------------------------------------------------------------------
@dataclass
class _DepthCounter:
    values: dict[int, float] = field(default_factory=dict)

    def add(self, depth: int, amount: float) -> None:
        self.values[depth] = self.values.get(depth, 0.0) + amount

    def get(self, depth: int) -> float:
        return self.values.get(depth, 0.0)

    def total(self) -> float:
        return sum(self.values.values())


class _GeneratorReplay:
    """Replays Algorithm 1's per-pattern pruning over generator sub-lattices.

    The lattice emits every *generator* of an extent that survives its
    strict-improvement pruning; since equal-extent patterns share one
    (support, responsibility) pair, Algorithm 2's tie-break resolves them
    to the canonically smallest survivor and its containment filter drops
    the rest.  The miner evaluated each extent once, so to report the same
    winning pattern it replays the lattice's survival test symbolically:

    * a single-predicate pattern always survives (level 1 is unpruned);
    * a k-predicate pattern must be *formable* — at least two of its
      (k−1)-sub-patterns survived, the merge-pair requirement — and its
      responsibility must strictly exceed every in-window surviving
      parent's.

    The last test is deliberately an approximation: the lattice compares
    against the *first producing merge pair* in its deterministic bucket
    order, which this extent-level replay cannot reconstruct; checking
    all surviving parents is equivalent whenever responsibility grows
    along in-window chains (which pruning itself enforces through the
    producing pair), and can only be stricter otherwise.  The engine
    equivalence suite pins the configurations where the two coincide.

    Sub-pattern responsibilities come from the miner's extent cache;
    sub-extents the traversal never scored (their canonical closed node
    fell to support pruning of a different branch shape) are evaluated
    lazily in one batched query per node — extents the lattice paid for
    as ordinary level-(k−1) candidates anyway.
    """

    def __init__(
        self,
        predicates: list[Predicate],
        tids: np.ndarray,
        cache: _InfluenceCache,
        max_predicates: int,
        prune_by_responsibility: bool,
        max_responsibility: float,
    ) -> None:
        self.predicates = predicates
        self.tids = tids
        self.cache = cache
        self.max_predicates = max_predicates
        self.prune_by_responsibility = prune_by_responsibility
        self.max_responsibility = max_responsibility
        self._survives: dict[tuple[int, ...], bool] = {}

    # -- generator enumeration -----------------------------------------
    def _pattern_key(self, combo: tuple[int, ...]) -> tuple:
        return tuple(self.predicates[j].sort_key() for j in combo)

    def _extent_of(self, combo) -> np.ndarray:
        extent = self.tids[combo[0]]
        for j in combo[1:]:
            extent = extent & self.tids[j]
        return extent

    def _generators(self, extent: np.ndarray, count: int) -> list[tuple[int, ...]]:
        """All generators of the extent with ≤ ``max_predicates`` items.

        ``extent`` is a *global* tidlist in either representation — the
        closure membership test (:func:`covers_all`) dispatches, so a
        sparse deep extent gathers ``(K, count)`` addressed bits instead
        of broadcasting over ``K · n/8`` bytes.
        """
        members = np.flatnonzero(covers_all(self.tids, extent))
        # Items with byte-identical tidlists are interchangeable in any
        # generator; keeping only the sort-key-smallest of each group
        # preserves the lexicographic minimum while shrinking the search.
        by_tid: dict[bytes, int] = {}
        for j in members:
            key = extent_key(self.tids[j])
            best = by_tid.get(key)
            if best is None or self.predicates[j].sort_key() < self.predicates[best].sort_key():
                by_tid[key] = int(j)
        unique = sorted(by_tid.values(), key=lambda j: self.predicates[j].sort_key())

        generators: list[tuple[int, ...]] = []
        for size in range(1, min(self.max_predicates, len(unique)) + 1):
            for combo in itertools.combinations(unique, size):
                # Members cover the extent by closure, so the intersection
                # always contains it — equal popcount means equal extent.
                if int(popcount(self._extent_of(combo))) == count:
                    generators.append(combo)
        return generators

    # -- the survival replay -------------------------------------------
    def _ensure_scored(self, combos: list[tuple[int, ...]]) -> None:
        """Lazily score every sub-pattern extent the replay will consult."""
        needed: list[np.ndarray] = []
        for combo in combos:
            stack = [combo]
            while stack:
                current = stack.pop()
                if len(current) < 2 or current in self._survives:
                    continue
                needed.append(self._extent_of(current))
                for drop in range(len(current)):
                    stack.append(current[:drop] + current[drop + 1 :])
        self.cache.evaluate(needed)

    def survives(self, combo: tuple[int, ...]) -> bool:
        if len(combo) == 1:
            return True
        cached = self._survives.get(combo)
        if cached is not None:
            return cached
        responsibility = self.cache.responsibility_of(self._extent_of(combo))
        assert responsibility is not None  # _ensure_scored ran first
        parents = [combo[:drop] + combo[drop + 1 :] for drop in range(len(combo))]
        surviving = [p for p in parents if self.survives(p)]
        formable = len(combo) == 2 or len(surviving) >= 2
        bars = [
            resp
            for p in surviving
            if (resp := self.cache.responsibility_of(self._extent_of(p))) is not None
            and 0.0 < resp <= self.max_responsibility
        ]
        alive = formable and (not bars or responsibility > max(bars))
        self._survives[combo] = alive
        return alive

    def representative(self, extent: np.ndarray, count: int) -> Pattern | None:
        """The surviving pattern Algorithm 2 would pick, or None if the
        lattice's pruning leaves no pattern for this extent."""
        generators = self._generators(extent, count)
        if not self.prune_by_responsibility:
            # Without heuristic 2 the lattice emits redundant-predicate
            # patterns too; the tie-break ranges over all generators.
            chosen = min(generators, key=self._pattern_key)
            return Pattern([self.predicates[j] for j in chosen])
        # The replay ranges over ALL generators, not just minimal ones: a
        # redundant predicate usually collapses onto its same-extent
        # parent and dies on the strict improvement test (which survives()
        # reproduces — that parent's bar equals the pattern's own
        # responsibility), but when that parent was itself pruned the
        # lattice can reach the redundant pattern through a sibling pair
        # and emit it, and its sort key can even precede the minimal
        # generator's.
        self._ensure_scored(generators)
        for combo in sorted(generators, key=self._pattern_key):
            if self.survives(combo):
                return Pattern([self.predicates[j] for j in combo])
        return None
