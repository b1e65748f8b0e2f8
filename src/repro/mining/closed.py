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
  extents and scored in one ``score_batch(packed, num_rows=n)``
  call, so the search never materializes an (m, n) boolean mask matrix.
  The estimators fold the buffer over L2-sized column blocks of training
  rows (one unpack, cast and product per block; see
  :func:`repro.mining.bitset.column_blocks`), and the exact estimator
  also unpacks each row it solves, one at a time — the packed cost model of
  ``repro.influence.estimators``.
* **per emitted extent** — one broadcast AND + popcount against the
  ``(K, n/8)`` tidlist matrix to recover the closure, then the generator
  replay of :class:`_GeneratorReplay` to pick the reported pattern.

Memory per search path is ``O(depth · n/8)`` for the extents plus the
``O(batch_size · n/8)`` packed buffer, instead of the
``O(level_width · n/8)`` packed rows the lattice holds per level.

Extent identity
---------------
Every frontier child, descent-bar co-parent, level-1 item and replayed
sub-pattern needs a hashable key for its extent.  The search keys it by
``(count, value)``, and what that costs depends on the form the extent
arrives in.  Measured per key in one four-metric ``scale_mining_audit``
grid before the store below existed (dataset 0, seed 0, 54,229 keys;
2-vCPU Xeon VM, timer overhead included):

* an already-sparse index tidlist — a gather-sum over ``count`` values,
  the only ``O(count)`` case: 38 µs (268 keys);
* a packed tidlist whose count is sparse-eligible — an unpack and
  ``flatnonzero`` over its whole space: 30 µs in a projected space
  (22,188 keys), 163 µs for a full-width global row (5,441 keys);
* a dense packed tidlist in the root space — one ``n/8`` copy and a
  hash: 27 µs (20,573 keys);
* a dense packed tidlist in a projected space — the ``(n,)`` global mask
  rebuilt, packed and hashed: 94 µs (5,759 keys).

Those 54,229 keys covered only 7,457 distinct item sets, because a key
depends only on the rows an item set covers, never on the metric, and
the co-parent and replay lookups re-key sets the frontier already keyed.
So the search reads and fills the alphabet's
:class:`~repro.mining.alphabet.ExtentIdentities`: one key per ascending
item path (the count is the key's first element, so a stored child also
skips its popcount), and the generator combos of each emitted extent per
``max_predicates``.  Every query on the alphabet shares it, and an edit
that changes rows empties it, so each distinct item set is keyed once
between edits; ``identity_hits`` / ``identity_misses`` count the lookups.

Conditional-database projection replaces both ``n/8`` terms with
*parent-extent-proportional* ones: a branch whose extent shrinks below
``1/_PROJECT_SHRINK`` of its space is re-packed into a dense local
coordinate space (LCM2-style) carrying the still-extendable items'
tidlists at ``ceil(count/8)`` bytes each, so the per-node AND/popcount
below it costs ``count/8`` — and the one-off projection costs the same
bytes one round of child ANDs would have.  Extent identity is an
O(1)-sized key (a set-homomorphic row digest, or a hash of the global
packed bytes for a dense extent), global tidlists handed to the
estimator switch to the sparse index representation below the
``repro.mining.bitset`` density threshold (the estimator consumes index
batches directly — no pack/unpack round trip), and flush groups are
byte-capped, so the frontier's peak memory is bounded by constants and
by extent sizes, not by the table's row count.  The ``mining.frontier``
span counts the conditional databases it built (``projections``) rather
than opening a span for each.  Representation never reaches the answer:
the projection property suite mines every instance again with
projection and index tidlists switched off and requires identical
candidates.

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
inherent to depth-first search (the engine equivalence suite pins only
fixtures where they never fire):

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
lattice's duplicates, so where the two engines score the same extents
they report them under the same pattern, while the miner evaluates each
distinct extent once.  The gaps above still change answers: on
``load_german(1000, seed=d)`` for d = 0–5 (first-order, τ = 0.05, depth 3,
k = 3) the engines return a different top-3 in 12–15 of 24 (dataset,
metric) cells, depending on the train/test split.  The ROADMAP item "One
candidate engine" tracks closing the gap.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.mining.alphabet import ExtentIdentities, search_alphabet
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
    LevelState,
    PredicateIndex,
    _parent_bar,
)
from repro.patterns.predicate import Predicate
from repro.tabular import Table

if TYPE_CHECKING:  # repro.influence imports repro.mining.bitset
    from repro.influence.estimators import InfluenceEstimator

#: Project a branch once its extent is this many times smaller than its
#: current coordinate space.  Below 1/8 density the re-pack
#: pays for itself within one level: building the conditional database
#: costs one pass over the remaining items' local tidlists — the same
#: bytes a single round of child ANDs would have touched — and every
#: deeper AND, popcount, key, and co-parent lookup then runs over
#: ``count/8`` bytes instead of the parent space's width.
_PROJECT_SHRINK = 8

#: Items per chunk when re-packing a conditional database: bounds the
#: transient unpacked (items, count) bit matrix to chunk·count bytes.
_PROJECT_ITEM_CHUNK = 64

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
        hsource: np.ndarray,
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

    Callers hand in ``(key, global tidlist)`` pairs, keyed by the search's
    digest extent identity.  Tidlists flow to the estimator in
    whatever representation they arrive: packed rows are stacked into one
    ``score_batch(packed, num_rows=n)`` call and sparse index arrays
    go through the estimator's index-streamed batch entry *as indices* —
    no pack/unpack round-trip on either path.  Results are per query: they
    depend on the metric, so unlike extent identities they are never
    shared.
    """

    def __init__(self, estimator: InfluenceEstimator, num_rows: int, batch_size: int) -> None:
        self.estimator = estimator
        self.num_rows = num_rows
        self.batch_size = batch_size
        self.by_key: dict[object, tuple[float, float]] = {}
        self.num_evaluated = 0

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
                    self._store(dense, np.stack([tid for _, tid in dense]))
                if sparse:
                    self._store(sparse, [tid for _, tid in sparse])
                self.num_evaluated += len(chunk)

    def _store(self, pairs: list[tuple[object, np.ndarray]], batch) -> None:
        scores = self.estimator.score_batch(batch, num_rows=self.num_rows)
        for (key, _), resp, dbias in zip(pairs, *scores):
            self.by_key[key] = (float(resp), float(dbias))


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
) -> CandidateResult:
    """Mine all closed candidate explanations of ``table``.

    Parameters mirror :func:`repro.patterns.lattice.compute_candidates`
    exactly — the two are interchangeable candidate searches, and
    :meth:`repro.core.GopherExplainer.explain` calls the one
    ``GopherConfig.engine`` names.  ``batch_size``
    bounds how many extents are buffered per influence call.  ``alphabet`` is
    an optional pre-built :class:`repro.mining.alphabet.PredicateAlphabet`
    whose frequency-ascending packed tidlists and extent identities are
    reused instead of re-generated — how an :class:`repro.core.AuditSession`
    shares one tidlist build and one identity store across every query of
    an audit.  It must have been built for this table's row count and this
    τ, bin count and exclusion set; a mismatch raises ``ValueError`` naming
    the field.

    The search projects a node's extent into a dense local coordinate
    space once it has shrunk below ``1/_PROJECT_SHRINK`` of its current
    space — descendants then pay ``count/8`` bytes per AND — and switches
    tidlists to the sparse index representation for keys, scoring, and
    co-parent lookups where the density rule of ``repro.mining.bitset``
    says indices are cheaper.  Neither changes which nodes are visited or
    what is emitted; they change only representation.

    ``levels`` maps the miner's per-depth accounting onto the lattice's
    Table-7 shape: candidates = nodes surviving pruning at that depth,
    merges tried = attempted extensions, seconds = that depth's share of
    *influence-evaluation* time: each flush of the packed buffer runs in
    one ``mining.batch`` span, whose seconds are split evenly over the
    nodes it scored.  Bitset traversal and the emission replay are not in
    any depth bucket, so the per-depth seconds sum to less than the
    search's wall time — unlike the lattice, whose level seconds are its
    whole ``lattice.level`` spans.  An empty alphabet reports one level-1
    row with zero seconds, since no flush ran.  The number of distinct
    extents visited is the ``closed`` attribute of the ``mining.frontier``
    span, and the number of conditional databases built its
    ``projections``.
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

    alphabet = search_alphabet(table, alphabet, support_threshold, num_bins, exclude_features)
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
        return CandidateResult.of_stats([], [LatticeLevelStats(1, 0, 0, 0.0)])
    num_items = len(predicates)

    # Two-tier extent identity, branch chosen by the *global* density rule
    # so every representation of the same row set lands in the same branch:
    #
    # * sparse-eligible (count·32 ≤ n) — set-homomorphic digest: each row
    #   carries a fixed random 64-bit value and the key is
    #   (count, Σ values mod 2⁶⁴).  O(count) from an index tidlist, an
    #   unpack over the tidlist's space from a packed one;
    #   coordinate-space independent, O(8n) to store the values once.
    # * dense — (count, hash of the global packed bytes): one n/8 copy in
    #   the root space, a rebuilt (n,) global mask in a projected one (the
    #   module docstring lists measured costs).  Only the 64-bit hash is
    #   retained, so the survived/defeated caches stay O(1) per extent
    #   either way.
    #
    # A sparse-eligible extent can never be packed-keyed (or vice versa):
    # eligibility depends only on the count, which both branches carry.  A
    # collision needs two same-size extents whose digests or byte hashes
    # agree mod 2⁶⁴: union-bound ≈ (#distinct extents)² / 2⁶⁵, vanishing
    # for any feasible search, and a false merge only skips one subtree
    # re-walk.
    #
    # The alphabet's identity store holds the seeded row values and one
    # key per item path for every query on the alphabet; each lookup below
    # reads it before it intersects or keys anything.
    store = alphabet.extent_identities()
    hsource = store.hvals
    root_space = _Space(None, num_rows, 0, tids, 0, None, hsource)

    def space_key(tid: np.ndarray, space: _Space, count: int | None = None):
        """Hashable global identity of a tidlist local to ``space``."""
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
        """Key of a tidlist already in global coordinates (the replay's view)."""
        return space_key(tid, root_space)

    # Hot-loop event tallies, flushed to the alphabet's StatsView once per
    # search (a registry bump per lattice node would put a lock in the
    # innermost loop).
    counters = {
        "projection_builds": 0,
        "tidlist_compressions": 0,
        "sparse_dispatch_hits": 0,
        "dense_dispatch_hits": 0,
        "identity_hits": 0,
        "identity_misses": 0,
    }
    # Set on the ``mining.frontier`` span: one span per node would outnumber
    # the subsets scored.
    coparent_nodes = coparents_built = coparent_hits = 0

    def path_key(path: tuple[int, ...], tid: np.ndarray, space: _Space, count=None):
        """``space_key`` of item path ``path``'s extent ``tid``, through the
        identity store."""
        key = store.key_of(path)
        if key is None:
            key = space_key(tid, space, count)
            store.add_key(path, key)
            counters["identity_misses"] += 1
        else:
            counters["identity_hits"] += 1
        return key

    def project(node: _Node) -> _Space:
        """Re-pack ``node``'s extent into a dense local space (the
        conditional database of its branch)."""
        space = node.space
        base = node.last_item + 1
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
        directly); denser ones as a packed global row.
        """
        space = node.space
        if space.rows is None:
            if is_sparse(node.extent):
                return node.extent.astype(sparse_index_dtype(num_rows), copy=False)
            if sparse_eligible(node.count, num_rows):
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

    cache = _InfluenceCache(estimator, num_rows, batch_size)
    # Level-1 pre-pass: every distinct item extent in one batched sweep —
    # the same influence work Algorithm 1 spends on level 1, minus
    # duplicate extents — so every deeper node can form its pruning bar
    # from its extension item's responsibility.  Each item is keyed once.
    item_keys = [path_key((j,), tids[j], root_space) for j in range(num_items)]
    cache.evaluate_pairs(list(zip(item_keys, tids)))
    item_resp = np.array([cache.by_key[key][0] for key in item_keys])

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
    survived: dict[object, float] = {}
    defeated: set[object] = set()

    def children(node: _Node) -> list[_Node]:
        nonlocal coparent_nodes, coparents_built, coparent_hits
        out: list[_Node] = []
        siblings: set[object] = set()
        space = node.space
        if node.last_item + 1 >= num_items:
            return out
        # Branch projection: once an extent has shrunk well below its
        # current coordinate space, re-pack it so every descendant AND and
        # popcount runs over count/8 bytes.  The root level never projects
        # (children of the root are the items themselves).
        if node.depth >= 1 and node.count * _PROJECT_SHRINK <= space.num_local:
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
            coparent_nodes += 1
            coparents_built += node.depth
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
                    if sparse_eligible(int(popcount(co)), anc.num_local):
                        co = np.flatnonzero(unpack_rows(co, anc.num_local))
                        counters["tidlist_compressions"] += 1
                else:
                    # Every kept item is conditioned into the ancestor
                    # space itself: the co-parent is the whole space.
                    co = None
                co_parents.append((anc, co))
        for j in range(node.last_item + 1, num_items):
            tried.add(node.depth + 1, 1)
            path = node.items + (j,)
            # A stored key carries the child's count, so a hit skips both
            # the popcount and the key.
            known = store.key_of(path)
            if child_counts is not None:
                extent = child_space.tids[j - child_space.base]
                count = int(child_counts[j - child_space.base])
            else:
                extent = intersect(node.extent, space.tid(j))
                count = int(popcount(extent)) if known is None else known[0]
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
            if not is_sparse(extent) and sparse_eligible(count, child_space.num_local):
                # Density-adaptive node extents: below the cutoff the
                # surviving extent switches to index form at creation —
                # its key costs O(count) instead of an O(num_local) member
                # extraction, descendant ANDs become bit gathers, and the
                # estimator consumes the indices directly at scoring time.
                extent = to_sparse(extent, child_space.num_local)
                counters["tidlist_compressions"] += 1
            if known is None:
                key = path_key(path, extent, child_space, count)
            else:
                key = known
                counters["identity_hits"] += 1
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
                for drop, (anc, co) in enumerate(co_parents):
                    sub_path = node.items[:drop] + node.items[drop + 1 :] + (j,)
                    sub_key = store.key_of(sub_path)
                    if sub_key is not None:
                        # Keyed before — usually as a child, since the LIFO
                        # frontier expands larger items first: no AND.
                        coparent_hits += 1
                        counters["identity_hits"] += 1
                    else:
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
                        store.add_key(sub_path, sub_key)
                        counters["identity_misses"] += 1
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
                    path,
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
            with trace.span("mining.batch", nodes=len(batch)) as batch_span:
                # Expand local extents to global tidlists in byte-capped
                # groups: the global forms are scoring transients, so the
                # flush never holds batch_size full-width rows at once — the
                # peak the memory-bound benchmark asserts on.
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
            flush_seconds = batch_span.seconds
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
            closed=len(visited_keys),
            emitted=len(emitted),
            evaluated=cache.num_evaluated,
            identity_hits=counters["identity_hits"],
            identity_misses=counters["identity_misses"],
            projections=counters["projection_builds"],
            coparent_nodes=coparent_nodes,
            coparents_built=coparents_built,
            coparent_hits=coparent_hits,
        )
    replay = _GeneratorReplay(
        predicates,
        tids,
        cache,
        global_key,
        max_predicates,
        prune_by_responsibility,
        max_responsibility,
        store,
    )
    # The result's id rows number the items in canonical sort-key order.
    index, canonical = PredicateIndex.of(predicates)
    canonical = canonical.tolist()
    rows = np.full((len(emitted), max_predicates), -1, dtype=np.int64)
    packed = np.empty((len(emitted), tids.shape[1]), dtype=np.uint8)
    reported: list[_Node] = []
    with trace.span("mining.replay", extents=len(emitted)) as replay_span:
        for node in emitted:
            # Emitted extents leave their local coordinate space here: the
            # replay gets the density-canonical global tidlist (covers_all
            # dispatches on it) and the result the packed global mask.
            gtid = global_tid(node)
            combo = replay.representative(node.key, gtid, node.count)
            if combo is None:
                # Every generator of this extent fails the lattice's strict
                # improvement test against its own sub-patterns; Algorithm 1
                # would not have emitted any pattern for it.
                continue
            rows[len(reported), : len(combo)] = sorted(canonical[j] for j in combo)
            packed[len(reported)] = to_packed(gtid, num_rows)
            reported.append(node)
        replay_span.set(identity_hits=replay.hits, identity_misses=replay.misses)
    counters["identity_hits"] += replay.hits
    counters["identity_misses"] += replay.misses
    alphabet.record_mining_counters(**counters)
    levels = [
        LatticeLevelStats(
            depth, int(survivors.get(depth)), int(tried.get(depth)), seconds.get(depth)
        )
        for depth in range(1, max_predicates + 1)
        if tried.get(depth) or survivors.get(depth) or depth == 1
    ]
    block = LevelState(
        rows[: len(reported)],
        packed[: len(reported)],
        np.array([node.count for node in reported], dtype=np.int64),
        np.array([node.responsibility for node in reported], dtype=np.float64),
        np.array([node.bias_change for node in reported], dtype=np.float64),
    )
    return CandidateResult.of_blocks(index, [block], num_rows, levels, cache.num_evaluated)


# ----------------------------------------------------------------------
@dataclass
class _DepthCounter:
    values: dict[int, float] = field(default_factory=dict)

    def add(self, depth: int, amount: float) -> None:
        self.values[depth] = self.values.get(depth, 0.0) + amount

    def get(self, depth: int) -> float:
        return self.values.get(depth, 0.0)


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

    Sub-pattern responsibilities are read from the miner's extent cache by
    extent key; sub-extents the traversal never scored (their canonical
    closed node fell to support pruning of a different branch shape) are
    evaluated lazily in one batched query per node — extents the lattice
    paid for as ordinary level-(k−1) candidates anyway.

    ``store`` is the alphabet's
    :class:`~repro.mining.alphabet.ExtentIdentities`.  A sub-pattern's key
    is read from it by the combo's ascending item path, and an extent's
    generator combos by ``(max_predicates, extent key)``.  So a replay ANDs
    and keys only the sub-extents no query of the session has keyed, and
    enumerates only the generator sets no query has enumerated.  ``hits``
    and ``misses`` tally the key lookups.
    """

    def __init__(
        self,
        predicates: list[Predicate],
        tids: np.ndarray,
        cache: _InfluenceCache,
        key_fn,
        max_predicates: int,
        prune_by_responsibility: bool,
        max_responsibility: float,
        store: ExtentIdentities,
    ) -> None:
        self.predicates = predicates
        self.tids = tids
        self.cache = cache
        self.key_fn = key_fn
        self.max_predicates = max_predicates
        self.prune_by_responsibility = prune_by_responsibility
        self.max_responsibility = max_responsibility
        self.store = store
        self._survives: dict[tuple[int, ...], bool] = {}
        self.hits = self.misses = 0

    # -- generator enumeration -----------------------------------------
    def _pattern_key(self, combo: tuple[int, ...]) -> tuple:
        return tuple(self.predicates[j].sort_key() for j in combo)

    def _extent_of(self, combo) -> np.ndarray:
        extent = self.tids[combo[0]]
        for j in combo[1:]:
            extent = extent & self.tids[j]
        return extent

    def _identity(self, combo: tuple[int, ...]) -> tuple[object, np.ndarray | None]:
        """``(key, extent)`` of ``combo``'s item set; ``extent`` is None when
        the identity store already held the key, so no AND ran."""
        path = tuple(sorted(combo))
        key = self.store.key_of(path)
        if key is not None:
            self.hits += 1
            return key, None
        extent = self._extent_of(combo)
        key = self.key_fn(extent)
        self.store.add_key(path, key)
        self.misses += 1
        return key, extent

    def _responsibility(self, combo: tuple[int, ...]) -> float | None:
        found = self.cache.by_key.get(self._identity(combo)[0])
        return None if found is None else found[0]

    def _generators(self, extent: np.ndarray, count: int) -> tuple[tuple[int, ...], ...]:
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
        return tuple(generators)

    # -- the survival replay -------------------------------------------
    def _ensure_scored(self, combos: tuple[tuple[int, ...], ...]) -> None:
        """Lazily score every sub-pattern extent the replay will consult."""
        needed: list[tuple[object, np.ndarray]] = []
        for combo in combos:
            stack = [combo]
            while stack:
                current = stack.pop()
                if len(current) < 2 or current in self._survives:
                    continue
                key, extent = self._identity(current)
                if key not in self.cache.by_key:
                    needed.append((key, self._extent_of(current) if extent is None else extent))
                for drop in range(len(current)):
                    stack.append(current[:drop] + current[drop + 1 :])
        self.cache.evaluate_pairs(needed)

    def survives(self, combo: tuple[int, ...]) -> bool:
        if len(combo) == 1:
            return True
        cached = self._survives.get(combo)
        if cached is not None:
            return cached
        responsibility = self._responsibility(combo)
        assert responsibility is not None  # _ensure_scored ran first
        parents = [combo[:drop] + combo[drop + 1 :] for drop in range(len(combo))]
        surviving = [p for p in parents if self.survives(p)]
        formable = len(combo) == 2 or len(surviving) >= 2
        bars = [
            resp
            for p in surviving
            if (resp := self._responsibility(p)) is not None
            and 0.0 < resp <= self.max_responsibility
        ]
        alive = formable and (not bars or responsibility > max(bars))
        self._survives[combo] = alive
        return alive

    def representative(self, key, extent: np.ndarray, count: int) -> tuple[int, ...] | None:
        """The item combo of the surviving pattern Algorithm 2 would pick for
        the extent with identity ``key``, or None if the lattice's pruning
        leaves no pattern for it."""
        generators = self.store.generators_of(self.max_predicates, key)
        if generators is None:
            generators = self._generators(extent, count)
            self.store.add_generators(self.max_predicates, key, generators)
        if not self.prune_by_responsibility:
            # Without heuristic 2 the lattice emits redundant-predicate
            # patterns too; the tie-break ranges over all generators.
            return min(generators, key=self._pattern_key)
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
                return combo
        return None
