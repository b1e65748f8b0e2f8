"""Per-dataset cache of the level-1 predicate alphabet and packed tidlists.

Both candidate-generation backends start from the same state: every single
predicate whose support strictly exceeds τ, with its boolean row mask —
the lattice's level 1 and the miner's item alphabet.  Building it scans
every column, bins every numeric feature, and materializes one (n,) mask
per predicate; the miner additionally sorts the alphabet
frequency-ascending and packs the masks into the (K, ceil(n/8)) tidlist
matrix its bitset traversal runs on.  None of that depends on the model,
the metric, or the protected group — only on the training table and the
generation parameters (τ, bins, excluded features) — so an interactive
audit re-running the search for every (metric, group, engine) pair
should pay it once.

:class:`PredicateAlphabet` is the built state for one parameter key;
:class:`AlphabetCache` owns one table and hands out alphabets keyed by
``(support_threshold, num_bins, exclude_features)`` — the exclude part
normalized through
:func:`repro.patterns.candidates.normalize_exclude_features`, so lists,
tuples, sets, and single names all hit one cache entry.  Both engines
accept a cache through their ``generate(..., alphabet_cache=...)``
parameter (:class:`repro.core.AuditSession` threads one through every
query); without a cache each search builds a throwaway alphabet.

Under a :class:`repro.datasets.DataEdit` the cache is *patched*, not
rebuilt: every predicate's mask keeps its bits for surviving rows, gains
fresh bits only for added rows, and the support filter re-runs over the
patched masks.  The pattern *language* is frozen: predicates — including
the quantile bin edges baked into numeric thresholds — are part of the
cached artifact and are deliberately not re-derived from the edited
table.  Re-deriving them would shift every data-dependent threshold by a
hair on each small edit (``amount >= 2692`` becoming ``amount >= 2680``
after dropping seven rows), making before/after explanations
incomparable and incremental re-certification impossible; a stable
language is what lets :meth:`repro.core.AuditSession.delta_audit` report
per-rank diffs that mean something.  A relabel-only edit leaves the
table (and therefore every mask) untouched.  Rebuild the session when
the cumulative edit volume warrants re-binning.

``stats`` counts ``alphabet_builds`` / ``tidlist_builds`` (full builds)
and ``alphabet_patches`` / ``tidlist_patches`` (edit-time patches), so the
audit and delta-audit benchmarks can assert a whole multi-query audit
built each exactly once — and that re-audits after an edit built nothing.
"""

from __future__ import annotations

import threading
from collections.abc import MutableMapping

import numpy as np

from repro.mining.bitset import pack_rows, packed_width, popcount, unpack_rows
from repro.obs import trace
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.patterns.candidates import iter_predicate_specs, normalize_exclude_features
from repro.patterns.predicate import Predicate
from repro.tabular import Table

#: Above this row count the alphabet stores *packed* masks and builds them
#: by streaming row blocks off the table — the (K, n) bool dict would cost
#: K·n bytes (tens of GB at 10M rows × 60 predicates) where packed costs
#: K·n/8.
_PACKED_AUTO_ROWS = 1_000_000

#: Rows per streamed block (a multiple of 8, so every block but the last
#: packs to a whole number of bytes and block outputs concatenate exactly).
_BLOCK_ROWS = 262_144


class PredicateAlphabet:
    """The level-1 search state for one (table, τ, bins, exclude) key.

    ``entries`` is the list of ``(predicate, mask)`` pairs both engines
    consume, full-coverage predicates already dropped (they "remove the
    entire data" and have no explanatory value); ``num_generated`` keeps
    the pre-filter count the lattice reports as level-1 merges tried.
    Masks are shared read-only across queries — consumers combine them
    with fresh ANDs and never mutate them in place.  Every search and
    cache path builds its level 1 here, so this constructor is where a τ
    outside [0, 1) is rejected.

    Every evaluated mask — including below-support ones — is retained in
    ``_evaluated``: an edit can push a predicate across the support
    threshold in either direction, so :meth:`apply_edit` must re-filter
    the *full* spec set, not just the surviving entries.

    Above ``_PACKED_AUTO_ROWS`` rows (or with ``packed=True``) the
    alphabet stores packed ``uint8`` masks instead of booleans and builds
    them by streaming row blocks off the table (:meth:`_build_packed`) —
    the out-of-core mode the million-row miner runs on.  ``entries`` then
    holds packed rows; consumers that require boolean masks (the lattice,
    the delta-replay path) must check :attr:`packed` and refuse rather
    than misread bytes as booleans.  The miner is representation-agnostic:
    :meth:`miner_items` already serves packed tidlists in both modes.
    """

    def __init__(
        self,
        table: Table,
        support_threshold: float,
        num_bins: int,
        exclude_features=None,
        stats: MutableMapping[str, int] | None = None,
        packed: bool | None = None,
        block_rows: int | None = None,
    ) -> None:
        if not 0.0 <= support_threshold < 1.0:
            raise ValueError(f"support_threshold must be in [0, 1), got {support_threshold}")
        self.support_threshold = float(support_threshold)
        self.num_bins = int(num_bins)
        self.exclude_features = normalize_exclude_features(exclude_features)
        self._stats = stats if stats is not None else StatsView(namespace="mining")
        self._stats.setdefault("tidlist_builds", 0)
        self._stats.setdefault("tidlist_patches", 0)
        self._stats.setdefault("skeleton_builds", 0)
        self._stats.setdefault("block_streams", 0)
        self._stats.setdefault("projection_builds", 0)
        self._stats.setdefault("tidlist_compressions", 0)
        self._stats.setdefault("sparse_dispatch_hits", 0)
        self._stats.setdefault("dense_dispatch_hits", 0)
        self.packed = bool(
            packed if packed is not None else table.num_rows >= _PACKED_AUTO_ROWS
        )
        self._block_rows = int(block_rows) if block_rows else _BLOCK_ROWS
        if self._block_rows % 8:
            raise ValueError(f"block_rows must be a multiple of 8, got {self._block_rows}")
        self._evaluated: dict[Predicate, np.ndarray] = {}
        self._build(table)
        self._miner_items: tuple[list[Predicate], np.ndarray] | None = None
        self._skeleton: tuple[np.ndarray, np.ndarray] | None = None
        # Guards the lazy views (miner_items / pair_skeleton) so a cold
        # alphabet shared across threads builds each exactly once.
        self._lock = threading.Lock()

    def _build(self, table: Table) -> None:
        """Evaluate every spec of ``table`` in canonical order — the full build."""
        if self.packed:
            self._build_packed(table)
            return
        with trace.span("alphabet.build", rows=table.num_rows) as s:
            evaluated: dict[Predicate, np.ndarray] = {}
            for predicate in iter_predicate_specs(table, self.num_bins, self.exclude_features):
                if predicate not in evaluated:
                    evaluated[predicate] = predicate.mask(table)
            self._evaluated = evaluated
            self.num_rows = table.num_rows
            self._filter_entries()
            s.set(predicates=len(evaluated), entries=len(self.entries))

    def _build_packed(self, table: Table) -> None:
        """The out-of-core build: stream row blocks, store packed masks.

        Specs are derived once from the full table (bin edges need the whole
        column), then each block of ``_block_rows`` rows is materialized as a
        sub-table and every predicate evaluated against it; the block's bits
        land in the predicate's packed buffer at ``block_start // 8``.  Peak
        transient memory is one block's sub-table plus one ``(block_rows,)``
        bool mask — independent of ``n`` — on top of the ``K · n/8`` packed
        output that *is* the alphabet.
        """
        with trace.span("alphabet.block_build", rows=table.num_rows) as s:
            n = table.num_rows
            width = packed_width(n)
            specs = list(
                dict.fromkeys(
                    iter_predicate_specs(table, self.num_bins, self.exclude_features)
                )
            )
            evaluated: dict[Predicate, np.ndarray] = {
                predicate: np.zeros(width, dtype=np.uint8) for predicate in specs
            }
            blocks = 0
            for start in range(0, n, self._block_rows):
                stop = min(start + self._block_rows, n)
                block = table.take(np.arange(start, stop))
                for predicate in specs:
                    packed = np.packbits(predicate.mask(block))
                    evaluated[predicate][start // 8 : start // 8 + packed.size] = packed
                blocks += 1
            self._evaluated = evaluated
            self.num_rows = n
            self._filter_entries()
            self._stats.inc("block_streams", blocks)
            s.set(
                predicates=len(evaluated),
                entries=len(self.entries),
                blocks=blocks,
                block_rows=self._block_rows,
            )

    def _support_count(self, mask: np.ndarray) -> int:
        """Covered-row count of a stored mask in either representation,
        pinned to a python int (no 32-bit accumulator on any path)."""
        return int(popcount(mask)) if self.packed else int(mask.sum(dtype=np.int64))

    def _filter_entries(self) -> None:
        """Re-run the support filter over ``_evaluated`` (canonical order)."""
        n = self.num_rows
        singles = [
            (predicate, mask, count)
            for predicate, mask in self._evaluated.items()
            for count in (self._support_count(mask),)
            if count / n > self.support_threshold
        ]
        self.num_generated = len(singles)
        self.entries: list[tuple[Predicate, np.ndarray]] = [
            (predicate, mask) for predicate, mask, count in singles if count != n
        ]

    # ------------------------------------------------------------------
    def apply_edit(self, edit, new_table: Table) -> None:
        """Patch the alphabet for a :class:`repro.datasets.DataEdit`.

        Surviving rows keep their evaluated bits (``mask[keep]``), added
        rows are evaluated only against the small added sub-table, and the
        support filter re-runs over the patched masks.  The predicate set
        itself is frozen — bin edges are *not* re-derived from the edited
        table (see the module docstring for why), so an edit can move
        predicates across the support threshold but never mint or retire
        specs.  Relabel-only edits are a no-op (a predicate mask never
        depends on labels).  A previously-built miner view is re-packed
        from the patched masks (``tidlist_patches``), never re-derived
        from scratch.
        """
        if new_table.num_rows != self.num_rows - edit.num_removed + edit.num_added:
            raise ValueError(
                f"edited table has {new_table.num_rows} rows; expected "
                f"{self.num_rows - edit.num_removed + edit.num_added} from {edit}"
            )
        if not edit.changes_rows:
            return
        keep = np.ones(self.num_rows, dtype=bool)
        if edit.num_removed:
            keep[list(edit.remove_indices)] = False
        patched: dict[Predicate, np.ndarray] = {}
        for predicate, mask in self._evaluated.items():
            if self.packed:
                # One predicate at a time: the O(n) bool form is a transient,
                # never K of them at once.
                new_mask = unpack_rows(mask, self.num_rows)[keep]
                if edit.num_added:
                    new_mask = np.concatenate([new_mask, predicate.mask(edit.add_table)])
                patched[predicate] = pack_rows(new_mask)
                continue
            new_mask = mask[keep]
            if edit.num_added:
                new_mask = np.concatenate([new_mask, predicate.mask(edit.add_table)])
            patched[predicate] = new_mask
        old_entry_predicates = [predicate for predicate, _ in self.entries]
        self._evaluated = patched
        self.num_rows = new_table.num_rows
        self._filter_entries()
        if old_entry_predicates != [predicate for predicate, _ in self.entries]:
            # The support filter moved an entry in or out: the level-2
            # merge skeleton no longer describes the entry list.
            self._skeleton = None
        if self._miner_items is not None:
            self._miner_items = self._pack_items()
            self._stats.inc("tidlist_patches")

    # ------------------------------------------------------------------
    def _pack_items(self) -> tuple[list[Predicate], np.ndarray]:
        ordered = sorted(
            self.entries,
            key=lambda pair: (self._support_count(pair[1]), pair[0].sort_key()),
        )
        predicates = [predicate for predicate, _ in ordered]
        if not ordered:
            tids = np.zeros((0, (self.num_rows + 7) // 8), dtype=np.uint8)
        elif self.packed:
            tids = np.stack([mask for _, mask in ordered])
        else:
            tids = pack_rows(np.stack([mask for _, mask in ordered]))
        return predicates, tids

    def pair_skeleton(self) -> tuple[np.ndarray, np.ndarray]:
        """The structural level-2 merge skeleton over the current entries.

        Returns ``(left, right)``: for every entry index pair ``i < j`` (in
        the lattice's enumeration order) whose merge is a genuine
        two-predicate, satisfiable, not-yet-seen pattern, the parallel
        entry index arrays — the lattice's own level-2 enumeration
        (:func:`repro.patterns.lattice.merge_pairs`), so skeleton order is
        the order of ``LatticeRecord.pair_left/right``.  Pair ``(i, j)``
        is the pattern of entries i and j's predicates; callers build
        :class:`Pattern` objects only for the pairs they report.  The
        skeleton depends only on the entry *predicates* — never on masks or
        data — so it survives edits as long as the entry list does;
        :meth:`apply_edit` invalidates it when the support filter changes
        the entries.  Built lazily and cached: the incremental delta-audit
        path replays one search's worth of structural work here once, then
        reuses it across every (metric, estimator) query and every
        subsequent edit.
        """
        if self._skeleton is None:
            with self._lock:
                if self._skeleton is None:
                    from repro.patterns.lattice import PredicateIndex, merge_pairs

                    trace.add("cache_misses")
                    index, ids = PredicateIndex.of([predicate for predicate, _ in self.entries])
                    left, right, _, _ = merge_pairs(ids[:, None], index.conflicts)
                    self._skeleton = (left, right)
                    self._stats.inc("skeleton_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._skeleton

    def miner_items(self) -> tuple[list[Predicate], np.ndarray]:
        """The miner's view: frequency-ascending predicates + packed tids.

        Built lazily (lattice-only workloads never pack) and cached — the
        sort order and the (K, ceil(n/8)) uint8 tidlist matrix are
        deterministic functions of the alphabet, so one build serves every
        mining query of the audit.  See :mod:`repro.mining.closed` for why
        the order must be frequency-ascending with sort-key tie-breaks.
        """
        if self._miner_items is None:
            with self._lock:
                if self._miner_items is None:
                    trace.add("cache_misses")
                    with trace.span("alphabet.pack_tidlists", entries=len(self.entries)):
                        self._miner_items = self._pack_items()
                    self._stats.inc("tidlist_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return self._miner_items

    def warm(self, miner: bool = True, skeleton: bool = False) -> "PredicateAlphabet":
        """Eagerly build the lazy views so shared reads never trigger a build.

        ``miner`` packs the tidlist matrix (what the bitset engine reads);
        ``skeleton`` additionally enumerates the level-2 merge skeleton the
        incremental delta path replays.  Idempotent — each build is counted
        by its own stats entry exactly once.
        """
        if miner:
            _ = self.miner_items()
        if skeleton:
            _ = self.pair_skeleton()
        return self

    def record_mining_counters(
        self,
        projection_builds: int = 0,
        tidlist_compressions: int = 0,
        sparse_dispatch_hits: int = 0,
        dense_dispatch_hits: int = 0,
        block_streams: int = 0,
    ) -> None:
        """Flush one search's worth of mining-layer counters.

        The miner tallies its hot-loop events (conditional-database
        projections, dense→sparse tidlist compressions, representation
        dispatch hits) in plain local ints — bumping the lock-protected
        registry per lattice node would put a mutex in the innermost loop —
        and flushes them here once per search, so the benchmarks and RL002
        see them through the same :class:`~repro.obs.metrics.StatsView` as
        every other mining counter.
        """
        if projection_builds:
            self._stats.inc("projection_builds", projection_builds)
        if tidlist_compressions:
            self._stats.inc("tidlist_compressions", tidlist_compressions)
        if sparse_dispatch_hits:
            self._stats.inc("sparse_dispatch_hits", sparse_dispatch_hits)
        if dense_dispatch_hits:
            self._stats.inc("dense_dispatch_hits", dense_dispatch_hits)
        if block_streams:
            self._stats.inc("block_streams", block_streams)


class AlphabetCache:
    """Alphabets of one training table, shared across search queries.

    The cache is bound to a table *instance*: engines handed a cache for a
    different table refuse it rather than silently serving masks for the
    wrong rows.  :meth:`apply_edit` rebinds the cache to the edited table
    after patching every cached alphabet in place.
    """

    def __init__(self, table: Table, metrics: MetricsRegistry | None = None) -> None:
        self.table = table
        self._alphabets: dict[tuple, PredicateAlphabet] = {}
        # Guards cache population so concurrent cold queries on a shared
        # session build one alphabet per key, not one per thread.
        self._lock = threading.Lock()
        self.stats = StatsView(
            {
                "alphabet_builds": 0,
                "tidlist_builds": 0,
                "skeleton_builds": 0,
                "alphabet_patches": 0,
                "tidlist_patches": 0,
                "block_streams": 0,
                "projection_builds": 0,
                "tidlist_compressions": 0,
                "sparse_dispatch_hits": 0,
                "dense_dispatch_hits": 0,
            },
            registry=metrics,
            namespace="mining",
        )

    def get(
        self,
        support_threshold: float,
        num_bins: int = 4,
        exclude_features=None,
    ) -> PredicateAlphabet:
        """The (cached) alphabet for one parameter combination.

        ``exclude_features`` is normalized before keying: ``["a", "b"]``,
        ``("b", "a")``, ``{"a", "b"}``, and repeated calls with any of them
        all resolve to one entry (and a single name is treated as one
        column, not a character set).
        """
        exclude = normalize_exclude_features(exclude_features)
        key = (float(support_threshold), int(num_bins), exclude)
        alphabet = self._alphabets.get(key)
        if alphabet is None:
            with self._lock:
                alphabet = self._alphabets.get(key)
                if alphabet is None:
                    trace.add("cache_misses")
                    alphabet = PredicateAlphabet(
                        self.table, support_threshold, num_bins, exclude, self.stats
                    )
                    self._alphabets[key] = alphabet
                    self.stats.inc("alphabet_builds")
                else:
                    trace.add("cache_hits")
        else:
            trace.add("cache_hits")
        return alphabet

    def apply_edit(self, edit, new_table: Table) -> None:
        """Patch every cached alphabet for ``edit`` and rebind to ``new_table``.

        Row-changing edits patch each alphabet (counted under
        ``alphabet_patches``); relabel-only edits leave masks untouched.
        ``new_table`` must be the edited table the session now serves —
        for relabel-only edits that is the *same* table instance, so
        :meth:`check_table`'s identity check keeps passing.
        """
        if edit.changes_rows:
            for alphabet in self._alphabets.values():
                with trace.span("alphabet.patch", rows=new_table.num_rows):
                    alphabet.apply_edit(edit, new_table)
                self.stats.inc("alphabet_patches")
        self.table = new_table

    def check_table(self, table: Table) -> None:
        """Raise unless ``table`` is the table this cache was built on."""
        if table is not self.table:
            raise ValueError(
                "alphabet cache was built for a different table; per-dataset caches "
                "cannot be shared across training tables"
            )


def resolve_alphabet(
    table: Table,
    alphabet_cache: AlphabetCache | None,
    support_threshold: float,
    num_bins: int,
    exclude_features,
) -> PredicateAlphabet:
    """One alphabet for a search: from the cache if given, else throwaway."""
    if alphabet_cache is None:
        return PredicateAlphabet(table, support_threshold, num_bins, exclude_features)
    alphabet_cache.check_table(table)
    return alphabet_cache.get(support_threshold, num_bins, exclude_features)
