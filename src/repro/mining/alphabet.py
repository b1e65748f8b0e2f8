"""Per-dataset cache of the level-1 predicate alphabet as packed tidlists.

Both candidate searches start from the same state: every single predicate
whose support strictly exceeds τ, with its row mask stored as a packed
``uint8`` row of ``ceil(n/8)`` bytes — the lattice's level 1 and the
miner's item alphabet.  Building it scans every column, bins every numeric
feature, and evaluates one predicate at a time, packing each mask as soon
as it is evaluated, so one ``(n,)`` boolean array is alive at a time; the
miner additionally sorts the alphabet frequency-ascending and stacks the
rows into the (K, ceil(n/8)) tidlist matrix its bitset traversal runs on.
None of that depends on the model, the metric, or the protected group —
only on the training table and the generation parameters (τ, bins,
excluded features) — so an interactive audit re-running the search for
every (metric, group, engine) pair should pay it once.

:class:`PredicateAlphabet` is the built state for one parameter key;
:class:`AlphabetCache` owns one table and hands out alphabets keyed by
``(support_threshold, num_bins, exclude_features)`` — the exclude part
normalized through
:func:`repro.patterns.candidates.normalize_exclude_features`, so lists,
tuples, sets, and single names all hit one cache entry.
:meth:`repro.core.GopherExplainer.explain` resolves the session's alphabet
through :func:`resolve_alphabet` and hands it to either search; without
one, each search builds a throwaway alphabet.

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

The closed miner keeps its *extent identities* here too
(:class:`ExtentIdentities`): the rows an item set covers are a function of
the alphabet alone, so every query of the session reads the same keys.

``stats`` counts ``alphabet_builds`` / ``tidlist_builds`` /
``identity_builds`` (full builds) and ``alphabet_patches`` /
``tidlist_patches`` (edit-time patches), so the audit and delta-audit
benchmarks can assert a whole multi-query audit built each exactly once —
and that re-audits after an edit built nothing.
"""

from __future__ import annotations

from collections.abc import MutableMapping

import numpy as np

from repro.mining.bitset import pack_rows, packed_width, popcount, unpack_rows
from repro.obs import trace
from repro.obs.lazy import Lazy
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.patterns.candidates import iter_predicate_specs, normalize_exclude_features
from repro.patterns.predicate import Predicate
from repro.tabular import Table


class PredicateAlphabet:
    """The level-1 search state for one (table, τ, bins, exclude) key.

    ``entries`` is the list of ``(predicate, mask)`` pairs both searches
    consume, full-coverage predicates already dropped (they "remove the
    entire data" and have no explanatory value).  Every mask is a packed
    ``uint8`` row of ``ceil(n/8)`` bytes
    (:func:`~repro.mining.bitset.pack_rows`;
    :func:`~repro.mining.bitset.unpack_rows` reads it back).
    ``num_generated`` keeps the pre-filter count the lattice reports as
    level-1 merges tried.  Masks are shared read-only across queries —
    consumers combine them with fresh ANDs and never mutate them in place.
    Every search and cache path builds its level 1 here, so this
    constructor is where a τ outside [0, 1) is rejected.

    Every evaluated mask — including below-support ones — is retained in
    ``_evaluated``: an edit can push a predicate across the support
    threshold in either direction, so :meth:`apply_edit` must re-filter
    the *full* spec set, not just the surviving entries.

    Three views are :class:`~repro.obs.lazy.Lazy` slots, built once per
    alphabet and shared by every query: :meth:`miner_items` (the miner's
    sorted, stacked tidlists), :meth:`pair_skeleton` (the lattice's level-2
    merge pairs) and :meth:`extent_identities` (the miner's extent
    keys and generator sets).  :meth:`warm` builds them up front.  An edit
    that changes rows re-stacks a built miner view, replaces a built
    identity store with an empty one, and drops the skeleton when the
    entry list changed.
    """

    def __init__(
        self,
        table: Table,
        support_threshold: float,
        num_bins: int,
        exclude_features=None,
        stats: MutableMapping[str, int] | None = None,
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
        self._stats.setdefault("projection_builds", 0)
        self._stats.setdefault("tidlist_compressions", 0)
        self._stats.setdefault("sparse_dispatch_hits", 0)
        self._stats.setdefault("dense_dispatch_hits", 0)
        self._stats.setdefault("identity_builds", 0)
        self._stats.setdefault("identity_hits", 0)
        self._stats.setdefault("identity_misses", 0)
        self._evaluated: dict[Predicate, np.ndarray] = {}
        self._build(table)
        self._miner_items = Lazy("alphabet.pack_tidlists", self._stats, "tidlist_builds")
        self._skeleton = Lazy("alphabet.pair_skeleton", self._stats, "skeleton_builds")
        self._identities = Lazy("alphabet.extent_identities", self._stats, "identity_builds")

    def _build(self, table: Table) -> None:
        """Evaluate and pack every spec of ``table`` in canonical order."""
        with trace.span("alphabet.build", rows=table.num_rows) as s:
            evaluated: dict[Predicate, np.ndarray] = {}
            for predicate in iter_predicate_specs(table, self.num_bins, self.exclude_features):
                if predicate not in evaluated:
                    evaluated[predicate] = pack_rows(predicate.mask(table))
            self._evaluated = evaluated
            self.num_rows = table.num_rows
            self._filter_entries()
            s.set(predicates=len(evaluated), entries=len(self.entries))

    def _filter_entries(self) -> None:
        """Re-run the support filter over ``_evaluated`` (canonical order)."""
        n = self.num_rows
        singles = [
            (predicate, mask, count)
            for predicate, mask in self._evaluated.items()
            for count in (popcount(mask),)
            if count / n > self.support_threshold
        ]
        self.num_generated = len(singles)
        self.entries: list[tuple[Predicate, np.ndarray]] = [
            (predicate, mask) for predicate, mask, count in singles if count != n
        ]

    # ------------------------------------------------------------------
    def apply_edit(self, edit, new_table: Table) -> None:
        """Patch the alphabet for a :class:`repro.datasets.DataEdit`.

        One predicate at a time, the packed mask is unpacked, keeps the
        bits of surviving rows, gains bits for the added rows (evaluated
        only against the small added sub-table) and is re-packed; then the
        support filter re-runs over the patched masks.  The predicate set
        itself is frozen — bin edges are *not* re-derived from the edited
        table (see the module docstring for why), so an edit can move
        predicates across the support threshold but never mint or retire
        specs.  Relabel-only edits are a no-op (a predicate mask never
        depends on labels).  A previously-built miner view is re-sorted and
        re-stacked from the patched masks (``tidlist_patches``), never
        re-derived from scratch.  A built extent-identity store is replaced
        by an empty one seeded for the new row count: every count, key and
        digest row value it held described the old rows.
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
            # The (n,) boolean form is a transient, never K of them at once.
            new_mask = unpack_rows(mask, self.num_rows)[keep]
            if edit.num_added:
                new_mask = np.concatenate([new_mask, predicate.mask(edit.add_table)])
            patched[predicate] = pack_rows(new_mask)
        old_entry_predicates = [predicate for predicate, _ in self.entries]
        self._evaluated = patched
        self.num_rows = new_table.num_rows
        self._filter_entries()
        if old_entry_predicates != [predicate for predicate, _ in self.entries]:
            # The support filter moved an entry in or out: the level-2
            # merge skeleton no longer describes the entry list.
            self._skeleton.drop(edit.describe())
        if self._identities.peek() is not None:
            self._identities.set(ExtentIdentities(self.num_rows))
        if self._miner_items.peek() is not None:
            self._miner_items.set(self._pack_items())
            self._stats.inc("tidlist_patches")

    # ------------------------------------------------------------------
    def entry_matrix(self) -> np.ndarray:
        """The entries' masks as a fresh (K, ceil(n/8)) matrix, in entry order."""
        return _stack(self.entries, self.num_rows)

    def _pack_items(self) -> tuple[list[Predicate], np.ndarray]:
        ordered = sorted(
            self.entries,
            key=lambda pair: (popcount(pair[1]), pair[0].sort_key()),
        )
        return [predicate for predicate, _ in ordered], _stack(ordered, self.num_rows)

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
        return self._skeleton.get(self._build_skeleton)

    def _build_skeleton(self) -> tuple[np.ndarray, np.ndarray]:
        from repro.patterns.lattice import PredicateIndex, merge_pairs

        index, ids = PredicateIndex.of([predicate for predicate, _ in self.entries])
        left, right, _, _ = merge_pairs(ids[:, None], index.conflicts)
        return left, right

    def miner_items(self) -> tuple[list[Predicate], np.ndarray]:
        """The miner's view: frequency-ascending predicates + packed tids.

        Built lazily (lattice-only workloads never sort or stack) and
        cached — the sort order and the (K, ceil(n/8)) uint8 tidlist matrix
        are deterministic functions of the alphabet, so one build serves every
        mining query of the audit.  See :mod:`repro.mining.closed` for why
        the order must be frequency-ascending with sort-key tie-breaks.
        """
        return self._miner_items.get(self._pack_items)

    def extent_identities(self) -> "ExtentIdentities":
        """The closed miner's extent-identity store for this alphabet.

        Built lazily (empty, plus its digest row values) and shared by
        every mining query until an edit changes rows; see
        :class:`ExtentIdentities`.
        """
        return self._identities.get(lambda: ExtentIdentities(self.num_rows))

    def warm(self, miner: bool = True, skeleton: bool = False) -> "PredicateAlphabet":
        """Eagerly build the lazy views so shared reads never trigger a build.

        ``miner`` sorts and stacks the tidlist matrix and builds the extent
        identity store (what the miner reads); ``skeleton`` additionally
        enumerates the level-2 merge skeleton the incremental delta path
        replays.  Idempotent — each build is counted by its own stats entry
        exactly once.
        """
        if miner:
            _ = self.miner_items()
            _ = self.extent_identities()
        if skeleton:
            _ = self.pair_skeleton()
        return self

    def record_mining_counters(
        self,
        projection_builds: int = 0,
        tidlist_compressions: int = 0,
        sparse_dispatch_hits: int = 0,
        dense_dispatch_hits: int = 0,
        identity_hits: int = 0,
        identity_misses: int = 0,
    ) -> None:
        """Flush one search's worth of mining-layer counters.

        The miner tallies its hot-loop events in plain local ints — bumping
        the lock-protected registry per lattice node would put a mutex in
        the innermost loop — and flushes them here once per search, so the
        benchmarks and RL002 see them through the same
        :class:`~repro.obs.metrics.StatsView` as every other mining counter:

        * ``projection_builds`` — conditional databases built;
        * ``tidlist_compressions`` — dense→sparse tidlist conversions;
        * ``sparse_dispatch_hits`` / ``dense_dispatch_hits`` — co-parent
          refinements actually run, by the co-parent's representation (a
          lookup answered by the identity store runs none);
        * ``identity_hits`` / ``identity_misses`` — item-path keys read
          from, or computed and added to, :class:`ExtentIdentities`.
        """
        if projection_builds:
            self._stats.inc("projection_builds", projection_builds)
        if tidlist_compressions:
            self._stats.inc("tidlist_compressions", tidlist_compressions)
        if sparse_dispatch_hits:
            self._stats.inc("sparse_dispatch_hits", sparse_dispatch_hits)
        if dense_dispatch_hits:
            self._stats.inc("dense_dispatch_hits", dense_dispatch_hits)
        if identity_hits:
            self._stats.inc("identity_hits", identity_hits)
        if identity_misses:
            self._stats.inc("identity_misses", identity_misses)


def _stack(entries: list[tuple[Predicate, np.ndarray]], num_rows: int) -> np.ndarray:
    """Stack the packed masks of ``entries``; zero rows when there are none."""
    if not entries:
        return np.zeros((0, packed_width(num_rows)), dtype=np.uint8)
    return np.stack([mask for _, mask in entries])


#: Seed of the miner's per-row digest values, XORed with the row count;
#: fixed so a search is reproducible run to run.
_DIGEST_SEED = 0x9E3779B97F4A7C15


class ExtentIdentities:
    """Metric-independent extent identities of one alphabet's closed miner.

    The closed miner keys every extent it touches by
    ``(count, value)``; :mod:`repro.mining.closed` lists what a key costs.
    The rows an item set covers depend only on the alphabet, never on the
    model, metric or group, so one store serves every query on it:

    * ``hvals`` — the digest's per-row ``uint64`` values, seeded by the
      row count;
    * ``paths`` — ascending miner-order item tuple → the key of the extent
      it covers (a key's first element is the extent's row count);
    * ``generators`` — ``(max_predicates, extent key)`` → the extent's
      generator combos.

    An insert writes the value any other query computes for the same
    path, so queries racing on one store are benign under the GIL.
    :meth:`PredicateAlphabet.apply_edit` empties the store (and re-seeds
    ``hvals``) on every edit that changes rows.
    """

    def __init__(self, num_rows: int) -> None:
        self.hvals = np.random.default_rng(_DIGEST_SEED ^ num_rows).integers(
            0, np.iinfo(np.uint64).max, size=num_rows, dtype=np.uint64
        )
        self.paths: dict[tuple[int, ...], tuple[int, int]] = {}
        self.generators: dict[tuple[int, tuple[int, int]], tuple[tuple[int, ...], ...]] = {}

    def key_of(self, path: tuple[int, ...]) -> tuple[int, int] | None:
        """The stored key of the extent ``path`` covers, or None."""
        return self.paths.get(path)

    def add_key(self, path: tuple[int, ...], key: tuple[int, int]) -> None:
        self.paths[path] = key

    def generators_of(
        self, max_predicates: int, key: tuple[int, int]
    ) -> tuple[tuple[int, ...], ...] | None:
        """The stored generators of extent ``key`` up to ``max_predicates``
        items, or None."""
        return self.generators.get((max_predicates, key))

    def add_generators(
        self, max_predicates: int, key: tuple[int, int], combos: tuple[tuple[int, ...], ...]
    ) -> None:
        self.generators[(max_predicates, key)] = combos


def search_alphabet(
    table: Table,
    alphabet: PredicateAlphabet | None,
    support_threshold: float,
    num_bins: int,
    exclude_features,
) -> PredicateAlphabet:
    """The alphabet one search runs on.

    ``None`` builds a throwaway alphabet for the search's parameters.  A
    supplied alphabet must have been built for them: one built for another
    τ, bin count, exclusion set or row count would search (and key extents
    over) the wrong predicates, so the ``ValueError`` names the first field
    that differs.
    """
    if alphabet is None:
        return PredicateAlphabet(table, support_threshold, num_bins, exclude_features)
    exclude = normalize_exclude_features(exclude_features)
    for name, built, asked in (
        ("support_threshold", alphabet.support_threshold, float(support_threshold)),
        ("num_bins", alphabet.num_bins, int(num_bins)),
        ("exclude_features", sorted(alphabet.exclude_features), sorted(exclude)),
        ("num_rows", alphabet.num_rows, table.num_rows),
    ):
        if built != asked:
            raise ValueError(
                f"alphabet was built with {name}={built!r} but the search asks "
                f"for {name}={asked!r}"
            )
    return alphabet


class AlphabetCache:
    """Alphabets of one training table, shared across search queries.

    The cache is bound to a table *instance*: :func:`resolve_alphabet`
    refuses a cache built for a different table rather than silently
    serving masks for the wrong rows.  :meth:`apply_edit` rebinds the cache to the edited table
    after patching every cached alphabet in place.
    """

    def __init__(self, table: Table, metrics: MetricsRegistry | None = None) -> None:
        self.table = table
        self.stats = StatsView(
            {
                "alphabet_builds": 0,
                "tidlist_builds": 0,
                "skeleton_builds": 0,
                "alphabet_patches": 0,
                "tidlist_patches": 0,
                "projection_builds": 0,
                "tidlist_compressions": 0,
                "sparse_dispatch_hits": 0,
                "dense_dispatch_hits": 0,
                "identity_builds": 0,
                "identity_hits": 0,
                "identity_misses": 0,
            },
            registry=metrics,
            namespace="mining",
        )
        self._alphabets = Lazy("alphabet.get", self.stats, "alphabet_builds")

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
        return self._alphabets.get(
            lambda: PredicateAlphabet(self.table, support_threshold, num_bins, exclude, self.stats),
            key,
        )

    def apply_edit(self, edit, new_table: Table) -> None:
        """Patch every cached alphabet for ``edit`` and rebind to ``new_table``.

        Row-changing edits patch each alphabet (counted under
        ``alphabet_patches``); relabel-only edits leave masks untouched.
        ``new_table`` must be the edited table the session now serves —
        for relabel-only edits that is the *same* table instance, so
        :meth:`check_table`'s identity check keeps passing.
        """
        if edit.changes_rows:
            for _, alphabet in self._alphabets.items():
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
