"""AlphabetCache: key normalization, build accounting, and the frozen language.

Two contracts live here:

* **keying** — ``get()`` normalizes ``exclude_features`` before keying, so
  a list, a tuple in another order, a set, and repeated calls all hit one
  cache entry (``alphabet_builds`` is the witness), and a single name is
  one column, never a character set;
* **edits** — ``apply_edit`` patches masks in place under the *frozen*
  pattern language: the predicate set (including data-derived bin edges)
  is identical before and after, each patched mask equals evaluating the
  original predicate against the edited table, a previously-built miner
  view is re-packed rather than rebuilt, and a relabel-only edit is a
  structural no-op.
"""

import numpy as np
import pytest

from repro.datasets import DataEdit, random_edit
from repro.mining import AlphabetCache, mine_closed_candidates, pack_rows, unpack_rows
from repro.mining.alphabet import PredicateAlphabet
from repro.patterns import compute_candidates

TAU = 0.05


@pytest.fixture()
def cache(german_train):
    return AlphabetCache(german_train.table)


class TestKeyNormalization:
    def test_equivalent_exclude_spellings_share_one_entry(self, cache):
        spellings = [
            ["gender", "age"],
            ("age", "gender"),
            {"gender", "age"},
            frozenset({"age", "gender"}),
        ]
        alphabets = [cache.get(TAU, exclude_features=s) for s in spellings]
        assert all(a is alphabets[0] for a in alphabets)
        assert cache.stats["alphabet_builds"] == 1

    def test_none_and_empty_share_one_entry(self, cache):
        assert cache.get(TAU) is cache.get(TAU, exclude_features=None)
        assert cache.get(TAU) is cache.get(TAU, exclude_features=[])
        assert cache.stats["alphabet_builds"] == 1

    def test_single_name_is_a_column_not_a_character_set(self, cache):
        by_name = cache.get(TAU, exclude_features="age")
        by_list = cache.get(TAU, exclude_features=["age"])
        assert by_name is by_list
        assert cache.stats["alphabet_builds"] == 1
        # The excluded *column* is gone; no other column was touched by
        # its letters ("a", "g", "e" prefix-match several German columns).
        features = {p.feature for p, _ in by_name.entries}
        assert "age" not in features
        assert any(f.startswith("a") and f != "age" for f in features)

    def test_distinct_parameters_build_separately(self, cache):
        cache.get(TAU)
        cache.get(TAU, exclude_features="age")
        cache.get(0.10)
        cache.get(TAU, num_bins=6)
        assert cache.stats["alphabet_builds"] == 4

    def test_foreign_table_refused(self, cache, german_test):
        with pytest.raises(ValueError, match="different table"):
            cache.check_table(german_test.table)


@pytest.mark.parametrize("tau", [-0.2, 1.0, 1.5])
@pytest.mark.parametrize("path", ["mining_engine", "alphabet_cache", "bare_lattice"])
def test_support_threshold_outside_unit_interval_rejected(
    path, tau, cache, german_train, fo_estimator
):
    """Every level-1 build validates τ, so no path searches with a τ that
    keeps nothing (≥ 1) or everything (< 0)."""
    search = {
        "mining_engine": lambda: mine_closed_candidates(
            german_train.table, fo_estimator, support_threshold=tau
        ),
        "alphabet_cache": lambda: cache.get(tau),
        "bare_lattice": lambda: compute_candidates(
            german_train.table, fo_estimator, support_threshold=tau
        ),
    }[path]
    with pytest.raises(ValueError, match=r"support_threshold must be in \[0, 1\)"):
        search()


class TestSuppliedAlphabetMustMatch:
    """A search handed an alphabet built for other parameters refuses it,
    naming the field, instead of searching the wrong predicates: an
    unmatched exclusion set lets the protected attribute into the
    candidates, and an unmatched τ or bin count changes the language."""

    ENGINES = {"lattice": compute_candidates, "mining": mine_closed_candidates}

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    @pytest.mark.parametrize(
        "field,built,asked",
        [
            ("support_threshold", {"support_threshold": 0.2}, {}),
            ("support_threshold", {"support_threshold": 0.01}, {}),
            ("num_bins", {"num_bins": 8}, {}),
            ("exclude_features", {}, {"exclude_features": {"age"}}),
            ("num_rows", {"rows": 8}, {}),
        ],
        ids=["tau-above", "tau-below", "num_bins", "exclude_features", "num_rows"],
    )
    def test_mismatch_named(self, engine, field, built, asked, german_train, fo_estimator):
        table = german_train.table
        params = {"support_threshold": TAU, "num_bins": 4, "exclude_features": None}
        alphabet_table = table.take(np.arange(table.num_rows - built.get("rows", 0)))
        alphabet = PredicateAlphabet(
            alphabet_table,
            built.get("support_threshold", TAU),
            built.get("num_bins", 4),
            built.get("exclude_features"),
        )
        params.update(asked)
        with pytest.raises(ValueError, match=f"alphabet was built with {field}="):
            self.ENGINES[engine](
                table, fo_estimator, max_predicates=2, alphabet=alphabet, **params
            )

    @pytest.mark.parametrize("engine", sorted(ENGINES))
    def test_equivalent_spellings_accepted(self, engine, german_train, fo_estimator):
        """The check compares normalized parameters, as the cache keys them."""
        table = german_train.table
        alphabet = PredicateAlphabet(table, TAU, 4, ["age"])
        supplied = self.ENGINES[engine](
            table, fo_estimator, support_threshold=np.float64(TAU), num_bins=4,
            exclude_features="age", max_predicates=2, alphabet=alphabet,
        )
        own = self.ENGINES[engine](
            table, fo_estimator, support_threshold=TAU, num_bins=4,
            exclude_features={"age"}, max_predicates=2,
        )
        assert [str(c.pattern) for c in supplied.candidates] == [
            str(c.pattern) for c in own.candidates
        ]


class TestFrozenLanguageUnderEdits:
    def test_predicate_set_is_frozen(self, cache, german_train):
        """Row edits never mint or retire predicate *specs* (bin edges stay)."""
        alphabet = cache.get(TAU)
        specs_before = set(alphabet._evaluated)
        edit = random_edit(german_train, "remove", count=25, seed=5)
        cache.apply_edit(edit, german_train.apply_edit(edit).table)
        assert set(alphabet._evaluated) == specs_before

    def test_patched_masks_match_reevaluation(self, cache, german_train):
        """mask[keep] ++ mask(added) == predicate.mask(edited table), exactly."""
        alphabet = cache.get(TAU)
        edited = german_train.apply_edit(
            edit := random_edit(german_train, "remove", count=25, seed=5)
        )
        cache.apply_edit(edit, edited.table)
        for predicate, mask in alphabet._evaluated.items():
            np.testing.assert_array_equal(
                unpack_rows(mask, edited.num_rows), predicate.mask(edited.table)
            )

    def test_patched_masks_match_reevaluation_with_adds(self, cache, german_train):
        alphabet = cache.get(TAU)
        edit = random_edit(german_train, "add", count=30, seed=7)
        edited = german_train.apply_edit(edit)
        cache.apply_edit(edit, edited.table)
        assert alphabet.num_rows == edited.num_rows
        for predicate, mask in alphabet._evaluated.items():
            np.testing.assert_array_equal(
                unpack_rows(mask, edited.num_rows), predicate.mask(edited.table)
            )

    def test_relabel_only_edit_is_a_structural_noop(self, cache, german_train):
        alphabet = cache.get(TAU)
        masks_before = {p: m for p, m in alphabet._evaluated.items()}
        edit = random_edit(german_train, "relabel", count=10, seed=5)
        edited = german_train.apply_edit(edit)
        # Relabel shares the table instance, so the identity check keeps passing.
        assert edited.table is german_train.table
        cache.apply_edit(edit, edited.table)
        for predicate, mask in alphabet._evaluated.items():
            assert mask is masks_before[predicate]
        assert cache.stats["alphabet_patches"] == 0
        cache.check_table(edited.table)

    def test_miner_view_repacked_not_rebuilt(self, cache, german_train):
        alphabet = cache.get(TAU)
        alphabet.miner_items()
        assert cache.stats["tidlist_builds"] == 1
        edit = random_edit(german_train, "remove", count=25, seed=5)
        edited = german_train.apply_edit(edit)
        cache.apply_edit(edit, edited.table)
        assert cache.stats["tidlist_builds"] == 1
        assert cache.stats["tidlist_patches"] == 1
        # The patched pack equals independently re-sorting (supports moved,
        # so the frequency-ascending order may too) and re-packing the
        # patched masks.  (Not a fresh cache on the edited table: that
        # would re-derive bin edges — the frozen language forbids it.)
        masks = [(p, unpack_rows(m, edited.num_rows)) for p, m in alphabet.entries]
        ordered = sorted(masks, key=lambda pair: (int(pair[1].sum()), pair[0].sort_key()))
        patched_preds, patched_tids = alphabet.miner_items()
        assert patched_preds == [p for p, _ in ordered]
        np.testing.assert_array_equal(
            patched_tids, pack_rows(np.stack([m for _, m in ordered]))
        )

    def test_entry_crossing_invalidates_pair_skeleton(self, cache, german_train):
        """If the support filter moves an entry, the cached skeleton is dropped."""
        alphabet = cache.get(TAU)
        alphabet.pair_skeleton()
        assert alphabet._skeleton.peek() is not None
        # Remove precisely the supporting rows of the thinnest entry so it
        # falls below τ — a guaranteed entry-list change.
        n = german_train.num_rows
        thinnest = min(
            ((p, unpack_rows(m, n)) for p, m in alphabet.entries),
            key=lambda pair: pair[1].sum(),
        )
        drop = np.flatnonzero(thinnest[1])[: int(thinnest[1].sum() * 0.6)]
        edit = DataEdit.remove(drop)
        cache.apply_edit(edit, german_train.apply_edit(edit).table)
        assert thinnest[0] not in [p for p, _ in alphabet.entries]
        assert alphabet._skeleton.peek() is None

    def test_stable_edit_keeps_pair_skeleton(self, cache, german_train):
        alphabet = cache.get(TAU)
        entries_before = [p for p, _ in alphabet.entries]
        skeleton = alphabet.pair_skeleton()
        edit = random_edit(german_train, "remove", count=8, seed=3)
        cache.apply_edit(edit, german_train.apply_edit(edit).table)
        assert [p for p, _ in alphabet.entries] == entries_before
        assert alphabet.pair_skeleton() is skeleton

    def test_row_count_mismatch_rejected(self, cache, german_train):
        alphabet = cache.get(TAU)
        edit = DataEdit.remove([0, 1, 2])
        with pytest.raises(ValueError, match="rows"):
            alphabet.apply_edit(edit, german_train.table)  # un-edited table
