"""The level-1 alphabet stores every mask as a packed ``uint8`` row.

The build packs each predicate's mask as it is evaluated, and an edit
patches one predicate at a time; both must leave every stored row equal
to the predicate evaluated against the current table.
"""

import numpy as np
import pytest

from repro.datasets import random_edit
from repro.mining.alphabet import PredicateAlphabet
from repro.mining.bitset import packed_width, popcount, unpack_rows

TAU = 0.05


class TestPackedBuild:
    def test_every_entry_unpacks_to_its_predicate_mask(self, german_train):
        table = german_train.table
        alphabet = PredicateAlphabet(table, TAU, 4, None)
        assert alphabet.entries
        for predicate, mask in alphabet.entries:
            assert mask.dtype == np.uint8
            assert mask.shape == (packed_width(table.num_rows),)
            np.testing.assert_array_equal(
                unpack_rows(mask, table.num_rows), predicate.mask(table)
            )

    def test_same_miner_view(self, german_train):
        """The miner's view holds the same rows as the entries, sorted by
        ascending support."""
        alphabet = PredicateAlphabet(german_train.table, TAU, 4, None)
        predicates, tids = alphabet.miner_items()
        entry_masks = dict(alphabet.entries)
        assert sorted(map(str, predicates)) == sorted(str(p) for p in entry_masks)
        assert tids.shape == (len(entry_masks), packed_width(alphabet.num_rows))
        for predicate, row in zip(predicates, tids):
            np.testing.assert_array_equal(row, entry_masks[predicate])
        supports = [popcount(row) for row in tids]
        assert supports == sorted(supports)


class TestPackedEdits:
    @pytest.mark.parametrize("kind", ["remove", "add"])
    def test_apply_edit_matches_reevaluation(self, german_train, kind):
        alphabet = PredicateAlphabet(german_train.table, TAU, 4, None)
        edit = random_edit(german_train, kind, count=25, seed=5)
        edited = german_train.apply_edit(edit)
        alphabet.apply_edit(edit, edited.table)
        assert alphabet.num_rows == edited.num_rows
        for predicate, mask in alphabet._evaluated.items():
            np.testing.assert_array_equal(
                unpack_rows(mask, alphabet.num_rows), predicate.mask(edited.table)
            )

    def test_edited_packed_equals_edited_plain(self, german_train):
        """A miner view built before an edit and patched by it equals the
        view an alphabet builds fresh after the same edit."""
        patched = PredicateAlphabet(german_train.table, TAU, 4, None).warm()
        fresh = PredicateAlphabet(german_train.table, TAU, 4, None)
        edit = random_edit(german_train, "remove", count=30, seed=9)
        edited = german_train.apply_edit(edit)
        patched.apply_edit(edit, edited.table)
        fresh.apply_edit(edit, edited.table)
        assert [p for p, _ in patched.entries] == [p for p, _ in fresh.entries]
        patched_preds, patched_tids = patched.miner_items()
        fresh_preds, fresh_tids = fresh.miner_items()
        assert patched_preds == fresh_preds
        np.testing.assert_array_equal(patched_tids, fresh_tids)
        assert patched._stats["tidlist_patches"] == 1
        assert fresh._stats["tidlist_patches"] == 0
