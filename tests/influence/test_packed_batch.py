"""Packed rows, the one batch form inside the influence estimators.

A boolean mask matrix handed to a public batch method is packed at the
door, so it and the packed rows it encodes take one path and must give
bit-identical answers, for every estimator and batch entry point,
including batches wider than any internal block.
"""

import tracemalloc

import numpy as np
import pytest

from repro.core import AuditSession
from repro.datasets import DataEdit
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.influence.estimators import InfluenceEstimator
from repro.mining.bitset import pack_rows
from repro.models import LogisticRegression
from repro.utils.rng import ensure_rng

ESTIMATOR_SETUPS = [
    ("first_order", {"evaluation": "linear"}),
    ("first_order", {"evaluation": "smooth"}),
    ("second_order", {"variant": "series", "evaluation": "smooth"}),
    ("second_order", {"variant": "exact", "evaluation": "smooth"}),
    ("one_step_gd", {"evaluation": "hard"}),
]
ENTRY_POINTS = ["param_change_batch", "bias_change_batch", "responsibility_batch"]


def random_mask_matrix(num_train, count, seed=0):
    rng = ensure_rng(seed)
    masks = np.zeros((count, num_train), dtype=bool)
    for j in range(count):
        size = int(rng.integers(5, max(6, num_train // 8)))
        masks[j, rng.choice(num_train, size=size, replace=False)] = True
    return masks


@pytest.fixture(scope="module", params=ESTIMATOR_SETUPS, ids=lambda s: f"{s[0]}-{list(s[1].values())[-1]}")
def estimator(request, lr_model, X_train, german_train, sp_metric, test_ctx):
    name, kwargs = request.param
    return make_estimator(
        name, lr_model, X_train, german_train.labels, sp_metric, test_ctx, **kwargs
    )


class TestPackedEqualsBoolean:
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_boolean_and_packed_batches_agree_bit_for_bit(self, estimator, entry):
        masks = random_mask_matrix(estimator.num_train, 293, seed=4)
        query = getattr(estimator, entry)
        expected = query(masks)
        assert len(expected) == len(masks)
        np.testing.assert_array_equal(
            query(pack_rows(masks), num_rows=estimator.num_train), expected
        )

    def test_empty_packed_batch(self, fo_estimator):
        packed = np.zeros((0, (fo_estimator.num_train + 7) // 8), dtype=np.uint8)
        assert fo_estimator.bias_change_batch(packed, num_rows=fo_estimator.num_train).shape == (0,)
        assert fo_estimator.param_change_batch(
            packed, num_rows=fo_estimator.num_train
        ).shape == (0, fo_estimator.model.num_params)


class TestPackedValidation:
    def test_wrong_num_rows_rejected(self, fo_estimator):
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=5)
        with pytest.raises(ValueError, match="cover"):
            fo_estimator.bias_change_batch(pack_rows(masks), num_rows=fo_estimator.num_train + 1)

    def test_bool_matrix_with_num_rows_rejected(self, fo_estimator):
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=6)
        with pytest.raises(ValueError, match="packed batch"):
            fo_estimator.bias_change_batch(masks, num_rows=fo_estimator.num_train)

    def test_wrong_byte_width_rejected(self, fo_estimator):
        packed = np.zeros((3, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="byte columns"):
            fo_estimator.bias_change_batch(packed, num_rows=fo_estimator.num_train)

    def test_uint8_without_num_rows_still_rejected(self, fo_estimator):
        """The pre-existing guard: a bare 2-D uint8 matrix is ambiguous and
        must not be silently read as packed (or as masks)."""
        masks = random_mask_matrix(fo_estimator.num_train, 3, seed=7)
        with pytest.raises(ValueError, match="boolean mask"):
            fo_estimator.bias_change_batch(pack_rows(masks))

    def test_full_row_rejected(self, fo_estimator):
        full = np.ones((1, fo_estimator.num_train), dtype=bool)
        with pytest.raises(ValueError, match="entire training set"):
            fo_estimator.bias_change_batch(pack_rows(full), num_rows=fo_estimator.num_train)


class TestPaddingBits:
    """Bits past row n in a packed row's last byte are refused by name.

    Every scorer ignores them, while first-order's whole-training-set guard
    counted them: a mask removing 149 of 150 rows with its two padding
    bits set was refused as the entire training set by first-order and
    scored by series.
    """

    @pytest.mark.parametrize(
        "setup", [ESTIMATOR_SETUPS[0], ESTIMATOR_SETUPS[2], ESTIMATOR_SETUPS[3]],
        ids=["first_order-linear", "series-smooth", "exact-smooth"],
    )
    def test_padding_bits_rejected(self, setup, X_train, german_train, sp_metric, test_ctx):
        n = 150  # 19 bytes: the last one holds rows 144..149 and 2 padding bits
        name, kwargs = setup
        X, y = X_train[:n], german_train.labels[:n]
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        estimator = make_estimator(name, model, X, y, sp_metric, test_ctx, **kwargs)
        masks = np.zeros((2, n), dtype=bool)
        masks[0, 3:9] = True
        masks[1, 1:] = True
        packed = pack_rows(masks)
        assert estimator.bias_change_batch(packed, num_rows=n).shape == (2,)
        for row in range(2):
            padded = packed.copy()
            padded[row, -1] |= 0b11
            with pytest.raises(ValueError, match="num_rows=150"):
                estimator.bias_change_batch(padded, num_rows=n)


def batch_form(subsets, num_rows) -> str:
    """``"packed"`` for uint8 rows with num_rows, ``"indices"`` for a list of
    integer arrays with num_rows, else what the estimator would pack."""
    if num_rows is None:
        return "no num_rows"
    if isinstance(subsets, np.ndarray):
        return "packed" if subsets.ndim == 2 and subsets.dtype == np.uint8 else "other"
    integer = all(np.asarray(s).ndim == 1 and np.asarray(s).dtype.kind in "iu" for s in subsets)
    return "indices" if isinstance(subsets, list) and integer else "other"


class TestOneForm:
    """Packed rows with ``num_rows``, or index lists, are the only batches
    the searches hand the estimators, and no mask product holds an (m, n)
    matrix."""

    def test_searches_and_the_delta_replay_hand_packed_rows(
        self, monkeypatch, german_train, german_test
    ):
        forms: dict[str, list[str]] = {}
        phase = ["fit"]
        original = InfluenceEstimator.bias_change_batch

        def spy(self, subsets, num_rows=None):
            forms.setdefault(phase[0], []).append(batch_form(subsets, num_rows))
            return original(self, subsets, num_rows=num_rows)

        monkeypatch.setattr(InfluenceEstimator, "bias_change_batch", spy)
        sessions = {}
        for engine in ("lattice", "mining"):
            phase[0] = engine
            sessions[engine] = AuditSession(
                LogisticRegression(l2_reg=1e-3),
                engine=engine,
                estimator="series",
                estimator_kwargs={"evaluation": "smooth"},
                max_predicates=2,
                support_threshold=0.05,
            ).fit(german_train, german_test)
            sessions[engine].audit(metrics=["statistical_parity"], k=3)
        phase[0] = "delta_audit"
        delta = sessions["lattice"].delta_audit(
            DataEdit.remove([0, 1, 2, 3]), metrics=["statistical_parity"], k=3
        )
        assert not delta.queries[0].recheck_ran  # the replay scored, not a fresh search
        assert set(forms) == {"lattice", "mining", "delta_audit"}
        for phase_name, seen in forms.items():
            assert set(seen) <= {"packed", "indices"}, (phase_name, seen)

    @pytest.mark.parametrize(
        "name, kwargs",
        [
            ("first_order", {"evaluation": "smooth"}),
            ("series", {"evaluation": "smooth"}),
            ("one_step_gd", {"evaluation": "hard"}),
        ],
        ids=["first_order-smooth", "series-smooth", "one_step_gd-hard"],
    )
    def test_packed_batch_peaks_below_one_boolean_matrix(self, name, kwargs):
        rng = np.random.default_rng(0)
        n, m = 40_000, 512
        X = rng.normal(size=(n, 4))
        privileged = rng.random(n) < 0.6
        y = (X[:, 0] + 0.8 * privileged + rng.normal(size=n) > 0).astype(np.int64)
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        ctx = FairnessContext(X=X[:400], y=y[:400], privileged=privileged[:400], favorable_label=1)
        estimator = make_estimator(
            name, model, X, y, get_metric("statistical_parity"), ctx, **kwargs
        ).warm()
        estimator.artifacts.hessian_factors()
        packed = pack_rows(rng.random((m, n)) < 0.05)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            estimator.bias_change_batch(packed, num_rows=n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak < m * n, f"{name} peaked at {peak / 1e6:.1f} MB"


class TestEvaluationBlocks:
    """The smooth and hard evaluations score a batch in blocks of subsets
    whose (n_test, block) float64 matrix fits ``_EVALUATION_BYTES``, so a
    wide batch over a large test split never builds (n_test, m) matrices."""

    @pytest.fixture(scope="class")
    def wide_test_split(self):
        rng = np.random.default_rng(1)
        n, n_test, m = 2_000, 4_000, 256
        X = rng.normal(size=(n + n_test, 4))
        privileged = rng.random(n + n_test) < 0.6
        y = (X[:, 0] + 0.8 * privileged + rng.normal(size=n + n_test) > 0).astype(np.int64)
        model = LogisticRegression(l2_reg=1e-3).fit(X[:n], y[:n])
        ctx = FairnessContext(
            X=X[n:], y=y[n:], privileged=privileged[n:], favorable_label=1
        )
        estimator = make_estimator(
            "series", model, X[:n], y[:n], get_metric("statistical_parity"), ctx,
            evaluation="smooth",
        ).warm()
        estimator.artifacts.hessian_factors()
        return estimator, pack_rows(rng.random((m, n)) < 0.05), n_test

    def test_blocks_bound_the_peak_and_keep_the_scores(self, wide_test_split, monkeypatch):
        estimator, packed, n_test = wide_test_split
        n, m = estimator.num_train, len(packed)
        whole = estimator.bias_change_batch(packed, num_rows=n)  # one block at 16 MiB
        monkeypatch.setattr("repro.influence.estimators._EVALUATION_BYTES", 1 << 20)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            blocked = estimator.bias_change_batch(packed, num_rows=n)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        np.testing.assert_allclose(blocked, whole, atol=1e-12, rtol=0.0)
        assert peak < 8 * n_test * m, f"evaluation peaked at {peak / 1e6:.1f} MB"
