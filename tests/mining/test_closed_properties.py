"""Property tests for the closed-pattern enumeration.

Across randomized tabular instances (and the shared German fixture) the
miner must uphold its structural invariants: every emitted candidate
covers a *closed* extent, extents are unique (one candidate per distinct
training subset), support strictly exceeds τ, the reported pattern really
describes the stored extent, and the scores match the estimator.
"""

import numpy as np
import pytest

from repro.datasets.encoding import TabularEncoder
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.mining import PredicateAlphabet, mine_closed_candidates
from repro.models import LogisticRegression
from repro.tabular import Table

TAU = 0.06
MAX_PREDICATES = 3


def random_instance(seed):
    """A small random table + fitted model + estimator."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(80, 160))
    table = Table.from_dict(
        {
            "num_a": rng.normal(0, 1, size=n).round(2),
            "num_b": rng.integers(0, 5, size=n).astype(float),
            "cat_a": rng.choice(np.array(["x", "y", "z"], dtype=object), size=n),
            "cat_b": rng.choice(np.array(["m", "f"], dtype=object), size=n),
        }
    )
    logits = (
        1.3 * table.column("num_a").values
        + 0.5 * (table.column("cat_a").values == "x")
        - 0.6 * (table.column("cat_b").values == "f")
    )
    y = (logits + rng.normal(scale=0.7, size=n) > 0).astype(np.int64)
    if len(np.unique(y)) < 2:  # pragma: no cover - seed guard
        y[: n // 2] = 1 - y[: n // 2]
    encoder = TabularEncoder().fit(table)
    X = encoder.transform(table)
    model = LogisticRegression(l2_reg=1e-2).fit(X, y)
    ctx = FairnessContext(
        X=X, y=y, privileged=table.column("cat_b").values == "m", favorable_label=1
    )
    estimator = make_estimator(
        "first_order", model, X, y, get_metric("statistical_parity"), ctx,
        evaluation="smooth",
    )
    return table, estimator


@pytest.fixture(scope="module", params=range(6))
def mined_instance(request):
    table, estimator = random_instance(request.param)
    result = mine_closed_candidates(
        table, estimator, support_threshold=TAU, max_predicates=MAX_PREDICATES
    )
    return table, estimator, result


class TestClosedEnumerationProperties:
    def test_some_candidates_found(self, mined_instance):
        _, _, result = mined_instance
        assert result.num_evaluated > 0

    def test_extents_unique(self, mined_instance):
        _, _, result = mined_instance
        seen = set()
        for candidate in result.candidates:
            key = candidate.mask().tobytes()
            assert key not in seen, f"duplicate extent for {candidate.pattern}"
            seen.add(key)

    def test_support_strictly_above_threshold(self, mined_instance):
        table, _, result = mined_instance
        for candidate in result.candidates:
            assert candidate.support > TAU
            assert candidate.size == candidate.mask().sum()

    def test_every_extent_is_closed(self, mined_instance):
        """An extent is closed iff it equals the intersection of every
        single-predicate mask covering it — adding any other alphabet
        predicate would strictly shrink it, so one candidate per extent
        loses no pattern."""
        table, _, result = mined_instance
        alphabet = [mask for _, mask in PredicateAlphabet(table, TAU, 4).entries]
        for candidate in result.candidates:
            extent = candidate.mask()
            closure = np.ones_like(extent)
            for mask in alphabet:
                if (mask | ~extent).all():  # mask covers the extent
                    closure &= mask
            np.testing.assert_array_equal(
                closure, extent, err_msg=f"extent of {candidate.pattern} is not closed"
            )

    def test_pattern_describes_its_extent(self, mined_instance):
        """The representative pattern must be a *generator*: evaluating it
        against the table reproduces the stored extent exactly."""
        table, _, result = mined_instance
        for candidate in result.candidates:
            np.testing.assert_array_equal(
                candidate.pattern.mask(table),
                candidate.mask(),
                err_msg=f"{candidate.pattern} does not generate its extent",
            )

    def test_pattern_size_bounded(self, mined_instance):
        _, _, result = mined_instance
        for candidate in result.candidates:
            assert 1 <= len(candidate.pattern) <= MAX_PREDICATES

    def test_scores_match_estimator(self, mined_instance):
        _, estimator, result = mined_instance
        for candidate in result.candidates[:25]:
            indices = np.flatnonzero(candidate.mask())
            expected = estimator.bias_change_batch([indices])[0]
            assert candidate.bias_change == pytest.approx(expected, abs=1e-10)

    def test_no_full_coverage_candidates(self, mined_instance):
        _, _, result = mined_instance
        for candidate in result.candidates:
            assert candidate.support < 1.0


class TestClosedEnumerationOnGerman:
    def test_invariants_hold(self, german_train, german_series_estimator):
        result = mine_closed_candidates(
            german_train.table, german_series_estimator,
            support_threshold=0.05, max_predicates=2,
        )
        assert result.num_evaluated > 100
        extents = {c.mask().tobytes() for c in result.candidates}
        assert len(extents) == len(result.candidates)
        for candidate in result.candidates:
            assert candidate.support > 0.05
            np.testing.assert_array_equal(
                candidate.pattern.mask(german_train.table), candidate.mask()
            )

    def test_validation(self, german_train, german_series_estimator):
        with pytest.raises(ValueError, match="max_predicates"):
            mine_closed_candidates(
                german_train.table, german_series_estimator, max_predicates=0
            )
        with pytest.raises(ValueError, match="batch_size"):
            mine_closed_candidates(
                german_train.table, german_series_estimator, batch_size=0
            )

    def test_table_estimator_mismatch_rejected(self, german_test, german_series_estimator):
        with pytest.raises(ValueError, match="must match estimator training rows"):
            mine_closed_candidates(german_test.table, german_series_estimator)
