"""Tests for the Section-5 update search."""

import numpy as np
import pytest

from repro.fairness import FairnessContext
from repro.patterns import Pattern, Predicate
from repro.updates import UpdateExplanation, find_update_explanations


@pytest.fixture(scope="module")
def pattern_and_indices(german_train):
    pattern = Pattern(
        [Predicate("age", ">=", 45.0), Predicate("gender", "=", "Female")]
    )
    mask = pattern.mask(german_train.table)
    return pattern, np.flatnonzero(mask)


@pytest.fixture(scope="module")
def update(
    lr_model, encoder, X_train, german_train, sp_metric, test_ctx, pattern_and_indices
):
    pattern, indices = pattern_and_indices
    return find_update_explanations(
        lr_model,
        encoder,
        X_train,
        german_train.labels,
        sp_metric,
        test_ctx,
        [pattern],
        [indices],
        num_steps=40,
        verify=True,
    )[0]


class TestUpdateSearch:
    def test_update_reduces_bias_estimate(self, update):
        """The planted old-female subset admits an update that lowers bias."""
        assert update.est_bias_change < 0

    def test_ground_truth_confirms_direction(self, update):
        assert update.gt_bias_change is not None
        assert update.gt_bias_change < 0
        assert update.direction == "decrease"

    def test_changes_restricted_to_pattern_features(self, update):
        assert set(update.changed_features) <= {"age", "gender"}

    def test_gender_flip_found(self, update):
        """Mirroring the paper's Table 4: the update flips the pattern's
        gender and/or pushes age below the threshold."""
        assert update.changed_features  # something changed
        if "gender" in update.changed_features:
            assert update.changed_features["gender"] == ("Female", "Male")
        if "age" in update.changed_features:
            assert float(update.changed_features["age"][1]) < 45.0

    def test_support_reported(self, update, X_train, pattern_and_indices):
        _, indices = pattern_and_indices
        assert update.support == pytest.approx(len(indices) / len(X_train))

    def test_describe_mentions_direction(self, update):
        assert "bias" in update.describe()

    def test_to_record_serializable(self, update):
        import json

        record = update.to_record()
        json.dumps(record)
        assert record["direction"] == "decrease"
        assert set(record["changed_features"]) <= {"age", "gender"}


class TestUpdateOptions:
    def test_allowed_features_override(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        pattern, indices = pattern_and_indices
        update = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            [pattern], [indices], allowed_features={"gender"}, num_steps=25,
        )[0]
        assert set(update.changed_features) <= {"gender"}

    def test_empty_subset_rejected(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        pattern, _ = pattern_and_indices
        with pytest.raises(ValueError, match="empty"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                [pattern], [np.array([], dtype=int)],
            )

    def test_direction_vs_removal(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        pattern, indices = pattern_and_indices
        update = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            [pattern], [indices], num_steps=10,
        )[0]
        # A removal that exactly zeroes the bias beats any projected update.
        update.removal_bias_change = -update.original_bias
        assert update.direction_vs_removal == "less"
        # A removal that overshoots far past zero leaves *more* |bias| than
        # the update does — the old signed comparison got this backwards.
        update.removal_bias_change = -1.0
        assert update.direction_vs_removal == "more"

    def test_direction_vs_removal_requires_reference(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        pattern, indices = pattern_and_indices
        update = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            [pattern], [indices], num_steps=5,
        )[0]
        with pytest.raises(ValueError, match="removal_bias_change"):
            _ = update.direction_vs_removal


class TestSignConventions:
    """Regression tests for the signed-bias direction bugs: a model whose
    signed bias is *negative* is repaired by a positive ΔF, which the old
    signed-ΔF reading mislabeled as "increase"."""

    @staticmethod
    def _make(original, change, removal=None):
        return UpdateExplanation(
            pattern=Pattern([Predicate("age", ">=", 45.0)]),
            support=0.1,
            delta=np.zeros(3),
            changed_features={},
            est_bias_change=change,
            removal_bias_change=removal,
            original_bias=original,
        )

    def test_negative_bias_repair_reads_decrease(self):
        # bias −0.2 → −0.12: |bias| shrank; the old code reported "increase".
        assert self._make(-0.2, +0.08).direction == "decrease"

    def test_negative_bias_worsening_reads_increase(self):
        # bias −0.2 → −0.28: |bias| grew; the old code reported "decrease".
        assert self._make(-0.2, -0.08).direction == "increase"

    def test_positive_bias_directions_unchanged(self):
        assert self._make(0.2, -0.08).direction == "decrease"
        assert self._make(0.2, +0.08).direction == "increase"

    def test_overshoot_past_zero_reads_increase(self):
        # bias 0.2 → −0.35: the signed ΔF is negative but |bias| grew.
        assert self._make(0.2, -0.55).direction == "increase"

    def test_direction_vs_removal_negative_bias(self):
        # Removal leaves |−0.02|, the update leaves |−0.15| → update is "less".
        assert self._make(-0.2, +0.05, removal=+0.18).direction_vs_removal == "less"
        # Update nearly zeroes the bias, removal barely moves it → "more".
        assert self._make(-0.2, +0.19, removal=+0.05).direction_vs_removal == "more"

    def test_signed_fallback_without_original_bias(self):
        # Hand-built instances without original_bias keep the legacy signed
        # reading (correct in the positive-bias regime).
        legacy = UpdateExplanation(
            pattern=Pattern([Predicate("age", ">=", 45.0)]),
            support=0.1,
            delta=np.zeros(3),
            changed_features={},
            est_bias_change=-0.05,
        )
        assert legacy.direction == "decrease"

    def test_negative_bias_end_to_end(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        """With the privileged groups swapped the signed bias is negative;
        the search must still shrink |bias| and say so."""
        flipped = FairnessContext(
            X=test_ctx.X,
            y=test_ctx.y,
            privileged=~test_ctx.privileged,
            favorable_label=test_ctx.favorable_label,
        )
        pattern, indices = pattern_and_indices
        update = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, flipped,
            [pattern], [indices], num_steps=40,
        )[0]
        assert update.original_bias < 0
        assert update.est_bias_change > 0  # pushed toward zero
        assert update.direction == "decrease"

    def test_record_carries_sources(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        pattern_and_indices,
    ):
        pattern, indices = pattern_and_indices
        update = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            [pattern], [indices], num_steps=5,
            removal_bias_changes=[-0.05], removal_sources=["estimated"],
        )[0]
        record = update.to_record()
        assert record["removal_bias_source"] == "estimated"
        assert record["original_bias"] == pytest.approx(update.original_bias)
