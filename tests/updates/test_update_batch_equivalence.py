"""Batch-vs-loop equivalence for the vectorized §5 update-search engine.

The batched engine must produce the same δ's, estimated bias changes, and
described updates as the per-coordinate reference loop of
``oracles.update_loop`` — both through the analytic ``input_grads`` ascent
and, for a model without that hook, through the stacked finite-difference
ascent — mirroring the estimator-equivalence suite.
"""

import json

import numpy as np
import pytest
from oracles import update_loop

from repro.models import LogisticRegression
from repro.models.base import TwiceDifferentiableClassifier
from repro.patterns import Pattern, Predicate
from repro.updates import UpdateSearchContext, find_update_explanations

# Single-feature (numeric and categorical), multi-feature, and
# all-categorical patterns — the shapes the engine special-cases least.
PATTERNS = [
    Pattern([Predicate("age", ">=", 45.0), Predicate("gender", "=", "Female")]),
    Pattern([Predicate("gender", "=", "Female")]),
    Pattern([Predicate("age", ">=", 45.0)]),
    Pattern([Predicate("gender", "=", "Female"), Predicate("housing", "=", "Own")]),
]

DELTA_ATOL = 1e-6
CHANGE_ATOL = 1e-9


class FiniteDifferenceLR(LogisticRegression):
    """Logistic regression without analytic input gradients, so the engine
    ascends by stacked finite differences."""

    input_grads = TwiceDifferentiableClassifier.input_grads


@pytest.fixture(scope="module")
def subsets(german_train):
    subsets = [np.flatnonzero(p.mask(german_train.table)) for p in PATTERNS]
    assert all(s.size > 0 for s in subsets)
    return subsets


@pytest.fixture(scope="module")
def context(lr_model, X_train, german_train, sp_metric, test_ctx):
    return UpdateSearchContext(
        lr_model, X_train, german_train.labels, sp_metric, test_ctx
    )


@pytest.fixture(scope="module")
def engine(encoder, X_train, german_train, sp_metric, test_ctx, subsets, context):
    def run(search=find_update_explanations, **kwargs):
        kwargs.setdefault("num_steps", 40)
        kwargs.setdefault("context", context)
        return search(
            kwargs["context"].model, encoder, X_train, german_train.labels, sp_metric,
            test_ctx, PATTERNS, subsets, **kwargs,
        )

    return run


@pytest.fixture(scope="module")
def loop(engine):
    return lambda **kwargs: engine(update_loop.find_update_explanations, **kwargs)


@pytest.fixture(scope="module")
def loop_result(loop):
    return loop()


@pytest.fixture(scope="module")
def fd_context(lr_model, X_train, german_train, sp_metric, test_ctx):
    model = FiniteDifferenceLR(lr_model.l2_reg)
    model.theta = lr_model.theta
    return UpdateSearchContext(model, X_train, german_train.labels, sp_metric, test_ctx)


def _assert_equivalent(batched, loop):
    assert len(batched) == len(loop)
    for b, l in zip(batched, loop):
        np.testing.assert_allclose(b.delta, l.delta, atol=DELTA_ATOL)
        assert b.est_bias_change == pytest.approx(l.est_bias_change, abs=CHANGE_ATOL)
        assert b.changed_features == l.changed_features
        assert b.support == l.support
        assert b.direction == l.direction


class TestBatchEquivalence:
    def test_analytic_fast_path_matches_loop(self, engine, loop_result):
        _assert_equivalent(engine(), loop_result)

    def test_stacked_fd_matches_loop(self, engine, loop_result, fd_context):
        _assert_equivalent(engine(context=fd_context), loop_result)

    def test_allowed_features_override(self, engine, loop):
        allowed = {"gender", "age", "housing", "amount"}
        _assert_equivalent(engine(allowed_features=allowed), loop(allowed_features=allowed))

    def test_verified_changes_match(self, engine, loop):
        batched = engine(verify=True, num_steps=15)
        reference = loop(verify=True, num_steps=15)
        for b, l in zip(batched, reference):
            assert b.gt_bias_change is not None and l.gt_bias_change is not None
            assert b.gt_bias_change == pytest.approx(l.gt_bias_change, abs=1e-8)

    def test_context_reuse_matches_fresh(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, engine,
    ):
        shared = engine()
        fresh = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            PATTERNS, subsets, num_steps=40,
        )
        _assert_equivalent(fresh, shared)

    def test_single_pattern_matches_engine(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx,
        subsets, engine, context,
    ):
        single = find_update_explanations(
            lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
            PATTERNS[:1], subsets[:1], num_steps=40, context=context,
        )
        _assert_equivalent(single, engine()[:1])


class TestEngineResult:
    def test_misaligned_inputs_rejected(self, engine, subsets,
                                        lr_model, encoder, X_train, german_train,
                                        sp_metric, test_ctx):
        with pytest.raises(ValueError, match="aligned"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets[:-1],
            )
        with pytest.raises(ValueError, match="one entry per pattern"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets, removal_bias_changes=[0.0],
            )

    def test_foreign_context_rejected(self, lr_model, encoder, X_train, german_train,
                                      sp_metric, test_ctx, subsets, context):
        other = lr_model.clone().fit(X_train, german_train.labels)
        with pytest.raises(ValueError, match="different model"):
            find_update_explanations(
                other, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                PATTERNS, subsets, context=context,
            )

    def test_empty_pattern_list(self, lr_model, encoder, X_train, german_train,
                                sp_metric, test_ctx, context, fd_context):
        # Zero surviving explanations (e.g. an over-tight support threshold)
        # must yield an empty set on both ascents, not a concatenate crash.
        for ctx in (context, fd_context):
            result = find_update_explanations(
                ctx.model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                [], [], context=ctx,
            )
            assert len(result) == 0
            assert result.original_bias == pytest.approx(ctx.original_bias)

    def test_empty_subset_rejected(self, lr_model, encoder, X_train, german_train,
                                   sp_metric, test_ctx):
        with pytest.raises(ValueError, match="empty"):
            find_update_explanations(
                lr_model, encoder, X_train, german_train.labels, sp_metric, test_ctx,
                [PATTERNS[0]], [np.array([], dtype=np.int64)],
            )

    def test_set_protocol_and_timings(self, engine):
        result = engine()
        assert len(result) == len(PATTERNS)
        assert [u.pattern for u in result] == PATTERNS
        assert result[0] is result.updates[0]
        assert result.search_seconds > 0
        assert result.verify_seconds == 0.0
        assert result.metric_name == "statistical_parity"

    def test_render_and_records(self, engine):
        result = engine(removal_bias_changes=[-0.05] * len(PATTERNS),
                        removal_sources=["estimated"] * len(PATTERNS))
        text = result.render()
        assert "Update-based explanations" in text
        assert "vs removal" in text
        records = result.to_records()
        json.dumps(records)
        assert all(r["removal_bias_source"] == "estimated" for r in records)

    def test_render_without_removal_reference(self, engine):
        assert "n/a" in engine().render()
