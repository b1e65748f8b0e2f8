"""Batch-vs-loop equivalence for the vectorized §5 update-search engine.

The batched engine must produce the same δ's, estimated bias changes, and
described updates through its analytic ``input_grads`` ascent as the
per-coordinate finite-difference reference loop of ``oracles.update_loop``,
mirroring the estimator-equivalence suite.
"""

import json

import numpy as np
import pytest
from oracles import update_loop

from repro.influence import ModelArtifacts
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


@pytest.fixture(scope="module")
def subsets(german_train):
    subsets = [np.flatnonzero(p.mask(german_train.table)) for p in PATTERNS]
    assert all(s.size > 0 for s in subsets)
    return subsets


def make_context(lr_model, X_train, german_train, sp_metric, test_ctx):
    artifacts = ModelArtifacts(lr_model, X_train, german_train.labels)
    return UpdateSearchContext(artifacts, sp_metric, test_ctx)


@pytest.fixture(scope="module")
def context(lr_model, X_train, german_train, sp_metric, test_ctx):
    return make_context(lr_model, X_train, german_train, sp_metric, test_ctx)


@pytest.fixture(scope="module")
def engine(encoder, subsets, context):
    def run(search=find_update_explanations, **kwargs):
        kwargs.setdefault("num_steps", 40)
        return search(context, encoder, PATTERNS, subsets, **kwargs)

    return run


@pytest.fixture(scope="module")
def loop(engine):
    return lambda **kwargs: engine(update_loop.find_update_explanations, **kwargs)


@pytest.fixture(scope="module")
def loop_result(loop):
    return loop()


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
            make_context(lr_model, X_train, german_train, sp_metric, test_ctx),
            encoder, PATTERNS, subsets, num_steps=40,
        )
        _assert_equivalent(fresh, shared)

    def test_single_pattern_matches_engine(self, encoder, subsets, engine, context):
        single = find_update_explanations(
            context, encoder, PATTERNS[:1], subsets[:1], num_steps=40
        )
        _assert_equivalent(single, engine()[:1])


class TestEngineResult:
    def test_misaligned_inputs_rejected(self, subsets, encoder, context):
        with pytest.raises(ValueError, match="aligned"):
            find_update_explanations(context, encoder, PATTERNS, subsets[:-1])
        with pytest.raises(ValueError, match="one entry per pattern"):
            find_update_explanations(
                context, encoder, PATTERNS, subsets, removal_bias_changes=[0.0]
            )

    def test_context_built_before_an_edit_refuses(
        self, lr_model, encoder, X_train, german_train, sp_metric, test_ctx, subsets
    ):
        """The context's rows, η and train grads describe the data its
        artifacts held when it was built."""
        stale = make_context(lr_model, X_train, german_train, sp_metric, test_ctx)
        stale.artifacts.apply_edit(remove_indices=[0])
        with pytest.raises(RuntimeError, match="edited after this update-search context"):
            find_update_explanations(stale, encoder, PATTERNS, subsets)

    def test_empty_pattern_list(self, encoder, context):
        # Zero surviving explanations (e.g. an over-tight support threshold)
        # must yield an empty set, not a concatenate crash.
        result = find_update_explanations(context, encoder, [], [])
        assert len(result) == 0
        assert result.original_bias == pytest.approx(context.original_bias)

    def test_empty_subset_rejected(self, encoder, context):
        with pytest.raises(ValueError, match="empty"):
            find_update_explanations(
                context, encoder, [PATTERNS[0]], [np.array([], dtype=np.int64)]
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
