"""Tests for the FO-tree baseline explainer."""

import pytest

from repro.baselines import FOTreeExplainer


@pytest.fixture(scope="module")
def fo_tree(german_train, fo_estimator):
    return FOTreeExplainer(max_depth=3, min_samples_leaf=20).fit(
        german_train.table, fo_estimator
    )


class TestFOTree:
    def test_topk_count(self, fo_tree):
        assert len(fo_tree.top_k(3)) == 3

    def test_explanations_sorted_by_influence(self, fo_tree):
        explanations = fo_tree.top_k(5)
        totals = [e.total_influence for e in explanations]
        assert totals == sorted(totals)

    def test_top_explanation_reduces_bias(self, fo_tree):
        assert fo_tree.top_k(1)[0].total_influence < 0

    def test_conditions_renderable(self, fo_tree):
        for explanation in fo_tree.top_k(3):
            text = explanation.describe()
            assert "sup=" in text

    def test_root_excluded(self, fo_tree):
        for explanation in fo_tree.top_k(10):
            assert explanation.node_depth >= 1
            assert explanation.support < 1.0

    def test_supports_larger_than_gopher_typical(self, fo_tree):
        """Qualitative paper finding: FO-tree explanations are coarser
        (higher support) than Gopher's."""
        top = fo_tree.top_k(3)
        assert max(e.support for e in top) > 0.15

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            FOTreeExplainer().top_k(1)

    def test_invalid_k(self, fo_tree):
        with pytest.raises(ValueError, match="k must be"):
            fo_tree.top_k(0)

    def test_row_mismatch_rejected(self, german_test, fo_estimator):
        with pytest.raises(ValueError, match="must match"):
            FOTreeExplainer().fit(german_test.table, fo_estimator)

    def test_negated_conditions_rendered(self, fo_tree):
        texts = [" ∧ ".join(e.conditions) for e in fo_tree.top_k(8)]
        rendered = " | ".join(texts)
        # Tree paths include both polarities somewhere in the top nodes.
        assert ("!=" in rendered) or (">=" in rendered) or ("<" in rendered)
