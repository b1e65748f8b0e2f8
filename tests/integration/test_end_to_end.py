"""Cross-module integration tests: the full Gopher story on each dataset."""

import pytest

from repro.core import GopherExplainer
from repro.datasets import load_adult, load_german, load_sqf, train_test_split
from repro.models import LinearSVM, LogisticRegression, NeuralNetwork


class TestGermanPipeline:
    @pytest.fixture(scope="class")
    def result(self):
        ds = load_german(800, seed=11)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3), max_predicates=2, support_threshold=0.05
        )
        gopher.fit(train, test)
        return gopher, gopher.explain(k=3, verify=True)

    def test_model_biased(self, result):
        gopher, _ = result
        assert gopher.original_bias > 0.1

    def test_top_explanation_verified_reduction(self, result):
        _, explanations = result
        assert explanations[0].gt_responsibility > 0.05

    def test_age_mechanism_found(self, result):
        _, explanations = result
        all_features = set()
        for e in explanations:
            all_features |= e.pattern.features()
        assert "age" in all_features or "gender" in all_features


class TestAdultPipeline:
    def test_gender_bias_explained(self):
        ds = load_adult(2500, seed=0)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator="first_order",
            max_predicates=2,
            support_threshold=0.05,
        )
        gopher.fit(train, test)
        assert gopher.original_bias > 0.1
        result = gopher.explain(k=3, verify=True)
        assert len(result) >= 1
        features = set().union(*(e.pattern.features() for e in result))
        # The household-income artifact: marital/relationship/gender patterns.
        assert features & {"marital", "relationship", "gender"}


class TestSQFPipeline:
    def test_race_bias_explained_with_flipped_favorable(self):
        ds = load_sqf(3000, seed=0)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator="first_order",
            max_predicates=2,
            support_threshold=0.05,
        )
        gopher.fit(train, test)
        assert gopher.original_bias > 0.05  # whites not-frisked more often
        result = gopher.explain(k=3, verify=True)
        features = set().union(*(e.pattern.features() for e in result))
        assert "race" in features or "fits_description" in features


class TestOtherModels:
    def test_svm_pipeline_runs(self):
        ds = load_german(600, seed=11)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            LinearSVM(l2_reg=1e-2),
            estimator="first_order",
            max_predicates=2,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=2, verify=False)
        assert len(result) >= 1

    def test_nn_pipeline_runs(self):
        ds = load_german(600, seed=11)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            NeuralNetwork(hidden_units=6, l2_reg=1e-3, seed=0),
            estimator="first_order",
            max_predicates=2,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=2, verify=False)
        assert len(result) >= 1

    def test_equal_opportunity_metric_pipeline(self):
        ds = load_german(600, seed=11)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            metric="equal_opportunity",
            estimator="first_order",
            max_predicates=2,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=2, verify=False)
        assert result.metric_name == "equal_opportunity"


class TestRemovalActuallyHelps:
    def test_removing_top_pattern_reduces_bias_on_refit(self):
        """The full loop a practitioner would run: explain, remove, retrain,
        re-measure."""
        ds = load_german(800, seed=11)
        train, test = train_test_split(ds, 0.25, seed=1)
        gopher = GopherExplainer(LogisticRegression(l2_reg=1e-3), max_predicates=2)
        gopher.fit(train, test)
        before = gopher.original_bias
        result = gopher.explain(k=1, verify=False)
        mask = result[0].pattern.mask(train.table)
        cleaned = train.without(mask)
        gopher2 = GopherExplainer(LogisticRegression(l2_reg=1e-3), max_predicates=1)
        gopher2.fit(cleaned, test)
        after = gopher2.original_bias
        assert after < before
