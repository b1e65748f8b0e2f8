"""Tests for repro.core.config."""

import pytest

from repro.core import GopherConfig


class TestDefaults:
    def test_paper_defaults(self):
        cfg = GopherConfig()
        assert cfg.metric == "statistical_parity"
        assert cfg.estimator == "second_order"
        assert cfg.support_threshold == 0.05
        assert cfg.prune_by_responsibility is True

    def test_overrides(self):
        cfg = GopherConfig(metric="equal_opportunity", max_predicates=4)
        assert cfg.metric == "equal_opportunity"
        assert cfg.max_predicates == 4


class TestValidation:
    def test_unknown_metric(self):
        with pytest.raises(ValueError, match="unknown metric"):
            GopherConfig(metric="nope")

    def test_unknown_estimator(self):
        with pytest.raises(ValueError, match="unknown estimator"):
            GopherConfig(estimator="nope")

    def test_bad_support(self):
        with pytest.raises(ValueError, match="support_threshold"):
            GopherConfig(support_threshold=1.0)

    def test_bad_containment(self):
        with pytest.raises(ValueError, match="containment_threshold"):
            GopherConfig(containment_threshold=0.0)

    def test_bad_max_predicates(self):
        with pytest.raises(ValueError, match="max_predicates"):
            GopherConfig(max_predicates=0)

    @pytest.mark.parametrize("depth", [2.5, True])
    def test_non_integer_max_predicates(self, depth):
        """2.5 died inside NumPy on the miner and True ran at depth 1."""
        with pytest.raises(ValueError, match="max_predicates must be an integer"):
            GopherConfig(max_predicates=depth)

    def test_unknown_excluded_feature_refused_by_the_search(
        self, lr_model, german_train, german_test
    ):
        from repro.core import AuditSession

        session = AuditSession(
            lr_model, estimator="first_order", max_predicates=2, exclude_features={"nope"}
        )
        # The first alphabet build refuses: the audit's, or a sanitized
        # run's warm() inside fit().
        with pytest.raises(ValueError, match="exclude_features"):
            session.fit(german_train, german_test).audit(metrics=["statistical_parity"], k=2)

    def test_bad_test_fraction(self):
        with pytest.raises(ValueError, match="test_fraction"):
            GopherConfig(test_fraction=0.0)
