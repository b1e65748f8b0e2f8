"""AuditSession: one start-up, many queries — equivalence and accounting.

The session contract has two halves, both pinned here:

* **equivalence** — a session-built explainer view answers *identically*
  (patterns and scores to 1e-10) to a fresh ``GopherExplainer`` built
  from scratch for the same (metric, group, engine, estimator) question,
  for every built-in metric × both candidate engines × the three
  closed-form search estimators;
* **accounting** — a whole multi-metric, multi-group audit performs the
  heavy start-up builds exactly once (Hessian factorization, per-sample
  gradients, predicate alphabet, packed tidlists), asserted via the
  session's stats counters.
"""

import numpy as np
import pytest

from repro.core import AuditResult, AuditSession, GopherExplainer
from repro.datasets import DataEdit, ProtectedGroup, load_german, random_edit, train_test_split
from repro.fairness import list_metrics
from repro.models import LogisticRegression
from repro.obs import trace
from repro.obs.trace import Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)
ESTIMATORS = ["first_order", "series", "exact"]
ENGINES = ["lattice", "mining"]

GENDER = ProtectedGroup(attribute="gender", privileged_category="Male")


@pytest.fixture(scope="module")
def session(lr_model, german_train, german_test):
    return AuditSession(lr_model, **SEARCH).fit(german_train, german_test)


def assert_same_explanations(fresh, view, abs_tol=1e-10):
    assert [e.pattern for e in fresh] == [e.pattern for e in view]
    for a, b in zip(fresh, view):
        assert a.est_responsibility == pytest.approx(b.est_responsibility, abs=abs_tol)
        assert a.est_bias_change == pytest.approx(b.est_bias_change, abs=abs_tol)
        assert a.support == pytest.approx(b.support, abs=1e-12)


class TestSessionVsFreshEquivalence:
    @pytest.mark.parametrize("metric", list_metrics())
    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("estimator", ESTIMATORS)
    def test_identical_explanations(
        self, session, lr_model, german_train, german_test, metric, engine, estimator
    ):
        fresh = GopherExplainer(
            lr_model, metric=metric, engine=engine, estimator=estimator, **SEARCH
        ).fit(german_train, german_test)
        fresh_result = fresh.explain(k=3, verify=False)

        view = session.explainer(metric=metric, estimator=estimator)
        view.config.engine = engine
        view_result = view.explain(k=3, verify=False)
        assert_same_explanations(fresh_result, view_result)

    def test_view_matches_fresh_for_non_default_group(
        self, session, lr_model, german_train, german_test
    ):
        fresh = GopherExplainer(lr_model, metric="statistical_parity", **SEARCH).fit(
            german_train.with_protected(GENDER), german_test.with_protected(GENDER)
        )
        fresh_result = fresh.explain(k=3, verify=False)
        view = session.explainer(metric="statistical_parity", group=GENDER)
        assert_same_explanations(fresh_result, view.explain(k=3, verify=False))

    def test_view_responsibility_queries_match(self, session, fo_estimator):
        from repro.patterns import Pattern, Predicate

        view = session.explainer(metric="statistical_parity", estimator="first_order")
        pattern = Pattern([Predicate("gender", "=", "Female")])
        mask = pattern.mask(session.train_data.table)
        expected = fo_estimator.responsibility(np.flatnonzero(mask))
        assert view.responsibility_of(pattern) == pytest.approx(expected, abs=1e-12)


class TestAccounting:
    def test_one_factorization_across_three_metrics(self, lr_model, german_train, german_test):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        result = session.audit(
            metrics=["statistical_parity", "equal_opportunity", "average_odds"], k=2
        )
        assert isinstance(result, AuditResult)
        assert len(result) == 3
        assert session.stats["influence.hessian_factorizations"] == 1
        assert session.stats["influence.hessian_builds"] == 1
        assert session.stats["influence.per_sample_grad_builds"] == 1
        assert session.stats["mining.alphabet_builds"] == 1

    def test_one_tidlist_build_under_mining_engine(self, lr_model, german_train, german_test):
        session = AuditSession(lr_model, engine="mining", **SEARCH).fit(
            german_train, german_test
        )
        session.audit(
            metrics=["statistical_parity", "equal_opportunity", "average_odds"],
            groups=[german_train.protected, GENDER],
            k=2,
        )
        assert session.stats["mining.tidlist_builds"] == 1
        assert session.stats["mining.alphabet_builds"] == 1
        assert session.stats["influence.hessian_factorizations"] == 1

    def test_warmed_one_step_session_never_factorizes(
        self, lr_model, german_train, german_test
    ):
        """warm() builds what the configured estimator reads, and a one-step
        query reads no Hessian solver: none is built or updated through an
        audit, an update search and an edit."""
        session = AuditSession(lr_model, estimator="one_step_gd", **SEARCH).fit(
            german_train, german_test
        )
        session.warm()
        assert session.stats["influence.hessian_factorizations"] == 0
        assert session.stats["influence.rank_one_factor_builds"] == 0
        result = session.audit(metrics=["statistical_parity"], k=2)
        session.explainer(metric="statistical_parity").explain_updates(
            result[0].explanations, verify=False, num_steps=5
        )
        session.delta_audit(DataEdit.remove(range(8)), metrics=["statistical_parity"], k=2)
        assert session.stats["influence.hessian_factorizations"] == 0
        assert session.stats["influence.rank_one_factor_builds"] == 0
        assert session.stats["influence.solver_updates"] == 0

    def test_warmed_first_order_session_builds_no_factors(
        self, lr_model, german_train, german_test
    ):
        """First-order scoring reads the solver, never the rank-one factors."""
        session = AuditSession(lr_model, estimator="first_order", **SEARCH).fit(
            german_train, german_test
        )
        session.warm()
        assert session.stats["influence.hessian_factorizations"] == 1
        assert session.stats["influence.rank_one_factor_builds"] == 0

    def test_warm_with_no_groups(self, lr_model, german_train, german_test):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        session.warm(groups=[])
        assert session.stats["influence.hessian_factorizations"] == 1

    def test_repeated_explain_on_one_view_reuses_alphabet(self, session):
        before = session.stats["mining.alphabet_builds"]
        view = session.explainer(metric="statistical_parity")
        view.explain(k=1, verify=False)
        view.explain(k=1, verify=False)
        assert session.stats["mining.alphabet_builds"] == max(before, 1)

    def test_distinct_search_params_build_distinct_alphabets(self, session):
        view = session.explainer(metric="statistical_parity")
        before = dict(session.stats)
        view.config.support_threshold = 0.2
        view.explain(k=1, verify=False)
        assert session.stats["mining.alphabet_builds"] == before["mining.alphabet_builds"] + 1
        # ... but never a second factorization.
        key = "influence.hessian_factorizations"
        assert session.stats[key] == before[key]


class TestAuditResult:
    @pytest.fixture(scope="class")
    def audit(self, session):
        return session.audit(
            metrics=["statistical_parity", "equal_opportunity"],
            groups=[session.train_data.protected, GENDER],
            k=2,
        )

    def test_grid_shape_and_order(self, audit):
        assert len(audit) == 4
        assert [(q.metric, q.group.attribute) for q in audit] == [
            ("statistical_parity", "age"),
            ("equal_opportunity", "age"),
            ("statistical_parity", "gender"),
            ("equal_opportunity", "gender"),
        ]

    def test_get_by_metric_and_attribute(self, audit):
        cell = audit.get("equal_opportunity", "gender")
        assert cell.group == GENDER
        with pytest.raises(KeyError, match="several protected attributes"):
            audit.get("statistical_parity")
        with pytest.raises(KeyError, match="no audit query"):
            audit.get("predictive_parity")

    def test_render_mentions_every_cell(self, audit):
        text = audit.render()
        for query in audit:
            assert query.metric in text
            assert query.group.describe() in text

    def test_records_carry_group(self, audit):
        records = audit.to_records()
        assert records
        assert {r["protected_attribute"] for r in records} == {"age", "gender"}

    def test_stats_snapshot_attached(self, audit):
        assert audit.stats["influence.hessian_factorizations"] == 1
        assert audit.setup_seconds >= 0.0


class TestStaleModelRejected:
    def test_prefitted_model_with_wrong_width_raises(
        self, lr_model, german_train, german_test
    ):
        # lr_model is fitted on the German encoding; a table with a column
        # removed encodes to a different width.
        narrow_table = german_train.table.drop(["purpose"])
        from repro.datasets.base import Dataset

        narrow_train = Dataset(
            "german-narrow", narrow_table, german_train.labels,
            german_train.protected, german_train.favorable_label,
        )
        narrow_test = Dataset(
            "german-narrow", german_test.table.drop(["purpose"]), german_test.labels,
            german_test.protected, german_test.favorable_label,
        )
        gopher = GopherExplainer(lr_model, max_predicates=1)
        with pytest.raises(ValueError, match="features"):
            gopher.fit(narrow_train, narrow_test)

    def test_error_names_both_dimensions(self, lr_model, german_train, german_test):
        from repro.datasets.base import Dataset

        narrow = Dataset(
            "g", german_train.table.drop(["purpose"]), german_train.labels,
            german_train.protected, german_train.favorable_label,
        )
        expected = lr_model.num_features
        with pytest.raises(ValueError) as err:
            AuditSession(lr_model, max_predicates=1).fit(
                narrow,
                Dataset(
                    "g", german_test.table.drop(["purpose"]), german_test.labels,
                    german_test.protected, german_test.favorable_label,
                ),
            )
        assert str(expected) in str(err.value)

    def test_matching_prefitted_model_accepted_and_not_refit(
        self, lr_model, german_train, german_test
    ):
        theta_before = lr_model.theta.copy()
        AuditSession(lr_model, max_predicates=1).fit(german_train, german_test)
        np.testing.assert_array_equal(lr_model.theta, theta_before)

    @pytest.mark.parametrize("kind", ["remove", "relabel"])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_view_minted_before_an_edit_refuses_to_search(
        self, lr_model, german_train, german_test, engine, kind
    ):
        """A view minted before ``apply_edit`` holds an estimator of the
        pre-edit artifacts.  Its search refuses with the staleness error,
        which names the edit, before any subset is scored."""
        sess = AuditSession(lr_model, engine=engine, **SEARCH).fit(german_train, german_test)
        view = sess.explainer()
        sess.apply_edit(random_edit(sess.train_data, kind, count=8, seed=3))
        with trace.tracing(Tracer()) as tracer:
            with pytest.raises(RuntimeError, match="edited after this estimator was built"):
                view.explain(k=3, verify=False)
        spans = {span.name for span in tracer.walk()}
        assert not spans & {"influence.batch", "influence.batch_indices"}

    @pytest.mark.parametrize("query", ["explain_updates", "ground_truth"])
    @pytest.mark.parametrize("kind", ["remove", "relabel", "add"])
    def test_view_minted_before_an_edit_refuses_to_read_rows(self, kind, query):
        """A view's table, training rows and estimator describe the data it
        was minted on.  After an edit, its update search and its retrained
        responsibility refuse before they read a row: they used to die with
        an IndexError after a removal (a cached update context) or answer
        from the pre-edit rows."""
        train, test = train_test_split(load_german(600, seed=0), 0.25, 0)
        sess = AuditSession(
            LogisticRegression(l2_reg=1e-3), estimator="series", retrain_jobs=1, **SEARCH
        ).fit(train, test)
        view = sess.explainer()
        # Verified, so the update search takes its removal references from
        # the retrains and never asks the view's (stale) estimator.
        explanations = view.explain(k=3, verify=True)

        def ask():
            if query == "explain_updates":
                return view.explain_updates(explanations, verify=False, num_steps=5)
            return view.responsibility_of(explanations[0].pattern, ground_truth=True)

        ask()  # the update search caches its context on the view
        sess.apply_edit(random_edit(sess.train_data, kind, count=8, seed=1))
        with pytest.raises(RuntimeError, match="edited after this explainer view was built"):
            ask()
        # A view minted after the edit answers.
        assert np.isfinite(sess.explainer().responsibility_of(explanations[0].pattern))


class TestReviewRegressions:
    def test_group_declared_on_test_split_is_honored(self, lr_model, german_train, german_test):
        """The privileged mask has always come from the *test* dataset's
        declaration; a group set only there must not be silently replaced
        by the train split's default."""
        gopher = GopherExplainer(lr_model, max_predicates=1)
        gopher.fit(german_train, german_test.with_protected(GENDER))
        expected = GENDER.privileged_mask(german_test.table)
        np.testing.assert_array_equal(gopher.test_ctx.privileged, expected)

    def test_view_filters_on_the_group_it_measures(self):
        """A view with no group measures the test split's declared group,
        so it must also filter protected-only patterns on that group: its
        top-k equals the audit's for the same (metric, group)."""
        train, test = train_test_split(load_german(1000, seed=0), 0.25, 0)
        assert train.protected.attribute == "age"
        session = AuditSession(
            LogisticRegression(), estimator="first_order", **SEARCH
        ).fit(train, test.with_protected(GENDER))
        view = session.explainer()
        assert view.protected_group == GENDER
        audited = session.audit(metrics=[session.config.metric], k=5).get(
            session.config.metric, "gender"
        )
        assert_same_explanations(audited.explanations, view.explain(k=5, verify=False))

    def test_estimator_family_override_drops_foreign_kwargs(
        self, lr_model, german_train, german_test
    ):
        session = AuditSession(
            lr_model,
            estimator="second_order",
            estimator_kwargs={"variant": "series"},
            **SEARCH,
        ).fit(german_train, german_test)
        view = session.explainer(estimator="first_order")  # must not get variant=
        assert view.estimator.__class__.__name__ == "FirstOrderInfluence"
        view.explain(k=1, verify=False)

    def test_alias_override_keeps_second_order_kwargs(
        self, lr_model, german_train, german_test
    ):
        """'exact'/'series' are the second-order family: overriding with an
        alias must keep shared kwargs like damping (same solver, still one
        factorization) while its fixed variant wins over the config's."""
        session = AuditSession(
            lr_model,
            estimator="second_order",
            estimator_kwargs={"variant": "series", "damping": 1e-3},
            **SEARCH,
        ).fit(german_train, german_test)
        default = session.explainer()
        exact = session.explainer(estimator="exact")
        assert default.estimator.variant == "series"
        assert exact.estimator.variant == "exact"
        assert exact.estimator.damping == 1e-3
        assert exact.estimator.solver is default.estimator.solver
        assert session.stats["influence.hessian_factorizations"] == 1

    def test_same_family_keeps_config_kwargs(self, lr_model, german_train, german_test):
        session = AuditSession(
            lr_model,
            estimator="second_order",
            estimator_kwargs={"variant": "series"},
            **SEARCH,
        ).fit(german_train, german_test)
        assert session.explainer().estimator.variant == "series"

    def test_get_with_two_groups_over_one_attribute(self, session):
        audit = session.audit(
            metrics=["statistical_parity"],
            groups=[
                ProtectedGroup(attribute="age", privileged_threshold=45.0),
                ProtectedGroup(attribute="age", privileged_threshold=30.0),
            ],
            k=1,
        )
        with pytest.raises(KeyError, match="several groups over attribute"):
            audit.get("statistical_parity", "age")

    def test_view_config_mutation_does_not_leak_to_session(self, session):
        view = session.explainer()
        view.config.exclude_features.add("purpose")
        view.config.estimator_kwargs["variant"] = "exact"
        assert "purpose" not in session.config.exclude_features
        assert "variant" not in session.config.estimator_kwargs


class TestSessionSurface:
    def test_alphabet_for_keys_on_the_view_config(self, lr_model, german_train, german_test):
        """``alphabet_for`` is the session's one alphabet lookup: the
        session's key by default, a view's key for that view's search, so a
        view that excludes a feature searches an alphabet without it."""
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        assert session.alphabet_for() is session.alphabet_for(session.config)
        view = session.explainer()
        view.config.exclude_features.add("purpose")
        result = view.explain(k=3, verify=False)
        excluding = session.alphabet_for(view.config)
        assert excluding is not session.alphabet_for()
        assert excluding.exclude_features == {"purpose"}
        features = {p.feature for c in result.lattice.candidates for p in c.pattern.predicates}
        assert features and "purpose" not in features
        assert session.stats["mining.alphabet_builds"] == 2

    def test_report_rides_session(self, session):
        report = session.report()
        assert "statistical_parity" in report.metrics
        gender_report = session.report(GENDER)
        assert np.isfinite(gender_report.accuracy)

    def test_contexts_share_test_encoding(self, session):
        age_ctx = session.context_for()
        gender_ctx = session.context_for(GENDER)
        assert age_ctx.X is gender_ctx.X  # one shared encoding
        assert not np.array_equal(age_ctx.privileged, gender_ctx.privileged)
        assert session.context_for(GENDER) is gender_ctx  # cached

    def test_unfitted_session_raises(self, lr_model):
        session = AuditSession(lr_model)
        with pytest.raises(RuntimeError, match="not fitted"):
            session.audit()
        with pytest.raises(RuntimeError, match="not fitted"):
            session.explainer()

    def test_config_and_overrides_mutually_exclusive(self, lr_model):
        from repro.core import GopherConfig

        with pytest.raises(ValueError, match="not both"):
            AuditSession(lr_model, GopherConfig(), metric="statistical_parity")

    def test_explainer_fit_exposes_its_session(self, german_train, german_test):
        gopher = GopherExplainer(LogisticRegression(l2_reg=1e-3), max_predicates=1)
        gopher.fit(german_train, german_test)
        assert gopher.session is not None
        assert gopher.session.alphabet_cache is not None
        assert gopher.estimator.artifacts is gopher.session.artifacts


class TestStatsNamespacing:
    """session.stats: namespaced influence.*/mining.*/engine.* keys only."""

    def test_every_counter_is_namespaced(self, session):
        session.audit(metrics=["statistical_parity"], k=2)
        stats = session.stats
        assert stats and all(
            key.split(".", 1)[0] in ("influence", "mining", "engine") for key in stats
        )
        # Each cache's dict-shaped view reads its own namespace of the
        # session registry.
        for prefix, view in (
            ("influence.", session.artifacts.stats),
            ("mining.", session.alphabet_cache.stats),
        ):
            for key, value in view.items():
                assert stats[prefix + key] == value, key

    def test_expected_layers_present(self, session):
        stats = session.stats
        assert "influence.hessian_factorizations" in stats
        assert "mining.alphabet_builds" in stats
        assert "influence.edits" in stats
        assert "mining.tidlist_patches" in stats
