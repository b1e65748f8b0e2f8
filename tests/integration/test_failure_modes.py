"""Failure-injection tests: the degradations DESIGN.md promises we handle."""

import numpy as np
import pytest

from repro.core import AuditSession, GopherExplainer
from repro.datasets import (
    DataEdit,
    Dataset,
    ProtectedGroup,
    load_german,
    random_edit,
    train_test_split,
)
from repro.fairness import FairnessContext, get_metric, list_metrics
from repro.influence import FirstOrderInfluence
from repro.models import LinearSVM, LogisticRegression, NeuralNetwork
from repro.obs import trace
from repro.obs.trace import Tracer
from repro.tabular import NumericColumn, Table


class TestZeroBias:
    def test_responsibility_undefined_when_unbiased(self):
        """A perfectly unbiased model has F = 0; Def. 3.2 divides by it."""
        rng = np.random.default_rng(0)
        n = 200
        X = rng.normal(size=(n, 3))
        y = (X[:, 0] > 0).astype(np.int64)
        # Groups split so predictions are exactly balanced by construction.
        privileged = np.arange(n) % 2 == 0
        model = LogisticRegression(l2_reg=1e-3).fit(X, y)
        ctx = FairnessContext(X, y, privileged)
        metric = get_metric("statistical_parity")
        estimator = FirstOrderInfluence(model, X, y, metric, ctx)
        if estimator.original_bias == 0.0:
            with pytest.raises(ZeroDivisionError):
                estimator.responsibility(np.arange(5))
        else:  # sampling made it slightly nonzero: responsibility is finite
            assert np.isfinite(estimator.responsibility(np.arange(5)))


def twin_table(n: int, seed: int) -> Dataset:
    """Every row once per protected group, with one label: the fit is
    symmetric in the two groups, so the bias is exactly zero."""
    rng = np.random.default_rng(seed)
    signal = np.round(rng.normal(size=n), 2)
    color = rng.choice(["red", "green", "blue"], size=n)
    y = (signal + 0.5 * (color == "red") + rng.normal(scale=0.5, size=n) > 0).astype(np.int64)
    table = Table.from_dict(
        {
            "group": np.repeat(["a", "b"], n),
            "signal": np.tile(signal, 2),
            "color": np.tile(color, 2),
        }
    )
    return Dataset("twins", table, np.tile(y, 2), ProtectedGroup("group", privileged_category="a"))


class TestZeroBiasSearch:
    """A search over an unbiased model raises the estimator's named error
    instead of scoring every candidate R = 0 into an empty top-k, also when
    τ leaves no candidate to score."""

    @pytest.mark.parametrize("support", [0.05, 0.99])
    @pytest.mark.parametrize("engine", ["lattice", "mining"])
    @pytest.mark.parametrize("estimator", ["first_order", "second_order"])
    def test_explain_raises_naming_the_metric(self, estimator, engine, support):
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator=estimator,
            engine=engine,
            max_predicates=2,
            support_threshold=support,
        )
        gopher.fit(twin_table(120, 0), twin_table(40, 1))
        assert gopher.estimator.original_bias == 0.0
        with pytest.raises(ZeroDivisionError, match="original statistical_parity bias is zero"):
            gopher.explain(k=3, verify=False)


class TestZeroRetrainedBias:
    """Verification against a model whose hard bias is exactly zero: the
    smooth search still finds explanations, but R = −ΔF / F is undefined
    for the retrained ground truth, so it is left None, not reported 0."""

    @pytest.fixture
    def result(self):
        # One extra group-a row makes the training table group-unbalanced:
        # the smooth bias on the twin test table is about -0.001, while no
        # test twin's hard prediction flips, so the hard bias is 0.0.
        extra = Table.from_dict(
            {"group": np.array(["a"]), "signal": np.array([-1.16]), "color": np.array(["red"])}
        )
        train = twin_table(120, 0).with_rows(extra, np.array([0]))
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3), max_predicates=2, retrain_jobs=1
        )
        gopher.fit(train, twin_table(40, 1))
        assert gopher.original_bias == 0.0
        assert gopher.estimator.baseline != 0.0
        return gopher.explain(k=3, verify=True)

    def test_ground_truth_responsibility_is_undefined(self, result):
        assert len(result) == 3
        for explanation in result:
            assert explanation.est_responsibility > 0.5
            assert explanation.gt_bias_change is not None
            assert explanation.gt_responsibility is None
            assert explanation.bias_reduction_pct is None
            assert "true Δbias=undefined (retrained bias 0)" in explanation.describe()
        records = result.to_records()
        assert [r["ground_truth_responsibility"] for r in records] == [None] * 3
        assert all(r["ground_truth_bias_change"] is not None for r in records)

    def test_render_says_undefined_not_estimated(self, result):
        rows = result.render().splitlines()[2:-1]
        assert len(rows) == 3
        assert all("undefined (retrained bias 0)" in row and "*" not in row for row in rows)


class TestUnverifiableExplanation:
    """Removing one selected subset leaves a single label class, so that
    explanation has no model to retrain: it stays unverified (``gt_*``
    None) and the other explanations are still verified, in ``explain``
    and in ``delta_audit`` alike."""

    @staticmethod
    def _train() -> Dataset:
        # Two extra group-a rows: removing ``signal < 0.73`` (74% of the
        # rows) then leaves only label 1.
        extra = Table.from_dict(
            {
                "group": np.array(["a", "a"]),
                "signal": np.array([-1.16, 0.3]),
                "color": np.array(["red", "red"]),
            }
        )
        return twin_table(120, 0).with_rows(extra, np.array([0, 1]))

    @staticmethod
    def _check(explanations, train: Dataset) -> None:
        one_class = [
            np.unique(train.labels[~e.pattern.mask(train.table)]).size < 2
            for e in explanations
        ]
        assert any(one_class) and not all(one_class)
        for explanation, degenerate in zip(explanations, one_class):
            assert (explanation.gt_bias_change is None) == degenerate
            if degenerate:
                assert explanation.gt_responsibility is None

    def test_explain(self):
        train = self._train()
        gopher = GopherExplainer(LogisticRegression(l2_reg=1e-3), max_predicates=2, retrain_jobs=1)
        gopher.fit(train, twin_table(40, 1))
        tracer = Tracer()
        with trace.tracing(tracer):
            result = gopher.explain(k=3, verify=True)
        self._check(result, train)
        (span,) = [s for s in tracer.walk() if s.name == "explain.verify"]
        assert span.attrs["unverifiable"] == 1

    def test_delta_audit(self):
        session = AuditSession(LogisticRegression(l2_reg=1e-3), max_predicates=2, retrain_jobs=1)
        session.fit(self._train(), twin_table(40, 1))
        metrics = ["statistical_parity"]
        self._check(session.audit(metrics=metrics, k=3, verify=True).queries[0].explanations,
                    session.train_data)
        tracer = Tracer()
        with trace.tracing(tracer):
            delta = session.delta_audit(
                DataEdit.remove([126]), metrics=metrics, k=3, verify=True
            )
        assert delta.num_certified == 1  # the replay path verifies, too
        self._check(delta.after.queries[0].explanations, session.train_data)
        # The replay's retrains sit on their own explain.verify span, as a
        # fresh search's do, not on the delta.query span that holds them.
        (query,) = [s for s in tracer.walk() if s.name == "delta.query"]
        assert query.attrs["certified"] is True
        assert "unverifiable" not in query.attrs
        (verify,) = [s for s in query.walk() if s.name == "explain.verify"]
        assert verify.attrs["unverifiable"] == 1


class TestZeroBiasAudit:
    """An audit grid refuses its zero-bias queries by name, one cell at a
    time, and answers the rest: the twin table is unbiased between its two
    ``group`` values under every metric, and biased between colors."""

    GROUPS = [
        ProtectedGroup("group", privileged_category="a"),
        ProtectedGroup("color", privileged_category="red"),
    ]

    @staticmethod
    def _check(queries):
        assert len(queries) == 2 * len(list_metrics())
        for query in queries:
            if query.group.attribute == "group":
                assert len(query.explanations) == 0
                assert query.explanations.refusal == (
                    f"original {query.metric} bias is zero under smooth evaluation; "
                    "responsibility is undefined"
                )
                assert "refused: original" in query.describe()
            else:
                assert query.explanations.refusal == ""
                assert len(query.explanations) > 0

    @pytest.fixture(params=["lattice", "mining"])
    def session(self, request):
        session = AuditSession(
            LogisticRegression(l2_reg=1e-3), engine=request.param, max_predicates=2
        )
        return session.fit(twin_table(120, 0), twin_table(40, 1))

    def test_audit_records_each_refusal_and_answers_the_rest(self, session):
        result = session.audit(groups=self.GROUPS, k=3, verify=False)
        self._check(result.queries)
        assert result.render().count("refused: original") == len(list_metrics())
        # An answered cell is what its own explainer view returns.
        answered = result.get("statistical_parity", attribute="color")
        alone = session.explainer(group=self.GROUPS[1]).explain(k=3, verify=False)
        assert answered.explanations.patterns() == alone.patterns()

    def test_delta_audit_keeps_the_refusals(self, session):
        session.audit(groups=self.GROUPS, k=3, verify=False)
        delta = session.delta_audit(
            random_edit(session.train_data, "remove", 4, seed=0),
            groups=self.GROUPS,
            k=3,
            verify=False,
        )
        self._check(delta.after.queries)
        refused = [q for q in delta.queries if q.after.refusal]
        assert len(refused) == len(list_metrics())
        assert all(not q.certified and not q.recheck_ran for q in refused)
        assert "refused: original" in delta.render()


class TestSingularHessian:
    def test_duplicate_features_handled_by_damping(self):
        """Duplicated columns + zero regularization make H singular; the
        solver must fall back to damping instead of crashing."""
        rng = np.random.default_rng(1)
        n = 150
        base = rng.normal(size=(n, 2))
        X = np.hstack([base, base[:, :1]])  # third column duplicates the first
        y = (base[:, 0] > 0).astype(np.int64)
        privileged = rng.random(n) < 0.5
        model = LogisticRegression(l2_reg=0.0, max_iter=200).fit(X, y)
        ctx = FairnessContext(X, y, privileged)
        estimator = FirstOrderInfluence(
            model, X, y, get_metric("statistical_parity"), ctx
        )
        change = estimator.bias_change(np.arange(10))
        assert np.isfinite(change)
        assert estimator.solver.damping_used >= 0.0


class TestDegenerateSearchInputs:
    def test_no_candidates_above_threshold(self):
        """An impossible support threshold yields an empty explanation set,
        not an exception."""
        train, test = train_test_split(load_german(400, seed=11), 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator="first_order",
            support_threshold=0.99,
            max_predicates=2,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=3, verify=False)
        assert len(result) == 0
        assert result.render()  # still renders a header

    def test_constant_feature_column(self):
        """A constant column produces no thresholds and one full-support
        equality predicate; the pipeline must survive it."""
        rng = np.random.default_rng(2)
        n = 300
        group = rng.choice(["a", "b"], size=n)
        signal = rng.normal(size=n)
        y = ((group == "a") * 0.8 + signal > 0.4).astype(np.int64)
        table = Table.from_dict(
            {
                "group": group,
                "signal": signal,
                "constant": np.full(n, 7.0),
            }
        )
        data = Dataset("toy", table, y, ProtectedGroup("group", privileged_category="a"))
        train, test = train_test_split(data, 0.25, seed=0)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator="first_order",
            max_predicates=2,
            support_threshold=0.05,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=2, verify=False)
        assert isinstance(len(result), int)

    def test_tiny_k_larger_than_candidates(self):
        train, test = train_test_split(load_german(400, seed=11), 0.25, seed=1)
        gopher = GopherExplainer(
            LogisticRegression(l2_reg=1e-3),
            estimator="first_order",
            support_threshold=0.4,
            max_predicates=1,
        )
        gopher.fit(train, test)
        result = gopher.explain(k=50, verify=False)
        assert len(result) <= 50  # returns what exists, no error


class TestNonFiniteFeatures:
    """A NaN or ±inf feature must not fit silently to the starting θ."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("model", [LogisticRegression, LinearSVM, NeuralNetwork])
    def test_fit_raises_naming_x(self, model, bad, tiny_xy):
        X, y = tiny_xy
        X = X.copy()
        X[7, 2] = bad
        with pytest.raises(ValueError, match=r"X has NaN or inf in 1 row\(s\), first in column 2"):
            model().fit(X, y)

    def test_message_counts_rows_and_names_the_first_column(self, tiny_xy):
        X, y = tiny_xy
        X = X.copy()
        X[3, 3] = np.nan
        X[9, 1] = np.inf
        X[9, 3] = -np.inf
        with pytest.raises(ValueError, match=r"in 2 row\(s\), first in column 1"):
            LogisticRegression().fit(X, y)


def with_bad_cell(data: Dataset, row: int, value: float) -> Dataset:
    """``data`` with one ``duration`` cell replaced, columns kept in order."""
    table = data.table
    values = table.column("duration").values.copy()
    values[row] = value
    columns = [
        NumericColumn(name, values) if name == "duration" else table.column(name)
        for name in table.column_names
    ]
    return Dataset(data.name, Table(columns), data.labels, data.protected, data.favorable_label)


@pytest.fixture(scope="module")
def repair_session(lr_model, german_train, german_test):
    """A series/smooth depth-2 session that has audited once."""
    session = AuditSession(
        lr_model,
        max_predicates=2,
        support_threshold=0.05,
        estimator="series",
        estimator_kwargs={"evaluation": "smooth"},
    ).fit(german_train, german_test)
    session.audit(metrics=["statistical_parity"], k=3)
    return session


BAD_CELL = r"column 'duration' has NaN or inf in 1 row\(s\)"
NON_FINITE = pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])


class TestNonFiniteCells:
    """A NaN or ±inf table cell is refused where tables become matrices,
    on every path into a session — never a silent 0.0 bias or empty top-k."""

    @NON_FINITE
    def test_pre_fitted_model_with_bad_train_cell(self, bad, lr_model, german_train, german_test):
        session = AuditSession(lr_model, estimator="first_order")
        with pytest.raises(ValueError, match=BAD_CELL):
            session.fit(with_bad_cell(german_train, 5, bad), german_test)

    @NON_FINITE
    def test_bad_test_cell(self, bad, german_train, german_test):
        session = AuditSession(LogisticRegression(l2_reg=1e-3), estimator="first_order")
        with pytest.raises(ValueError, match=BAD_CELL):
            session.fit(german_train, with_bad_cell(german_test, 5, bad))

    @NON_FINITE
    def test_bad_added_row(self, bad, repair_session):
        added = with_bad_cell(repair_session.train_data.subset([0, 1, 2, 3]), 2, bad)
        with pytest.raises(ValueError, match=BAD_CELL):
            repair_session.delta_audit(
                DataEdit.add(added.table, added.labels), metrics=["statistical_parity"], k=3
            )

    def test_refused_edit_leaves_the_session_unedited(self, repair_session):
        stats, X_train = repair_session.stats, repair_session.X_train.copy()
        train = repair_session.train_data
        added = with_bad_cell(train.subset([0, 1, 2, 3]), 1, np.nan)
        with pytest.raises(ValueError, match=BAD_CELL):
            repair_session.delta_audit(
                DataEdit.add(added.table, added.labels), metrics=["statistical_parity"], k=3
            )
        assert repair_session.stats == stats
        assert repair_session.train_data is train
        np.testing.assert_array_equal(repair_session.X_train, X_train)


def with_labels(data: Dataset, label: int) -> Dataset:
    """``data`` with every label set to ``label``."""
    labels = np.full(data.num_rows, label, dtype=data.labels.dtype)
    return Dataset(data.name, data.table, labels, data.protected, data.favorable_label)


SINGLE_CLASS = r"training labels hold a single class"
ONE_CLASS = pytest.mark.parametrize("label", [0, 1])


class TestSingleClassLabels:
    """Training labels of one class leave a degenerate model: the audit
    would report confident explanations of a bias of exactly zero."""

    @ONE_CLASS
    def test_fit_with_unfitted_model(self, label, german_train, german_test):
        session = AuditSession(LogisticRegression(l2_reg=1e-3), estimator="second_order")
        with pytest.raises(ValueError, match=SINGLE_CLASS):
            session.fit(with_labels(german_train, label), german_test)

    @ONE_CLASS
    def test_fit_with_pre_fitted_model(self, label, lr_model, german_train, german_test):
        session = AuditSession(lr_model, estimator="first_order")
        with pytest.raises(ValueError, match=SINGLE_CLASS):
            session.fit(with_labels(german_train, label), german_test)

    @ONE_CLASS
    def test_relabel_all_edit(self, label, repair_session):
        rows = np.arange(repair_session.train_data.num_rows)
        edit = DataEdit.relabel(rows, np.full(rows.size, label))
        with pytest.raises(ValueError, match=SINGLE_CLASS):
            repair_session.delta_audit(edit, metrics=["statistical_parity"], k=3)

    @ONE_CLASS
    def test_edit_removing_every_row_of_one_class(self, label, repair_session):
        labels = repair_session.train_data.labels
        with pytest.raises(ValueError, match=SINGLE_CLASS):
            repair_session.apply_edit(DataEdit.remove(np.flatnonzero(labels != label)))

    def test_refused_edit_leaves_the_session_unedited(self, repair_session):
        stats, X_train = repair_session.stats, repair_session.X_train.copy()
        train = repair_session.train_data
        rows = np.arange(train.num_rows)
        for edit in (
            DataEdit.relabel(rows, np.ones(rows.size, dtype=np.int64)),
            DataEdit.remove(np.flatnonzero(train.labels == 0)),
        ):
            with pytest.raises(ValueError, match=SINGLE_CLASS):
                repair_session.delta_audit(edit, metrics=["statistical_parity"], k=3)
        assert repair_session.stats == stats
        assert repair_session.train_data is train
        np.testing.assert_array_equal(repair_session.X_train, X_train)
