"""One start-up, many queries: the artifact-cached audit session.

A real fairness audit asks many questions of *one* trained model — every
registered metric, every protected attribute worth checking, several
estimator variants and k/τ settings.  Each question is one Gopher query,
but almost all of the pipeline's start-up cost is question-independent:

* **per-model** (once per session) — encoding the tables, fitting the
  model, the per-sample gradient matrix, the Hessian with its
  factorization and rank-one curvature factors
  (:class:`repro.influence.ModelArtifacts`), and the level-1 predicate
  alphabet with its packed tidlists
  (:class:`repro.mining.AlphabetCache`);
* **per-query** (once per metric × group × estimator) — ∇_θF, the original
  bias, the :class:`~repro.fairness.FairnessContext` of the protected
  attribute, and the candidate search itself.

:class:`AuditSession` owns the per-model half and hands out cheap views:
``session.explainer(metric=..., group=...)`` is a fully-functional
:class:`~repro.core.GopherExplainer` bound to one question, and
``session.audit(metrics=..., groups=...)`` fans a whole grid of questions
through the shared caches and returns a structured :class:`AuditResult`.
``session.stats`` exposes the cache counters, so "this audit factorized
the Hessian exactly once" is an assertable property, not a hope — see
``benchmarks/bench_audit_session.py`` for the measured amortization.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.config import GopherConfig
from repro.core.delta import replay_geometry, replay_search
from repro.core.explanation import ExplanationSet
from repro.datasets.base import Dataset, ProtectedGroup
from repro.datasets.edits import DataEdit
from repro.datasets.encoding import TabularEncoder
from repro.datasets.splits import train_test_split
from repro.fairness.metrics import FairnessContext, get_metric, list_metrics
from repro.fairness.report import FairnessReport, fairness_report
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import InfluenceEstimator, ZeroBiasError, make_estimator
from repro.mining.alphabet import AlphabetCache
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.obs.cost import CostReport
from repro.obs.lazy import Lazy
from repro.obs.metrics import MetricsRegistry
from repro.patterns.lattice import CandidateResult

# "exact" and "series" are first-class names for the two second-order
# variants (see make_estimator); for kwarg-inheritance purposes they are
# the same estimator family.
_SECOND_ORDER_NAMES = frozenset({"second_order", "exact", "series"})


def _same_estimator_family(a: str, b: str) -> bool:
    return a == b or (a in _SECOND_ORDER_NAMES and b in _SECOND_ORDER_NAMES)


def _require_two_classes(labels: np.ndarray, name: str) -> None:
    """Refuse labels of one class: the model is degenerate and every
    influence estimate would explain a bias that is not there."""
    classes = np.unique(labels)
    if classes.size < 2:
        raise ValueError(
            f"{name} hold a single class {classes.tolist()}; the model is degenerate"
        )


def _refused(view) -> ExplanationSet | None:
    """An empty answer carrying the refusal when the view's bias is zero.

    Definition 3.2 divides by the bias, so such a query has nothing to
    explain: an audit grid records the estimator's named
    :class:`~repro.influence.ZeroBiasError` on that cell and answers the
    others.  ``None`` for a query with a bias to explain.
    """
    try:
        view.estimator.nonzero_baseline()
    except ZeroBiasError as error:
        return ExplanationSet(
            explanations=[],
            metric_name=view.config.metric,
            original_bias=view.original_bias,
            search_seconds=0.0,
            filter_seconds=0.0,
            lattice=CandidateResult.of_stats([]),
            refusal=str(error),
        )
    return None


@dataclass
class AuditQuery:
    """One (metric, protected group) cell of an audit and its answer."""

    metric: str
    group: ProtectedGroup
    explanations: ExplanationSet
    seconds: float
    #: Per-query cost attribution derived from the query's span subtree
    #: (None when tracing was disabled during the audit).
    cost: CostReport | None = None

    @property
    def original_bias(self) -> float:
        return self.explanations.original_bias

    def describe(self) -> str:
        answer = (
            f"refused: {self.explanations.refusal}"
            if self.explanations.refusal
            else f"{len(self.explanations)} explanations in {self.seconds:.2f}s"
        )
        return (
            f"{self.metric} | {self.group.describe()} | "
            f"bias={self.original_bias:+.4f} | {answer}"
        )


@dataclass
class AuditResult:
    """The structured output of :meth:`AuditSession.audit`.

    Queries are ordered group-major (all metrics of the first group, then
    the next group), matching the order they were issued.  ``stats`` is a
    snapshot of the session's cache counters *after* the audit — the
    one-factorization / one-tidlist-build claims live here.
    """

    queries: list[AuditQuery]
    setup_seconds: float
    stats: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __getitem__(self, index: int) -> AuditQuery:
        return self.queries[index]

    def get(self, metric: str, attribute: str | None = None) -> AuditQuery:
        """The query for a metric (and protected attribute, if ambiguous)."""
        matches = [
            q
            for q in self.queries
            if q.metric == metric
            and (attribute is None or q.group.attribute == attribute)
        ]
        if not matches:
            raise KeyError(f"no audit query for metric={metric!r}, attribute={attribute!r}")
        if len(matches) > 1:
            attributes = sorted({q.group.attribute for q in matches})
            if attribute is None and len(attributes) > 1:
                raise KeyError(
                    f"metric {metric!r} was audited for several protected attributes "
                    f"{attributes}; pass attribute= to disambiguate"
                )
            raise KeyError(
                f"metric {metric!r} was audited for several groups over attribute "
                f"{attributes[0]!r} (e.g. different thresholds); index "
                "result.queries (or iterate the result) to pick one"
            )
        return matches[0]

    def to_records(self) -> list[dict]:
        """JSON-serializable records, one per explanation across all queries."""
        records = []
        for query in self.queries:
            for record in query.explanations.to_records():
                record["protected_attribute"] = query.group.attribute
                record["protected_group"] = query.group.describe()
                records.append(record)
        return records

    def render(self) -> str:
        """All queries' explanation tables under one audit header."""
        total = sum(q.seconds for q in self.queries)
        lines = [
            f"Audit: {len(self.queries)} queries "
            f"(setup {self.setup_seconds:.2f}s once, queries {total:.2f}s total)"
        ]
        for query in self.queries:
            lines.append("")
            lines.append(f"=== {query.metric} | {query.group.describe()} ===")
            lines.append(query.explanations.render())
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


@dataclass
class DeltaQuery:
    """One (metric, group) cell of a :meth:`AuditSession.delta_audit`.

    ``before`` / ``after`` are the explanation sets straddling the edit.
    ``certified`` records that the incremental certificate held — the
    ``after`` ranking was produced by replaying the previous search
    against the patched artifacts (see :mod:`repro.core.delta`);
    ``recheck_ran`` records that a fresh engine search ran instead (on
    certificate refusal, and for every query under ``recheck="always"``),
    with ``reason`` carrying the refusal diagnostic.
    """

    metric: str
    group: ProtectedGroup
    before: ExplanationSet
    after: ExplanationSet
    certified: bool
    recheck_ran: bool
    seconds: float
    reason: str = ""
    #: Per-query cost attribution derived from the query's span subtree
    #: (None when tracing was disabled during the delta audit).
    cost: CostReport | None = None

    def delta_records(self) -> list[dict]:
        """Rank-by-rank diff of the two explanation sets.

        One record per rank present on either side: the pattern, its
        before/after responsibility and interestingness, and a ``status``
        of ``"kept"`` (same pattern at the same rank), ``"moved"`` (pattern
        present on both sides at different ranks), ``"entered"`` or
        ``"dropped"``.
        """
        before_by_pattern = {e.pattern: e for e in self.before.explanations}
        after_by_pattern = {e.pattern: e for e in self.after.explanations}
        records = []
        for rank in range(max(len(self.before), len(self.after))):
            row: dict = {"rank": rank + 1}
            old = self.before.explanations[rank] if rank < len(self.before) else None
            new = self.after.explanations[rank] if rank < len(self.after) else None
            if new is not None:
                counterpart = before_by_pattern.get(new.pattern)
                row["pattern"] = str(new.pattern)
                row["responsibility"] = new.est_responsibility
                row["interestingness"] = new.interestingness
                if counterpart is not None:
                    row["status"] = "kept" if counterpart.rank == new.rank else "moved"
                    row["responsibility_before"] = counterpart.est_responsibility
                    row["d_responsibility"] = (
                        new.est_responsibility - counterpart.est_responsibility
                    )
                    row["d_interestingness"] = (
                        new.interestingness - counterpart.interestingness
                    )
                else:
                    row["status"] = "entered"
            if old is not None and old.pattern not in after_by_pattern:
                if new is None:
                    row["pattern"] = str(old.pattern)
                    row["status"] = "dropped"
                    row["responsibility_before"] = old.est_responsibility
                else:
                    row["displaced_pattern"] = str(old.pattern)
            records.append(row)
        return records

    def describe(self) -> str:
        mode = "certified replay" if self.certified else "fresh search"
        if not self.certified and self.reason:
            mode += f" ({self.reason})"
        if self.after.refusal:
            mode = f"refused: {self.after.refusal}"
        return (
            f"{self.metric} | {self.group.describe()} | {mode} | "
            f"{len(self.after)} explanations in {self.seconds:.2f}s"
        )


@dataclass
class DeltaAuditResult:
    """The before/after answer of :meth:`AuditSession.delta_audit`.

    ``after`` is a full :class:`AuditResult` over the edited data (it
    becomes the session's ``last_audit``, so delta audits chain); ``stats``
    snapshots the cache counters after the delta pass — on a fully
    certified pass every build counter is unchanged and only the
    ``*_patches`` / ``solver_updates`` counters moved.
    """

    edit: DataEdit
    queries: list[DeltaQuery]
    before: AuditResult
    after: AuditResult
    seconds: float
    stats: dict[str, int] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.queries)

    def __iter__(self):
        return iter(self.queries)

    def __getitem__(self, index: int) -> DeltaQuery:
        return self.queries[index]

    @property
    def num_certified(self) -> int:
        return sum(1 for q in self.queries if q.certified)

    @property
    def num_researched(self) -> int:
        return sum(1 for q in self.queries if q.recheck_ran)

    def render(self) -> str:
        lines = [
            f"Delta audit after {self.edit.describe()}: {len(self.queries)} queries, "
            f"{self.num_certified} certified / {self.num_researched} re-searched "
            f"({self.seconds:.2f}s)"
        ]
        for query in self.queries:
            lines.append("")
            lines.append(f"=== {query.describe()} ===")
            for row in query.delta_records():
                status = row.get("status", "?")
                if status == "dropped":
                    lines.append(
                        f"  #{row['rank']} dropped: {row['pattern']} "
                        f"(was R={row['responsibility_before']:+.2%})"
                    )
                    continue
                change = ""
                if "d_responsibility" in row:
                    change = f"  ΔR={row['d_responsibility']:+.2%}"
                lines.append(
                    f"  #{row['rank']} {status}: {row['pattern']} "
                    f"R={row['responsibility']:+.2%}{change}"
                )
            if not query.delta_records():
                lines.append("  (no explanations on either side)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()


class AuditSession:
    """The per-model half of the Gopher pipeline, shared across queries.

    Typical use::

        session = AuditSession(LogisticRegression(), estimator="series")
        session.fit(train, test)
        print(session.report())                    # all metrics, default group
        result = session.audit(
            metrics=["statistical_parity", "equal_opportunity"],
            groups=[train.protected, ProtectedGroup("gender", privileged_category="Male")],
            k=3,
        )
        print(result.render())

    ``fit`` encodes both splits once, trains the model if needed (and
    rejects a pre-fitted model whose feature dimension does not match the
    encoding), then builds the shared influence artifacts and the
    per-dataset candidate alphabet cache.  Every query object the session
    hands out — estimators via :meth:`estimator_for`, explainers via
    :meth:`explainer`, whole grids via :meth:`audit` — reuses those
    caches; the session-vs-fresh equivalence suite pins that the answers
    are identical to building each query's pipeline from scratch.

    The config carries the *defaults* a query inherits (engine, estimator,
    search parameters, and the default metric); per-query arguments
    override them without touching the shared state.
    """

    def __init__(
        self,
        model: TwiceDifferentiableClassifier,
        config: GopherConfig | None = None,
        **overrides: object,
    ) -> None:
        if config is not None and overrides:
            raise ValueError("pass either a config object or keyword overrides, not both")
        self.model = model
        self.config = config if config is not None else GopherConfig(**overrides)  # type: ignore[arg-type]
        self.train_data: Dataset | None = None
        self.test_data: Dataset | None = None
        self.encoder: TabularEncoder | None = None
        self.X_train: np.ndarray | None = None
        self.X_test: np.ndarray | None = None
        self.artifacts: ModelArtifacts | None = None
        self.alphabet_cache: AlphabetCache | None = None
        self.setup_seconds: float = 0.0
        self._contexts = Lazy("audit.context")
        self.last_audit: AuditResult | None = None
        self._last_audit_key: tuple | None = None
        # One registry per session: the shared caches register their
        # namespaced counters into it, and ``session.stats`` is a read view
        # over it.
        self.metrics = MetricsRegistry()
        # Guards the last-audit bookmark so the read path stays race-free
        # under concurrent serving.
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def fit(
        self,
        train: Dataset,
        test: Dataset | None = None,
        encoder: TabularEncoder | None = None,
    ) -> "AuditSession":
        """Run the per-model start-up once: encode, train, build caches.

        When ``test`` is omitted, ``train`` is split using the config's
        ``test_fraction`` and ``seed``.  A pre-fitted model is accepted
        (and not refitted) only if its input dimension matches the fresh
        encoding — a stale model from an earlier encoding would otherwise
        poison every query of the session.

        ``encoder`` lets the caller supply an already-fitted
        :class:`TabularEncoder` instead of fitting one on ``train`` —
        required when the model was fitted under another session's encoding
        (the delta-vs-fresh equivalence harness rebuilds a session on
        edited data this way, reusing the original encoder so the encoded
        matrices agree bit for bit).  Training labels of a single class are
        refused.
        """
        with trace.span("session.fit") as fit_span:
            if test is None:
                train, test = train_test_split(train, self.config.test_fraction, self.config.seed)
            _require_two_classes(train.labels, "training labels")
            self.train_data, self.test_data = train, test
            self.encoder = encoder if encoder is not None else TabularEncoder().fit(train.table)
            self.X_train = self.encoder.transform(train.table)
            self.X_test = self.encoder.transform(test.table)
            if self.model.theta is None:
                self.model.fit(self.X_train, train.labels)
            else:
                expected = self.model.num_features
                if expected is not None and expected != self.X_train.shape[1]:
                    raise ValueError(
                        f"pre-fitted model was trained on {expected} features but this "
                        f"dataset encodes to {self.X_train.shape[1]}; the model belongs "
                        "to a different encoding — refit it (or pass an unfitted model) "
                        "before starting a session"
                    )
            # A refit is a fresh start-up: counters restart from zero so the
            # exactly-once amortization assertions stay meaningful.
            self.metrics = MetricsRegistry()
            self.artifacts = ModelArtifacts(
                self.model, self.X_train, train.labels, metrics=self.metrics
            )
            # Sessions answer many queries over metric-independent candidate
            # masks, so cross-metric caching of per-extent Δθ rows pays; bare
            # estimators keep it off.
            self.artifacts.enable_extent_caching()
            self.alphabet_cache = AlphabetCache(train.table, metrics=self.metrics)
            self._contexts = Lazy("audit.context")
            self.last_audit = None
            self._last_audit_key = None
        self.setup_seconds = fit_span.seconds
        return self

    def warm(
        self,
        groups: list[ProtectedGroup] | None = None,
        estimator: str | None = None,
        skeleton: bool = False,
    ) -> "AuditSession":
        """Eagerly build every shared cache the audit read path touches.

        ``fit`` builds the artifacts and alphabet *containers*; the heavy
        entries inside (per-sample gradients, the Hessian solver, the
        rank-one Hessian factors, the packed tidlists, the per-group
        fairness contexts) are built lazily by the first query.
        ``warm()`` runs those builds up front, so after it returns, queries
        against the configured (estimator, engine, group) defaults are pure
        reads of shared state — the property the frozen-session sanitizer
        and concurrent serving rely on.  The builds run through one
        estimator's own ``warm``, so they are exactly the caches that
        estimator reads (a one-step session factorizes no Hessian).
        ``groups`` defaults to the test dataset's declared protected group;
        ``estimator`` to the config's; ``skeleton=True`` additionally
        builds the level-2 merge skeleton the incremental delta path
        replays.  Idempotent — every build it triggers is counted once by
        that build's own stats entry.
        """
        self._require_fitted()
        assert self.alphabet_cache is not None and self.test_data is not None
        if groups is None:
            groups = [self.test_data.protected]
        for group in groups:
            self.context_for(group)
        self.estimator_for(group=groups[0] if groups else None, estimator=estimator).warm()
        cfg = self.config
        alphabet = self.alphabet_cache.get(
            cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
        )
        alphabet.warm(miner=True, skeleton=skeleton)
        return self

    def _require_fitted(self) -> None:
        if self.artifacts is None:
            raise RuntimeError("session is not fitted; call fit() first")

    # ------------------------------------------------------------------
    @property
    def stats(self) -> dict[str, int]:
        """The session's cache counters, namespaced by their layer.

        ``influence.*`` (``influence.hessian_factorizations``,
        ``influence.solver_updates``, …), ``mining.*``
        (``mining.alphabet_builds``, ``mining.tidlist_patches``, …) and
        ``engine.*`` — the shared caches register their counters straight
        into the session registry, so the two layers can never shadow each
        other.  A well-amortized audit shows 1 (or 0, for caches its
        estimator never touches) on every build counter; after
        :meth:`delta_audit` the build counters are *still* 1 and the edit
        work shows up under the ``*_patches`` / ``solver_updates`` counters
        instead.
        """
        self._require_fitted()
        return dict(self.metrics.snapshot()["counters"])

    def context_for(self, group: ProtectedGroup | None = None) -> FairnessContext:
        """The cached test-side context of a protected group.

        All contexts share the session's one test encoding; only the
        privileged mask differs per group.  ``None`` means the *test*
        dataset's declared protected group — the declaration the
        privileged mask has always been derived from, so a caller who set
        the group on the test split alone keeps getting it.
        """
        self._require_fitted()
        assert self.test_data is not None
        resolved = group if group is not None else self.test_data.protected
        return self._contexts.get(lambda: self._build_context(resolved), resolved)

    def _build_context(self, group: ProtectedGroup) -> FairnessContext:
        assert self.test_data is not None and self.X_test is not None
        mask = group.privileged_mask(self.test_data.table)
        if not mask.any() or mask.all():
            side = "no rows" if not mask.any() else "every row"
            raise ValueError(
                f"protected group '{group.describe()}' matches {side} of the "
                f"session's test split ({self.test_data.num_rows} rows); both "
                "sides of the comparison must be non-empty — check the "
                "privileged category/threshold against this split"
            )
        return self.test_data.fairness_context(self.X_test, group)

    def estimator_for(
        self,
        metric: str | None = None,
        group: ProtectedGroup | None = None,
        estimator: str | None = None,
        **estimator_kwargs: object,
    ) -> InfluenceEstimator:
        """A per-query estimator riding the session's shared artifacts.

        ``metric`` / ``estimator`` default to the config's; extra keyword
        arguments override the config's ``estimator_kwargs``.  Each call
        builds a fresh estimator object (the per-query state: ∇F, original
        bias, context) — the heavy caches inside are shared.
        """
        self._require_fitted()
        assert self.train_data is not None and self.X_train is not None
        name = estimator if estimator is not None else self.config.estimator
        kwargs = {**self._estimator_kwargs_for(name), **estimator_kwargs}
        return make_estimator(
            name,
            self.model,
            self.X_train,
            self.train_data.labels,
            get_metric(metric if metric is not None else self.config.metric),
            self.context_for(group),
            artifacts=self.artifacts,
            **kwargs,
        )

    def _estimator_kwargs_for(self, name: str) -> dict:
        """The config kwargs a query with estimator ``name`` inherits.

        The config's estimator_kwargs belong to the config's estimator
        *family*: handing them to an overridden family would feed e.g.
        second_order's ``variant=`` into ``FirstOrderInfluence`` and
        crash, so cross-family overrides start from an empty dict.  The
        ``exact``/``series`` aliases count as the second-order family —
        dropping a shared ``damping`` there would silently change scores
        *and* add a second Hessian factorization — but an alias fixes its
        own ``variant``, so that one key is removed rather than conflict
        with ``make_estimator``'s alias check.  One rule, used both for a
        view's config (:meth:`explainer`) and for direct
        :meth:`estimator_for` calls.
        """
        if not _same_estimator_family(name, self.config.estimator):
            return {}
        kwargs = dict(self.config.estimator_kwargs)
        if name in ("exact", "series"):
            kwargs.pop("variant", None)
        return kwargs

    def report(self, group: ProtectedGroup | None = None) -> FairnessReport:
        """Accuracy + every registered fairness metric for one group."""
        return fairness_report(self.model, self.context_for(group))

    # ------------------------------------------------------------------
    def explainer(
        self,
        metric: str | None = None,
        group: ProtectedGroup | None = None,
        estimator: str | None = None,
    ):
        """A :class:`GopherExplainer` view bound to one (metric, group).

        The view is a complete explainer — ``explain``, ``explain_updates``,
        ``responsibility_of`` all work — but its start-up state is borrowed
        from this session, so constructing one costs a ∇F and an original
        bias, not a Hessian factorization.
        """
        from repro.core.explainer import GopherExplainer

        self._require_fitted()
        # replace() is a shallow copy: the mutable config fields must be
        # copied too, or tweaking one view's exclude_features would
        # silently change the candidate space of every other query.  The
        # view's estimator_kwargs are derived by the same rule the
        # estimator build uses, so the config a view carries always
        # describes the estimator it actually runs.
        name = estimator if estimator is not None else self.config.estimator
        config = replace(
            self.config,
            metric=metric if metric is not None else self.config.metric,
            estimator=name,
            estimator_kwargs=self._estimator_kwargs_for(name),
            exclude_features=set(self.config.exclude_features),
        )
        view = GopherExplainer(self.model, config)
        view._bind_session(self, group)
        return view

    def audit(
        self,
        metrics: list[str] | None = None,
        groups: list[ProtectedGroup] | None = None,
        k: int = 3,
        verify: bool = False,
        estimator: str | None = None,
    ) -> AuditResult:
        """Fan a grid of (metric × group) queries through the session.

        ``metrics`` defaults to every registered metric; ``groups`` to the
        dataset's declared protected group.  Each query runs the configured
        candidate engine through the session's shared caches and the
        batched estimators; ``verify=True`` additionally retrains for each
        selected explanation (ground truth is per-query work — nothing to
        amortize).  Returns an :class:`AuditResult` ordered group-major.
        A query whose original bias is exactly zero is not searched: its
        explanation set is empty and carries the
        :class:`~repro.influence.ZeroBiasError` message as ``refusal``
        (shown by :meth:`AuditResult.render`), and the other queries of the
        grid are answered.
        """
        self._require_fitted()
        metric_names = list(metrics) if metrics is not None else list_metrics()
        group_list = list(groups) if groups is not None else [self.test_data.protected]  # type: ignore[union-attr]
        queries: list[AuditQuery] = []
        with trace.span(
            "audit.grid", metrics=len(metric_names), groups=len(group_list)
        ):
            for group in group_list:
                for metric in metric_names:
                    with trace.span(
                        "audit.query", metric=metric, group=group.describe()
                    ) as query_span:
                        view = self.explainer(
                            metric=metric, group=group, estimator=estimator
                        )
                        explanations = _refused(view)
                        if explanations is None:
                            explanations = view.explain(k=k, verify=verify)
                    cost = (
                        CostReport.from_span(query_span)
                        if trace.get_tracer().enabled
                        else None
                    )
                    queries.append(
                        AuditQuery(
                            metric=metric,
                            group=group,
                            explanations=explanations,
                            seconds=query_span.seconds,
                            cost=cost,
                        )
                    )
        result = AuditResult(
            queries=queries, setup_seconds=self.setup_seconds, stats=dict(self.stats)
        )
        # delta_audit diffs against the latest audit of the same grid; both
        # halves of the bookmark move together under the session lock.
        with self._lock:
            self.last_audit = result
            self._last_audit_key = self._audit_key(
                metric_names, group_list, k, verify, estimator
            )
        return result

    # ------------------------------------------------------------------
    @staticmethod
    def _audit_key(metric_names, group_list, k, verify, estimator) -> tuple:
        return (tuple(metric_names), tuple(group_list), int(k), bool(verify), estimator)

    def apply_edit(self, edit: DataEdit) -> None:
        """Apply a training-data edit to every shared cache, in place.

        The dataset, the encoded training matrix, the influence artifacts
        (gradients, Hessian, rank-one curvature factors) and the candidate
        alphabet are all *patched* for the edit, and each cached Hessian
        solver is replaced by one ``eigh`` of the patched Hessian — no
        cache is rebuilt, which is the point: the counters under
        ``session.stats`` show ``*_builds`` / ``hessian_factorizations``
        unchanged and the edit cost under ``solver_updates`` /
        ``*_patches``.  The model is **not** refit
        (influence debugging measures edits from the current optimum), and
        the test split, encoder, and cached fairness contexts are
        untouched.  Estimators built before the edit are invalidated via
        the artifacts' version stamp; views and estimators must be minted
        anew (``delta_audit`` does all of this for you).  An edit that
        leaves the training labels a single class is refused before any
        cache is patched.
        """
        self._require_fitted()
        assert self.train_data is not None and self.encoder is not None
        assert self.artifacts is not None and self.alphabet_cache is not None
        new_train = self.train_data.apply_edit(edit)
        _require_two_classes(new_train.labels, "edited training labels")
        X_add = y_add = None
        if edit.num_added:
            X_add = self.encoder.transform(edit.add_table)
            y_add = edit.add_labels
        self.artifacts.apply_edit(
            remove_indices=edit.remove_indices,
            relabel_indices=edit.relabel_indices,
            relabel_labels=edit.relabel_labels,
            X_add=X_add,
            y_add=y_add,
        )
        self.alphabet_cache.apply_edit(edit, new_train.table)
        self.train_data = new_train
        # The artifacts' patched matrix is row-for-row identical to
        # re-encoding the edited table (the encoder is row-wise); sharing
        # the instance keeps the estimators' identity fast path.
        self.X_train = self.artifacts.X_train

    def delta_audit(
        self,
        edit: DataEdit,
        metrics: list[str] | None = None,
        groups: list[ProtectedGroup] | None = None,
        k: int = 3,
        verify: bool = False,
        estimator: str | None = None,
        recheck: str = "auto",
    ) -> DeltaAuditResult:
        """Re-audit after a data edit without redoing the start-up work.

        Applies ``edit`` to the session (see :meth:`apply_edit`), then
        answers the same (metric × group) grid as :meth:`audit` the cheap
        way: each query *replays* the previous search against the patched
        artifacts — re-scoring its recorded candidates with one packed
        batched influence call and re-running the top-k selection — instead
        of re-running the engine (:mod:`repro.core.delta` documents the
        replay and its certificate).  The replay is *certified* when the
        edit left the level-1 predicate alphabet unchanged and the search
        is shallow enough (``max_predicates <= 2``) for its candidate
        space to be a pure function of the alphabet; level-2 support
        crossings and parent-collapse flips are repaired in place by
        re-scoring the affected pairs.  A query whose certificate is
        refused falls back to a fresh engine search through the (patched)
        session caches, which is always correct.

        ``recheck`` tunes the policy: ``"auto"`` (default) falls back only
        on certificate refusal, ``"always"`` re-searches every query,
        ``"never"`` raises ``RuntimeError`` on refusal instead of silently
        paying a re-search — for benchmarks and tests that must stay on
        the fast path.

        The *before* side is the session's last :meth:`audit` of the same
        grid when one exists, else a fresh pre-edit audit run first.
        Returns a :class:`DeltaAuditResult`; its ``after`` side becomes the
        session's ``last_audit``, so successive edits chain naturally.
        A query whose original bias is zero is refused on the after side
        as in :meth:`audit`, without a replay or a search.
        When tracing is on, the ``delta.audit`` span carries
        ``grad_norm_before`` and ``grad_norm_after``: ‖∇L(θ; D)‖ on the
        training rows before and after the edit, since θ is not refit, and
        each ``delta.query`` span carries ``certified``, ``recheck_ran``
        and, when a fresh search ran, ``refusal`` (the query's ``reason``;
        a span's ``reason`` attribute is a cache miss's, see
        :class:`repro.obs.Lazy`).
        """
        self._require_fitted()
        if recheck not in ("auto", "always", "never"):
            raise ValueError(
                f'recheck must be "auto", "always", or "never", got {recheck!r}'
            )
        with trace.span("delta.audit") as audit_span:
            assert self.test_data is not None and self.artifacts is not None
            metric_names = list(metrics) if metrics is not None else list_metrics()
            group_list = list(groups) if groups is not None else [self.test_data.protected]
            key = self._audit_key(metric_names, group_list, k, verify, estimator)
            with self._lock:
                last_audit, last_key = self.last_audit, self._last_audit_key
            if last_audit is not None and last_key == key:
                before = last_audit
            else:
                before = self.audit(
                    metrics=metric_names, groups=group_list, k=k, verify=verify,
                    estimator=estimator,
                )

            # Certificate input (1): the level-1 alphabet of the audit's search
            # key, captured on both sides of the edit.
            cfg = self.config
            assert self.alphabet_cache is not None
            alphabet = self.alphabet_cache.get(
                cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
            )
            specs_before = [predicate for predicate, _ in alphabet.entries]
            # apply_edit never refits, so every answer after the edit is
            # expanded around a θ that is no longer the optimum; the trace
            # records how far off it is, ‖∇L(θ; D)‖ on both sides.
            traced = trace.get_tracer().enabled
            if traced:
                audit_span.set(grad_norm_before=self._gradient_norm())
            self.apply_edit(edit)
            if traced:
                audit_span.set(grad_norm_after=self._gradient_norm())
            alphabet = self.alphabet_cache.get(
                cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
            )
            level1_stable = specs_before == [predicate for predicate, _ in alphabet.entries]
            # The replay's structural state (level-1 rows, skeleton AND, support
            # filter) is metric-independent: build it once for the whole grid.
            geometry = None
            if level1_stable and recheck != "always" and cfg.max_predicates <= 2:
                with trace.span("delta.geometry"):
                    geometry = replay_geometry(alphabet, cfg.support_threshold)

            delta_queries: list[DeltaQuery] = []
            after_queries: list[AuditQuery] = []
            with trace.span("delta.grid", queries=len(before.queries)):
                for bq in before.queries:
                    with trace.span(
                        "delta.query", metric=bq.metric, group=bq.group.describe()
                    ) as query_span:
                        view = self.explainer(
                            metric=bq.metric, group=bq.group, estimator=estimator
                        )
                        after_set, certified, recheck_ran, reason = self._delta_query(
                            bq, view, k, verify, recheck, level1_stable, alphabet, geometry
                        )
                        query_span.set(certified=certified, recheck_ran=recheck_ran)
                        if reason:
                            query_span.set(refusal=reason)
                    seconds = query_span.seconds
                    cost = (
                        CostReport.from_span(query_span)
                        if trace.get_tracer().enabled
                        else None
                    )
                    delta_queries.append(
                        DeltaQuery(
                            metric=bq.metric,
                            group=bq.group,
                            before=bq.explanations,
                            after=after_set,
                            certified=certified,
                            recheck_ran=recheck_ran,
                            seconds=seconds,
                            reason=reason,
                            cost=cost,
                        )
                    )
                    after_queries.append(
                        AuditQuery(
                            metric=bq.metric, group=bq.group,
                            explanations=after_set, seconds=seconds, cost=cost,
                        )
                    )
            after = AuditResult(
                queries=after_queries, setup_seconds=self.setup_seconds,
                stats=dict(self.stats),
            )
            with self._lock:
                self.last_audit = after
                self._last_audit_key = key
        return DeltaAuditResult(
            edit=edit,
            queries=delta_queries,
            before=before,
            after=after,
            seconds=audit_span.seconds,
            stats=dict(self.stats),
        )

    def _gradient_norm(self) -> float:
        """‖∇L(θ; D)‖ of the fitted θ on the current (possibly edited)
        training rows: the norm of the mean patched per-sample gradient."""
        assert self.artifacts is not None
        return float(np.linalg.norm(self.artifacts.per_sample_grads.mean(axis=0)))

    def _delta_query(
        self,
        before_query: AuditQuery,
        view,
        k: int,
        verify: bool,
        recheck: str,
        level1_stable: bool,
        alphabet,
        geometry,
    ) -> tuple[ExplanationSet, bool, bool, str]:
        """Answer one delta-audit cell: replay, or fall back to re-search."""
        refused = _refused(view)
        if refused is not None:
            return refused, False, False, ""
        cfg = view.config
        if recheck == "always":
            return view.explain(k=k, verify=verify), False, True, "recheck forced"

        if level1_stable:
            record = getattr(before_query.explanations.lattice, "record", None)
            with trace.span("delta.replay", metric=cfg.metric) as replay_span:
                replay, reason = replay_search(
                    record,
                    alphabet,
                    view.estimator,
                    cfg,
                    k,
                    view.protected_group.attribute,
                    geometry=geometry,
                )
                if replay is not None:
                    replay_span.set(evaluated=replay.result.num_evaluated)
        else:
            replay, reason = None, "the edit changed the level-1 alphabet"
        if replay is None:
            if recheck == "never":
                raise RuntimeError(
                    f"delta_audit certificate refused for {before_query.metric!r} "
                    f"({reason}) and recheck='never' forbids the fresh search"
                )
            return view.explain(k=k, verify=verify), False, True, reason

        after_set = view._answer(
            replay.selected, replay.result, verify, replay_span.seconds, replay.filter_seconds
        )
        return after_set, True, False, ""
