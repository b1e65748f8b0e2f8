"""The end-to-end Gopher pipeline (paper §6.2's setup in one object)."""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import GopherConfig
from repro.core.explanation import Explanation, ExplanationSet
from repro.core.session import AuditSession
from repro.datasets.base import Dataset, ProtectedGroup
from repro.datasets.encoding import TabularEncoder
from repro.fairness.metrics import FairnessContext, get_metric
from repro.fairness.report import FairnessReport, fairness_report
from repro.influence.estimators import InfluenceEstimator
from repro.influence.retrain import RetrainInfluence
from repro.mining.engine import make_engine
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.patterns.pattern import Pattern
from repro.patterns.topk import select_top_k


class GopherExplainer:
    """Generate data-based explanations for the bias of a classifier.

    Typical use::

        model = LogisticRegression()
        gopher = GopherExplainer(model, metric="statistical_parity")
        gopher.fit(train_dataset, test_dataset)
        result = gopher.explain(k=3)
        print(result.render())

    ``fit`` encodes the data, trains the model (unless it is already
    fitted — a pre-fitted model whose feature dimension does not match the
    encoding is rejected), measures the original bias on the test split
    and pre-computes the influence machinery; ``explain`` runs the
    candidate search and the diversity filter, optionally verifying each
    winner by retraining.

    An explainer is a *view over an audit session*: one (metric, protected
    group, estimator) question bound to the shared per-model caches of an
    :class:`~repro.core.AuditSession`.  ``fit`` builds a private session,
    so single-question use looks exactly as before; for many questions of
    one model, build the session once and mint views from it::

        session = AuditSession(model).fit(train, test)
        sp = session.explainer(metric="statistical_parity")
        eo = session.explainer(metric="equal_opportunity")
        # both share one Hessian factorization, one predicate alphabet ...
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
        self.metric = get_metric(self.config.metric)
        self.session: AuditSession | None = None
        self.encoder: TabularEncoder | None = None
        self.train_data: Dataset | None = None
        self.test_data: Dataset | None = None
        self.X_train: np.ndarray | None = None
        self.test_ctx: FairnessContext | None = None
        self.estimator: InfluenceEstimator | None = None
        self.protected_group: ProtectedGroup | None = None
        self._update_ctx = None

    # ------------------------------------------------------------------
    def fit(self, train: Dataset, test: Dataset | None = None) -> "GopherExplainer":
        """Prepare the pipeline on a train/test pair.

        When ``test`` is omitted, ``train`` is split using the config's
        ``test_fraction`` and ``seed``.  Internally this builds a private
        :class:`AuditSession` and binds this explainer to it, so repeated
        ``explain`` calls (and ``explain_updates`` et al.) reuse the
        session's caches.
        """
        session = AuditSession(self.model, self.config).fit(train, test)
        self._bind_session(session, None)
        return self

    def _bind_session(self, session: AuditSession, group: ProtectedGroup | None) -> None:
        """Borrow a session's shared state and build this view's per-query
        half (context, estimator) for one protected group."""
        assert session.train_data is not None
        self.session = session
        self.train_data = session.train_data
        self.test_data = session.test_data
        self.encoder = session.encoder
        self.X_train = session.X_train
        self.protected_group = group if group is not None else session.train_data.protected
        self.test_ctx = session.context_for(group)
        # The view's config is authoritative for its estimator: name and
        # kwargs were both derived (or given) on this config, so pass them
        # through explicitly rather than letting the session re-derive.
        self.estimator = session.estimator_for(
            metric=self.config.metric,
            group=group,
            estimator=self.config.estimator,
            **self.config.estimator_kwargs,
        )
        self._update_ctx = None

    def _require_fitted(self) -> None:
        if self.estimator is None:
            raise RuntimeError("explainer is not fitted; call fit() first")

    # ------------------------------------------------------------------
    @property
    def original_bias(self) -> float:
        """F(θ*, D_test) with the hard metric."""
        self._require_fitted()
        assert self.estimator is not None
        return self.estimator.original_bias

    def report(self) -> FairnessReport:
        """Accuracy + all fairness metrics of the fitted model."""
        self._require_fitted()
        assert self.test_ctx is not None
        return fairness_report(self.model, self.test_ctx)

    # ------------------------------------------------------------------
    def explain(self, k: int = 3, verify: bool = True) -> ExplanationSet:
        """Compute the top-k diverse explanations (Algorithms 1 + 2).

        Candidate generation goes through the configured engine —
        ``engine="lattice"`` for the paper's level-wise search,
        ``engine="mining"`` for the packed-bitset closed-pattern miner;
        both produce the same top-k.  With ``verify=True`` each selected
        explanation's subset is actually removed and the model retrained,
        filling the ground-truth Δbias fields the paper's tables report.
        """
        self._require_fitted()
        assert self.train_data is not None and self.estimator is not None
        assert self.session is not None and self.protected_group is not None
        cfg = self.config

        start = time.perf_counter()
        engine = make_engine(cfg.engine)
        self.session.metrics.inc(f"engine.{cfg.engine}_searches")
        with trace.span("explain.search", engine=cfg.engine) as search_span:
            lattice = engine.generate(
                self.train_data.table,
                self.estimator,
                support_threshold=cfg.support_threshold,
                max_predicates=cfg.max_predicates,
                num_bins=cfg.num_bins,
                exclude_features=cfg.exclude_features or None,
                prune_by_responsibility=cfg.prune_by_responsibility,
                max_responsibility=cfg.max_responsibility,
                batch_size=cfg.search_batch_size,
                alphabet_cache=self.session.alphabet_cache,
            )
            search_span.set(
                candidates=lattice.num_candidates, evaluated=lattice.num_evaluated
            )
        search_seconds = time.perf_counter() - start
        protected_only = (
            {self.protected_group.attribute} if cfg.exclude_protected_only else None
        )
        with trace.span("explain.filter", k=k):
            selected, filter_seconds = select_top_k(
                lattice,
                k,
                cfg.containment_threshold,
                exclude_features_only=protected_only,
                max_responsibility=cfg.max_responsibility,
            )
        explanations = [Explanation.from_stats(i + 1, s) for i, s in enumerate(selected)]
        if verify:
            with trace.span("explain.verify", subsets=len(explanations)):
                self._verify(explanations, [s.mask() for s in selected])
        return ExplanationSet(
            explanations=explanations,
            metric_name=cfg.metric,
            original_bias=self.original_bias,
            search_seconds=search_seconds,
            filter_seconds=filter_seconds,
            lattice=lattice,
        )

    def _verify(self, explanations: list[Explanation], masks: list[np.ndarray]) -> None:
        if not explanations:
            return
        retrainer = self._retrainer()
        # One batch call; retraining has no closed form, so this resolves to
        # one refit per subset internally, but keeps the call site uniform
        # with the estimators that do batch.
        deltas = retrainer.bias_change_batch(masks)
        for explanation, delta in zip(explanations, deltas):
            explanation.gt_bias_change = float(delta)
            explanation.gt_responsibility = (
                -float(delta) / retrainer.original_bias if retrainer.original_bias else 0.0
            )

    def _retrainer(self) -> RetrainInfluence:
        assert self.train_data is not None and self.X_train is not None
        assert self.test_ctx is not None
        return RetrainInfluence(
            self.model, self.X_train, self.train_data.labels, self.metric, self.test_ctx,
            n_jobs=self.config.retrain_jobs,
        )

    # ------------------------------------------------------------------
    def explain_updates(
        self,
        explanations: ExplanationSet,
        verify: bool = True,
        allowed_features: set[str] | None = None,
        learning_rate: float = 0.25,
        num_steps: int = 120,
    ):
        """Section 5: one update-based explanation per removal explanation.

        For every pattern in ``explanations``, search for the homogeneous
        update of its subset that maximally reduces bias.  All patterns run
        through one vectorized engine pass sharing the explainer's cached
        :class:`repro.updates.UpdateSearchContext`.  Returns a renderable
        :class:`repro.updates.UpdateExplanationSet`, aligned with the input.

        Each update's ``removal_bias_change`` reference comes from the
        explanation's ground-truth retrain when available, else from the
        fitted estimator in one batched query; ``removal_source`` records
        which.
        """
        from repro.updates.projected_gd import find_update_explanations

        self._require_fitted()
        assert self.train_data is not None and self.encoder is not None
        assert self.X_train is not None and self.test_ctx is not None
        patterns, subsets = [], []
        for explanation in explanations:
            patterns.append(explanation.pattern)
            subsets.append(np.flatnonzero(explanation.pattern.mask(self.train_data.table)))
        removal_changes, removal_sources = self._removal_references(explanations, subsets)
        return find_update_explanations(
            self.model,
            self.encoder,
            self.X_train,
            self.train_data.labels,
            self.metric,
            self.test_ctx,
            patterns,
            subsets,
            allowed_features=allowed_features,
            learning_rate=learning_rate,
            num_steps=num_steps,
            verify=verify,
            removal_bias_changes=removal_changes,
            removal_sources=removal_sources,
            context=self._update_context(),
            n_jobs=self.config.retrain_jobs,
        )

    def _update_context(self):
        """The §5 start-up state (∇F, Hessian, η, train grads), built once.

        The metric-independent half rides the session's shared
        ``ModelArtifacts`` (one ``update.context`` build per audit however
        many explainer views run ``explain_updates``); only ∇F and the
        original bias are computed per view.
        """
        if self._update_ctx is None:
            from repro.updates.projected_gd import UpdateSearchContext

            assert self.train_data is not None and self.X_train is not None
            assert self.test_ctx is not None
            self._update_ctx = UpdateSearchContext(
                self.model, self.X_train, self.train_data.labels, self.metric,
                self.test_ctx,
                artifacts=None if self.session is None else self.session.artifacts,
            )
        return self._update_ctx

    def _removal_references(
        self, explanations: ExplanationSet, subsets: list[np.ndarray]
    ) -> tuple[list[float | None], list[str | None]]:
        """Reference removal ΔF per explanation: ground truth when verified,
        else the fitted estimator's estimate (one batched query)."""
        assert self.estimator is not None
        missing = [
            i for i, e in enumerate(explanations) if e.gt_bias_change is None
        ]
        estimated: dict[int, float] = {}
        if missing:
            changes = self.estimator.bias_change_batch([subsets[i] for i in missing])
            estimated = dict(zip(missing, changes))
        references: list[float | None] = []
        sources: list[str | None] = []
        for i, explanation in enumerate(explanations):
            if explanation.gt_bias_change is not None:
                references.append(float(explanation.gt_bias_change))
                sources.append("ground_truth")
            else:
                references.append(float(estimated[i]))
                sources.append("estimated")
        return references, sources

    # ------------------------------------------------------------------
    def responsibility_of(self, pattern: Pattern, ground_truth: bool = False) -> float:
        """Responsibility of an arbitrary user-supplied pattern.

        Useful for interactive debugging ("how much does *this* subset I
        suspect actually matter?").  ``ground_truth=True`` retrains.
        """
        return float(self.responsibility_of_many([pattern], ground_truth)[0])

    def responsibility_of_many(
        self, patterns: list[Pattern], ground_truth: bool = False
    ) -> np.ndarray:
        """Responsibilities of many user-supplied patterns in one batch.

        All patterns are resolved to row masks and handed to the
        estimator's batched influence API in a single call — for the
        closed-form estimators the whole query is one GEMM regardless of
        how many patterns are asked about.  Returns an array aligned with
        ``patterns``.
        """
        self._require_fitted()
        assert self.train_data is not None and self.estimator is not None
        masks = []
        for pattern in patterns:
            mask = pattern.mask(self.train_data.table)
            if not mask.any():
                raise ValueError(f"pattern {pattern} matches no training rows")
            masks.append(mask)
        source = self._retrainer() if ground_truth else self.estimator
        return source.responsibility_batch(masks)
