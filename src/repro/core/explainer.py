"""The end-to-end Gopher pipeline (paper §6.2's setup in one object)."""

from __future__ import annotations

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
from repro.mining.closed import mine_closed_candidates
from repro.models.base import TwiceDifferentiableClassifier
from repro.obs import trace
from repro.patterns.lattice import CandidateResult, PatternStats, compute_candidates
from repro.patterns.pattern import Pattern


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
        assert session.train_data is not None and session.test_data is not None
        self.session = session
        self.train_data = session.train_data
        self.test_data = session.test_data
        self.encoder = session.encoder
        self.X_train = session.X_train
        self.protected_group = group if group is not None else session.test_data.protected
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

    def _check_fresh(self) -> None:
        """Refuse a view minted before its session's last ``apply_edit``."""
        self._require_fitted()
        assert self.estimator is not None
        self.estimator.artifacts.check_fresh(self.estimator.artifacts_version, "explainer view")

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

        Candidate generation calls the search ``cfg.engine`` names —
        :func:`~repro.patterns.lattice.compute_candidates` for
        ``engine="lattice"`` (the paper's level-wise search),
        :func:`~repro.mining.closed.mine_closed_candidates` for
        ``engine="mining"`` (the packed-bitset closed-pattern miner) — over
        the session's cached predicate alphabet of its current table
        (:meth:`AuditSession.alphabet_for`).  The two can return
        different top-k at depth 3 (see ``GopherConfig.engine``).  With
        ``verify=True`` each selected
        explanation's subset is actually removed and the model retrained,
        filling the ground-truth Δbias fields the paper's tables report.
        """
        self._require_fitted()
        assert self.train_data is not None and self.estimator is not None
        assert self.session is not None and self.protected_group is not None
        cfg = self.config

        # Looked up per call, so a wrapper rebinding either name is honoured.
        search = compute_candidates if cfg.engine == "lattice" else mine_closed_candidates
        self.session.metrics.inc(f"engine.{cfg.engine}_searches")
        with trace.span("explain.search", engine=cfg.engine) as search_span:
            lattice = search(
                self.session.alphabet_for(cfg),
                self.estimator,
                max_predicates=cfg.max_predicates,
                prune_by_responsibility=cfg.prune_by_responsibility,
            )
            search_span.set(
                candidates=lattice.num_candidates, evaluated=lattice.num_evaluated
            )
        with trace.span("explain.filter", k=k) as filter_span:
            selected = cfg.top_k(lattice, k, self.protected_group.attribute)
        return self._answer(selected, lattice, verify, search_span.seconds, filter_span.seconds)

    def _answer(
        self,
        selected: list[PatternStats],
        lattice: CandidateResult,
        verify: bool,
        search_seconds: float,
        filter_seconds: float,
    ) -> ExplanationSet:
        """The explanation set of the top-k ``selected`` out of ``lattice``.

        The tail of a fresh search and of a certified delta replay alike:
        with ``verify``, the ground truth is filled under one
        ``explain.verify`` span.
        """
        explanations = [Explanation.from_stats(i + 1, s) for i, s in enumerate(selected)]
        if verify:
            with trace.span("explain.verify", subsets=len(explanations)):
                self._verify(explanations, [s.mask() for s in selected])
        return ExplanationSet(
            explanations=explanations,
            metric_name=self.config.metric,
            original_bias=self.original_bias,
            search_seconds=search_seconds,
            filter_seconds=filter_seconds,
            lattice=lattice,
        )

    def _verify(self, explanations: list[Explanation], masks: list[np.ndarray]) -> None:
        """Fill each explanation's ground truth by retraining without its rows.

        A removal that leaves a single label class has no model to retrain;
        that explanation keeps its ``gt_*`` fields None (rendered as an
        unverified estimate) and the others are still verified; the open
        ``explain.verify`` span counts it under ``unverifiable``.
        """
        if not explanations:
            return
        retrainer = self._retrainer()
        labels = retrainer.y_train
        subsets = [np.flatnonzero(mask) for mask in masks]
        verifiable = [
            i for i, rows in enumerate(subsets) if np.unique(np.delete(labels, rows)).size > 1
        ]
        if len(verifiable) < len(subsets):
            trace.add("unverifiable", len(subsets) - len(verifiable))
        if not verifiable:
            return
        # One batch call: one refit per subset, in the shared retrain pool.
        deltas = retrainer.bias_change_batch(
            [subsets[i] for i in verifiable], num_rows=retrainer.num_train
        )
        # R = −ΔF / F is undefined when the retrained model's hard bias F is
        # zero (as ZeroBiasError says for the search): keep ΔF, leave R None.
        bias = retrainer.original_bias
        for i, delta in zip(verifiable, deltas):
            explanations[i].gt_bias_change = float(delta)
            explanations[i].gt_responsibility = -float(delta) / bias if bias else None

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
        which.  A view minted before :meth:`AuditSession.apply_edit` refuses
        before it reads a training row (:meth:`_check_fresh`).
        """
        from repro.updates.projected_gd import find_update_explanations

        self._check_fresh()
        assert self.train_data is not None and self.encoder is not None
        patterns, subsets = [], []
        for explanation in explanations:
            patterns.append(explanation.pattern)
            subsets.append(np.flatnonzero(explanation.pattern.mask(self.train_data.table)))
        removal_changes, removal_sources = self._removal_references(explanations, subsets)
        return find_update_explanations(
            self._update_context(),
            self.encoder,
            patterns,
            subsets,
            allowed_features=allowed_features,
            learning_rate=learning_rate,
            num_steps=num_steps,
            verify=verify,
            removal_bias_changes=removal_changes,
            removal_sources=removal_sources,
            n_jobs=self.config.retrain_jobs,
        )

    def _update_context(self):
        """The §5 start-up state (∇F, η, train grads), built once per view.

        The metric-independent half rides the session's shared
        ``ModelArtifacts`` (one η build, ``learning_rate_builds``, per audit
        however many explainer views run ``explain_updates``); only ∇F and
        the original bias are computed per view.
        """
        if self._update_ctx is None:
            from repro.updates.projected_gd import UpdateSearchContext

            assert self.test_ctx is not None and self.session is not None
            self._update_ctx = UpdateSearchContext(
                self.session.artifacts, self.metric, self.test_ctx
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
        ``patterns``.  A view minted before :meth:`AuditSession.apply_edit`
        refuses on either path before it reads a training row.
        """
        self._check_fresh()
        assert self.train_data is not None and self.estimator is not None
        masks = []
        for pattern in patterns:
            mask = pattern.mask(self.train_data.table)
            if not mask.any():
                raise ValueError(f"pattern {pattern} matches no training rows")
            masks.append(mask)
        source = self._retrainer() if ground_truth else self.estimator
        return source.responsibility_batch(masks)
