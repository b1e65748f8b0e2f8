"""Configuration for the end-to-end Gopher pipeline."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fairness.metrics import list_metrics

_ESTIMATORS = ("first_order", "second_order", "exact", "series", "one_step_gd", "retrain")
_ENGINES = ("lattice", "mining")


@dataclass
class GopherConfig:
    """All knobs of the explanation pipeline, with the paper's defaults.

    Attributes
    ----------
    metric:
        Fairness metric name (see :func:`repro.fairness.list_metrics`).
    estimator:
        Influence estimator driving the lattice search.  ``"second_order"``
        is the paper's recommendation for coherent subsets; ``"exact"`` and
        ``"series"`` name its two variants directly (the exact Newton step
        on the reduced objective vs the Eq. 10 Neumann truncation) — both
        run the search through batched influence queries, the exact variant
        with one LAPACK factor-and-solve of its reduced matrix per subset.
        Switch to ``"first_order"`` for the fastest search on large
        candidate spaces.
    estimator_kwargs:
        Extra keyword arguments for the estimator constructor.
    engine:
        Candidate-generation backend for Algorithm 1.  ``"lattice"`` is
        the paper's level-wise merge search; ``"mining"`` is the
        packed-bitset closed-pattern miner (``repro.mining``), which
        evaluates one candidate per distinct extent and streams influence
        scoring off packed masks instead of (m, n) boolean matrices.  The
        miners' top-k output is identical on the benchmark workloads
        (pinned by tests and ``bench_candidate_mining``); in general the
        two engines apply heuristic 2 along different search paths — the
        lattice against its first producing merge pair, the miner
        order-independently — so adversarial instances can rank the deep
        tie-heavy tail differently (see ``repro.mining.closed``).
    search_batch_size:
        Candidates buffered per batched influence call during the search
        (both engines).
    support_threshold:
        τ of Algorithm 1 — the paper's experiments use 5%.
    max_predicates:
        Maximum predicates per pattern (papers' tables use 3–4).
    num_bins:
        Quantile bins per numeric feature for candidate thresholds.
    containment_threshold:
        c of Algorithm 2 — maximum allowed overlap with already-selected
        explanations.
    prune_by_responsibility:
        Heuristic 2 of Algorithm 1 (merged patterns must strictly improve
        responsibility); exposed for the ablation benchmark.
    exclude_protected_only:
        Drop top-k candidates whose predicates mention *only* the protected
        attribute — "the protected group is responsible" is a vacuous
        explanation (the paper's tables never contain one).  The attribute
        still appears freely in combination with other predicates.
    max_responsibility:
        Definition 3.1's root-cause upper bound (removal must not overshoot
        the bias past zero), with slack for estimation noise; see
        :func:`repro.patterns.select_top_k`.
    exclude_features:
        Features that must not appear in explanation predicates.
    retrain_jobs:
        Worker processes for ground-truth verification retrains (removal
        *and* update explanations).  ``None`` uses one worker per CPU;
        ``1`` keeps every refit in-process.
    test_fraction / seed:
        Used only by the convenience path that splits a single dataset.
    """

    metric: str = "statistical_parity"
    estimator: str = "second_order"
    estimator_kwargs: dict = field(default_factory=dict)
    engine: str = "lattice"
    search_batch_size: int = 1024
    support_threshold: float = 0.05
    max_predicates: int = 3
    num_bins: int = 4
    containment_threshold: float = 0.5
    prune_by_responsibility: bool = True
    exclude_protected_only: bool = True
    max_responsibility: float = 1.25
    exclude_features: set[str] = field(default_factory=set)
    retrain_jobs: int | None = None
    test_fraction: float = 0.2
    seed: int = 0

    def __post_init__(self) -> None:
        if self.metric not in list_metrics():
            raise ValueError(f"unknown metric {self.metric!r}; available: {list_metrics()}")
        if self.estimator not in _ESTIMATORS:
            raise ValueError(f"unknown estimator {self.estimator!r}; available: {_ESTIMATORS}")
        if self.engine not in _ENGINES:
            raise ValueError(f"unknown engine {self.engine!r}; available: {_ENGINES}")
        if self.search_batch_size < 1:
            raise ValueError(f"search_batch_size must be >= 1, got {self.search_batch_size}")
        if not 0.0 <= self.support_threshold < 1.0:
            raise ValueError(f"support_threshold must be in [0, 1), got {self.support_threshold}")
        if not 0.0 < self.containment_threshold <= 1.0:
            raise ValueError(
                f"containment_threshold must be in (0, 1], got {self.containment_threshold}"
            )
        if self.max_predicates < 1:
            raise ValueError(f"max_predicates must be >= 1, got {self.max_predicates}")
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError(f"test_fraction must be in (0, 1), got {self.test_fraction}")
        if self.retrain_jobs is not None and self.retrain_jobs < 1:
            raise ValueError(f"retrain_jobs must be None or >= 1, got {self.retrain_jobs}")
