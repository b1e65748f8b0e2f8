"""The repo-specific contracts reprolint checks.

A :class:`ContractSet` is the analyzer's entire knowledge of the
repository: which classes hold *shared* state (one instance serves many
queries — the future worker pool's common ground), which methods form the
declared read API, which methods are *allowed* to build or patch caches
(and which ``stats`` counter each must bump), where factorizations are
allowed to live, and which paths carry fairness-metric arithmetic.

The rules take the contract set as an argument, so fixture tests inject
tiny synthetic contracts and the CLI injects :data:`REPRO_CONTRACTS` —
the registry below, which is the authoritative list of this repo's cache
entry points.  Adding a cache elsewhere in the tree without registering
it here is exactly what RL001 exists to catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class BuildContract:
    """One registered cache build/patch entry point.

    ``counter`` names the stats key the method must bump (RL002); ``None``
    means the method is exempt from counter discipline and ``reason`` must
    say why.  ``stats_attr`` is the attribute holding the counter dict
    (``stats`` for most classes, ``_stats`` for the alphabet, whose dict is
    owned by the enclosing cache).  ``kind`` distinguishes lazy builds from
    edit-time patches — informational today, it lets future rules treat
    the two differently.
    """

    counter: str | None
    stats_attr: str = "stats"
    kind: str = "build"  # "build" | "edit"
    reason: str = ""


@dataclass(frozen=True)
class ContractSet:
    """Everything the rules know about one codebase."""

    #: Class names holding cross-query shared state.  Subclasses (matched
    #: by base-class name, transitively) inherit shared-class status.
    shared_classes: frozenset[str] = frozenset()
    #: The declared read API: (class name, method name) pairs — class name
    #: ``""`` declares a module-level function root, matched by
    #: (module suffix, function name).
    read_roots: tuple[tuple[str, str], ...] = ()
    #: (class name, method name) -> BuildContract.
    build_methods: dict[tuple[str, str], BuildContract] = field(default_factory=dict)
    #: Path suffixes where linalg factorizations of Hessian-shaped state
    #: are allowed (RL004).
    factorization_authority: tuple[str, ...] = ("influence/hessian.py",)
    #: Regex an argument must match to count as Hessian-shaped (RL004).
    hessian_pattern: str = r"(?i)hess"
    #: Path fragments whose divisions RL005 audits.
    metric_paths: tuple[str, ...] = ("fairness/",)
    #: Regex recognizing an epsilon guard in a denominator (RL005).
    eps_pattern: str = r"(?i)(^|[^a-z])(_?eps(ilon)?)([^a-z]|$)"
    #: Batch query methods whose packed form must thread num_rows (RL003).
    packed_batch_methods: frozenset[str] = frozenset(
        {"param_change_batch", "bias_change_batch", "responsibility_batch"}
    )


#: The authoritative contract set of this repository.
REPRO_CONTRACTS = ContractSet(
    shared_classes=frozenset(
        {
            "ModelArtifacts",
            "HessianSolver",
            "PredicateAlphabet",
            "AlphabetCache",
            "AuditSession",
            "FairnessContext",
            # Estimators are shared in the hammer/worker-pool sense: one
            # estimator object serves many batch queries.  Subclass
            # expansion pulls in FirstOrder/SecondOrder/OneStepGD/Retrain.
            "InfluenceEstimator",
        }
    ),
    read_roots=(
        # The estimator query surface (inherited by every estimator family).
        ("InfluenceEstimator", "param_change"),
        ("InfluenceEstimator", "param_change_batch"),
        ("InfluenceEstimator", "bias_change"),
        ("InfluenceEstimator", "bias_change_batch"),
        ("InfluenceEstimator", "responsibility"),
        ("InfluenceEstimator", "responsibility_batch"),
        ("InfluenceEstimator", "subset_grad_sum"),
        ("FirstOrderInfluence", "point_influences"),
        # The session query surface.
        ("AuditSession", "context_for"),
        ("AuditSession", "audit"),
        ("AuditSession", "report"),
        ("AuditSession", "estimator_for"),
        ("AuditSession", "explainer"),
        ("AuditSession", "stats"),
        # Delta replay: read-only re-scoring of a recorded search.
        ("", "repro.core.delta.replay_search"),
        ("", "repro.core.delta.replay_geometry"),
    ),
    build_methods={
        # -- ModelArtifacts: the per-model cache bundle --------------------
        ("ModelArtifacts", "per_sample_grads"): BuildContract("per_sample_grad_builds"),
        ("ModelArtifacts", "hessian"): BuildContract("hessian_builds"),
        ("ModelArtifacts", "solver"): BuildContract("hessian_factorizations"),
        ("ModelArtifacts", "hessian_factors"): BuildContract("rank_one_factor_builds"),
        ("ModelArtifacts", "auto_learning_rate"): BuildContract("learning_rate_builds"),
        ("ModelArtifacts", "gradient_sums"): BuildContract("gradient_sum_cache_misses"),
        ("ModelArtifacts", "cached_param_changes"): BuildContract(
            "param_change_cache_misses"
        ),
        ("ModelArtifacts", "update_search_state"): BuildContract("update_context_builds"),
        ("ModelArtifacts", "enable_extent_caching"): BuildContract(
            None,
            reason="session start-up switch flipped by AuditSession.fit before the "
            "instance is shared; bare estimators never call it",
        ),
        ("ModelArtifacts", "apply_edit"): BuildContract("edits", kind="edit"),
        ("ModelArtifacts", "warm"): BuildContract(
            None, reason="eager driver: every build it triggers is counted by its own entry"
        ),
        # -- HessianSolver -------------------------------------------------
        ("HessianSolver", "eigendecomposition"): BuildContract("eigendecompositions"),
        ("HessianSolver", "factor"): BuildContract(
            None,
            reason="lazy Cholesky materialization for explicit factor consumers; "
            "eigendecomposition-mode solvers never touch it on the read path",
        ),
        ("HessianSolver", "_factorize"): BuildContract(
            None, reason="constructor helper, called from __init__ only"
        ),
        ("HessianSolver", "from_eigendecomposition"): BuildContract(
            None, reason="alternate constructor: writes initialize a brand-new instance"
        ),
        # -- PredicateAlphabet / AlphabetCache ----------------------------
        ("PredicateAlphabet", "miner_items"): BuildContract(
            "tidlist_builds", stats_attr="_stats"
        ),
        ("PredicateAlphabet", "pair_skeleton"): BuildContract(
            "skeleton_builds", stats_attr="_stats"
        ),
        ("PredicateAlphabet", "apply_edit"): BuildContract(
            "tidlist_patches", stats_attr="_stats", kind="edit"
        ),
        ("PredicateAlphabet", "_build"): BuildContract(
            None, reason="constructor helper, called from __init__ only"
        ),
        ("PredicateAlphabet", "_build_packed"): BuildContract(
            "block_streams", stats_attr="_stats"
        ),
        ("PredicateAlphabet", "record_mining_counters"): BuildContract(
            "projection_builds", stats_attr="_stats"
        ),
        ("PredicateAlphabet", "_filter_entries"): BuildContract(
            None, reason="constructor/edit helper of the counted _build/apply_edit entries"
        ),
        ("PredicateAlphabet", "warm"): BuildContract(
            None, reason="eager driver: every build it triggers is counted by its own entry"
        ),
        ("AlphabetCache", "get"): BuildContract("alphabet_builds"),
        ("AlphabetCache", "apply_edit"): BuildContract("alphabet_patches", kind="edit"),
        # -- Estimators ----------------------------------------------------
        ("InfluenceEstimator", "grad_f"): BuildContract(
            None,
            reason="per-query ∇F memo, eagerly built by warm(); idempotent value, so a "
            "racing double-build is benign under the GIL",
        ),
        ("InfluenceEstimator", "warm"): BuildContract(
            None, reason="eager driver: every build it triggers is counted by its own entry"
        ),
        ("FirstOrderInfluence", "point_influences"): BuildContract(
            None,
            reason="per-query influence memo, eagerly built by warm(); idempotent value, "
            "so a racing double-build is benign under the GIL",
        ),
        # -- Session -------------------------------------------------------
        ("AuditSession", "fit"): BuildContract(
            None,
            reason="the session's one-time start-up entry: everything it builds runs "
            "before the session instance is shared with any reader",
        ),
        ("AuditSession", "warm"): BuildContract(
            None, reason="eager driver: every build it triggers is counted by its own entry"
        ),
        ("AuditSession", "audit"): BuildContract(
            None,
            reason="read path except for the last-audit bookmark delta_audit diffs "
            "against; both bookmark writes happen under the session lock",
        ),
    },
)
