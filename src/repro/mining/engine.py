"""Pluggable candidate-generation backends for the Gopher pipeline.

Algorithm 1's job — produce scored candidate explanations for Algorithm 2
to rank — has two interchangeable implementations:

* :class:`LatticeEngine` — the level-wise lattice search of
  :func:`repro.patterns.lattice.compute_candidates` (the paper's layout);
* :class:`ClosedMiningEngine` — the packed-bitset closed-pattern miner of
  :mod:`repro.mining.closed`, which evaluates one candidate per distinct
  extent and streams influence scoring off packed masks.

Both satisfy the :class:`CandidateEngine` protocol and return the
:class:`~repro.patterns.lattice.CandidateResult` their search function
builds, which :func:`repro.patterns.select_top_k` and
:class:`repro.core.GopherExplainer` consume interchangeably.  The engine
equivalence suite pins identical top-k explanations on the benchmark
workloads (German, Adult, the planted-bias synthetic set); the engines
differ in how many candidates they evaluate (``num_evaluated``), in peak
memory (the miner never holds an (m, n) boolean mask matrix), and — on
adversarial tie-heavy instances — in which search path heuristic 2 is
applied along (see the pruning notes in :mod:`repro.mining.closed`).
"""

from __future__ import annotations

from typing import Protocol, runtime_checkable

from repro.influence.estimators import InfluenceEstimator
from repro.mining.alphabet import AlphabetCache, resolve_alphabet
from repro.patterns.lattice import CandidateResult, compute_candidates
from repro.tabular import Table


@runtime_checkable
class CandidateEngine(Protocol):
    """Strategy protocol every candidate-generation backend implements."""

    name: str

    def generate(
        self,
        table: Table,
        estimator: InfluenceEstimator,
        *,
        support_threshold: float = 0.05,
        max_predicates: int = 3,
        num_bins: int = 4,
        exclude_features: set[str] | None = None,
        prune_by_responsibility: bool = True,
        min_responsibility: float = 0.0,
        max_responsibility: float = 1.25,
        batch_size: int = 1024,
        alphabet_cache: AlphabetCache | None = None,
    ) -> CandidateResult:
        """Run the search and return every surviving scored candidate.

        ``alphabet_cache`` shares the level-1 predicate alphabet (and, for
        the miner, its packed tidlists) across repeated searches over the
        same table — the per-dataset half of the audit-session cost split.
        """
        ...


class LatticeEngine:
    """Algorithm 1 as published: level-wise merge search over patterns."""

    name = "lattice"

    def generate(
        self,
        table: Table,
        estimator: InfluenceEstimator,
        *,
        support_threshold: float = 0.05,
        max_predicates: int = 3,
        num_bins: int = 4,
        exclude_features: set[str] | None = None,
        prune_by_responsibility: bool = True,
        min_responsibility: float = 0.0,
        max_responsibility: float = 1.25,
        batch_size: int = 1024,
        alphabet_cache: AlphabetCache | None = None,
    ) -> CandidateResult:
        return compute_candidates(
            table,
            estimator,
            support_threshold=support_threshold,
            max_predicates=max_predicates,
            num_bins=num_bins,
            exclude_features=exclude_features,
            prune_by_responsibility=prune_by_responsibility,
            min_responsibility=min_responsibility,
            max_responsibility=max_responsibility,
            batch_size=batch_size,
            alphabet=resolve_alphabet(
                table, alphabet_cache, support_threshold, num_bins, exclude_features
            ),
        )


class ClosedMiningEngine:
    """Closed-pattern mining over packed bitsets (one node per extent).

    ``projection`` selects the conditional-database strategy of
    :func:`repro.mining.closed.mine_closed_candidates` — ``"auto"``
    (default) projects shrunken branches into local coordinate spaces so
    deep nodes pay proportional to their parent extent, ``"never"`` is
    the flat full-width traversal.  Both emit identical candidates.
    """

    name = "mining"

    def __init__(self, projection: str = "auto") -> None:
        self.projection = projection

    def generate(
        self,
        table: Table,
        estimator: InfluenceEstimator,
        *,
        support_threshold: float = 0.05,
        max_predicates: int = 3,
        num_bins: int = 4,
        exclude_features: set[str] | None = None,
        prune_by_responsibility: bool = True,
        min_responsibility: float = 0.0,
        max_responsibility: float = 1.25,
        batch_size: int = 1024,
        alphabet_cache: AlphabetCache | None = None,
    ) -> CandidateResult:
        from repro.mining.closed import mine_closed_candidates

        return mine_closed_candidates(
            table,
            estimator,
            support_threshold=support_threshold,
            max_predicates=max_predicates,
            num_bins=num_bins,
            exclude_features=exclude_features,
            prune_by_responsibility=prune_by_responsibility,
            min_responsibility=min_responsibility,
            max_responsibility=max_responsibility,
            batch_size=batch_size,
            alphabet=resolve_alphabet(
                table, alphabet_cache, support_threshold, num_bins, exclude_features
            ),
            projection=self.projection,
        )


_ENGINES = {
    "lattice": LatticeEngine,
    "mining": ClosedMiningEngine,
}


def list_engines() -> list[str]:
    """Names accepted by :func:`make_engine` (and ``GopherConfig.engine``)."""
    return sorted(_ENGINES)


def make_engine(name: str, **kwargs: object) -> CandidateEngine:
    """Factory over the candidate-generation backends."""
    try:
        cls = _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown candidate engine {name!r}; available: {sorted(_ENGINES)}"
        ) from None
    return cls(**kwargs)  # type: ignore[arg-type]
