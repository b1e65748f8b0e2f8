"""Pattern language and lattice search (paper §3 and §4.2).

A *pattern* is a conjunction of first-order predicates ``X op c`` describing
a coherent training-data subset.  :func:`compute_candidates` implements the
paper's Algorithm 1 — an Apriori-style bottom-up lattice search with two
pruning heuristics (support threshold, responsibility must increase on
merge) — and :func:`select_top_k` implements Algorithm 2, the diversity
filter based on containment scores.
"""

from repro.patterns.containment import containment, max_containment
from repro.patterns.lattice import (
    CandidateResult,
    LatticeLevelStats,
    PatternStats,
    compute_candidates,
)
from repro.patterns.pattern import Pattern
from repro.patterns.predicate import Predicate
from repro.patterns.topk import select_top_k

__all__ = [
    "CandidateResult",
    "LatticeLevelStats",
    "Pattern",
    "PatternStats",
    "Predicate",
    "compute_candidates",
    "containment",
    "max_containment",
    "select_top_k",
]
