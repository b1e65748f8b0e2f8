"""Closed-pattern mining: a packed-bitset candidate-generation backend.

The subsystem has three layers:

* :mod:`repro.mining.bitset` — packed tidlist primitives (AND, popcount,
  closure cover tests, extent hashing);
* :mod:`repro.mining.closed` — LCM-style depth-first closed-pattern
  enumeration with support and responsibility pruning, scoring buffered
  frontiers through the packed batched influence API;
* :mod:`repro.mining.engine` — the :class:`CandidateEngine` strategy
  protocol with :class:`LatticeEngine` (Algorithm 1 as published) and
  :class:`ClosedMiningEngine` (this subsystem) as interchangeable
  backends behind ``GopherConfig(engine=...)``.
"""

from repro.mining.alphabet import AlphabetCache, PredicateAlphabet, resolve_alphabet
from repro.mining.bitset import (
    covers_all,
    extent_key,
    intersect,
    pack_rows,
    packed_width,
    popcount,
    unpack_rows,
)
from repro.mining.closed import mine_closed_candidates
from repro.mining.engine import (
    CandidateEngine,
    ClosedMiningEngine,
    LatticeEngine,
    list_engines,
    make_engine,
)

__all__ = [
    "AlphabetCache",
    "CandidateEngine",
    "ClosedMiningEngine",
    "LatticeEngine",
    "PredicateAlphabet",
    "resolve_alphabet",
    "covers_all",
    "extent_key",
    "intersect",
    "list_engines",
    "make_engine",
    "mine_closed_candidates",
    "pack_rows",
    "packed_width",
    "popcount",
    "unpack_rows",
]
