"""Closed-pattern mining: a packed-bitset candidate search.

The subsystem has two layers:

* :mod:`repro.mining.bitset` — packed tidlist primitives (AND, popcount,
  closure cover tests, extent hashing);
* :mod:`repro.mining.closed` — LCM-style depth-first closed-pattern
  enumeration with support and responsibility pruning, scoring buffered
  frontiers through the packed batched influence API.
  :func:`mine_closed_candidates` takes the arguments of
  :func:`repro.patterns.lattice.compute_candidates`, and
  ``GopherConfig(engine="mining")`` selects it.

Both searches take a :class:`PredicateAlphabet`
(:mod:`repro.mining.alphabet`) as their first argument: the level-1
predicates with packed masks, their τ and the row count.
:class:`AlphabetCache` keeps one alphabet per parameter key of a table.
"""

from repro.mining.alphabet import AlphabetCache, PredicateAlphabet
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

__all__ = [
    "AlphabetCache",
    "PredicateAlphabet",
    "covers_all",
    "extent_key",
    "intersect",
    "mine_closed_candidates",
    "pack_rows",
    "packed_width",
    "popcount",
    "unpack_rows",
]
