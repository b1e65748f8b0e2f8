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

Both searches read their level-1 predicates from
:mod:`repro.mining.alphabet`, the per-dataset cache of packed masks.
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

__all__ = [
    "AlphabetCache",
    "PredicateAlphabet",
    "resolve_alphabet",
    "covers_all",
    "extent_key",
    "intersect",
    "mine_closed_candidates",
    "pack_rows",
    "packed_width",
    "popcount",
    "unpack_rows",
]
