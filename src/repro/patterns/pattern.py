"""Patterns: conjunctions of predicates describing training-data subsets."""

from __future__ import annotations

import numpy as np

from repro.patterns.predicate import Predicate
from repro.tabular import Table


class Pattern:
    """An immutable conjunction of :class:`Predicate` atoms (Def. 3.3).

    Predicates are kept in a canonical sorted order, which gives patterns a
    well-defined identity (hash/equality), makes lattice joins deterministic,
    and provides the arbitrary-but-fixed tie-break order Definition 3.7 asks
    for.
    """

    __slots__ = ("predicates",)

    def __init__(self, predicates: tuple[Predicate, ...] | list[Predicate]) -> None:
        unique = sorted(set(predicates), key=Predicate.order_key)
        if not unique:
            raise ValueError("a pattern needs at least one predicate")
        object.__setattr__(self, "predicates", tuple(unique))

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("Pattern is immutable")

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.predicates)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Pattern) and self.predicates == other.predicates

    def __hash__(self) -> int:
        return hash(self.predicates)

    def __str__(self) -> str:
        return " ∧ ".join(str(p) for p in self.predicates)

    def __repr__(self) -> str:
        return f"Pattern({str(self)!r})"

    def sort_key(self) -> tuple:
        return tuple(p.sort_key() for p in self.predicates)

    # ------------------------------------------------------------------
    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of table rows satisfying every predicate."""
        out = np.ones(table.num_rows, dtype=bool)
        for predicate in self.predicates:
            out &= predicate.mask(table)
            if not out.any():
                break
        return out

    def support(self, table: Table) -> float:
        """Sup(φ) = |D(φ)| / |D| (Def. 3.4)."""
        if table.num_rows == 0:
            raise ValueError("support is undefined on an empty table")
        return float(self.mask(table).mean())

    def features(self) -> set[str]:
        """The set of feature names the pattern constrains."""
        return {p.feature for p in self.predicates}

    # ------------------------------------------------------------------
    def merge(self, other: "Pattern") -> "Pattern":
        """Union of the two predicate sets (the lattice join)."""
        return Pattern(self.predicates + other.predicates)

    def differs_in_one(self, other: "Pattern") -> bool:
        """True when both patterns share all but exactly one predicate."""
        if len(self) != len(other):
            return False
        shared = set(self.predicates) & set(other.predicates)
        return len(shared) == len(self) - 1

    def is_satisfiable(self) -> bool:
        """False when any two predicates structurally conflict."""
        preds = self.predicates
        for i, a in enumerate(preds):
            for b in preds[i + 1:]:
                if a.conflicts_with(b):
                    return False
        return True

    def contains_pattern(self, other: "Pattern") -> bool:
        """True when this pattern's predicates are a superset of ``other``'s."""
        return set(other.predicates) <= set(self.predicates)
