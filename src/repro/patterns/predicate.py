"""Single predicates ``X op c`` — the atoms of the pattern language (Def. 3.3)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.tabular import CategoricalColumn, NumericColumn, Table

_NUMERIC_OPS = ("=", "<", "<=", ">", ">=")
_CATEGORICAL_OPS = ("=",)


@dataclass(frozen=True)
class Predicate:
    """An atomic condition on one feature.

    ``op`` is one of ``= < <= > >=``; categorical features support only
    equality.  Predicates are immutable and hashable so they can live in
    pattern sets and lattice keys.
    """

    feature: str
    op: str
    value: object

    def __post_init__(self) -> None:
        if self.op not in _NUMERIC_OPS:
            raise ValueError(f"unsupported operator {self.op!r}")

    # ------------------------------------------------------------------
    def mask(self, table: Table) -> np.ndarray:
        """Boolean mask of rows satisfying the predicate."""
        column = table.column(self.feature)
        if isinstance(column, CategoricalColumn):
            if self.op != "=":
                raise ValueError(
                    f"categorical feature {self.feature!r} supports '=' only, got {self.op!r}"
                )
            return column.equals_mask(self.value)
        assert isinstance(column, NumericColumn)
        value = float(self.value)  # type: ignore[arg-type]
        if self.op == "=":
            return column.equals_mask(value)
        if self.op == "<":
            return column.less_mask(value)
        if self.op == "<=":
            return column.less_equal_mask(value)
        if self.op == ">":
            return column.greater_mask(value)
        return column.greater_equal_mask(value)

    # ------------------------------------------------------------------
    def interval(self) -> tuple[float, float, bool, bool]:
        """(lo, hi, lo_closed, hi_closed) for numeric satisfiability checks."""
        value = float(self.value)  # type: ignore[arg-type]
        if self.op == "=":
            return value, value, True, True
        if self.op == "<":
            return -np.inf, value, False, False
        if self.op == "<=":
            return -np.inf, value, False, True
        if self.op == ">":
            return value, np.inf, False, False
        return value, np.inf, True, False

    def conflicts_with(self, other: "Predicate") -> bool:
        """True when ``self ∧ other`` is unsatisfiable (Algorithm 1's skip)."""
        if self.feature != other.feature:
            return False
        if self.op == "=" and other.op == "=" and not _is_number(self.value):
            return self.value != other.value
        if not (_is_number(self.value) and _is_number(other.value)):
            # Categorical equality against anything non-equal was handled
            # above; mixed-type comparisons never conflict structurally.
            return False
        lo_a, hi_a, lc_a, hc_a = self.interval()
        lo_b, hi_b, lc_b, hc_b = other.interval()
        lo = max(lo_a, lo_b)
        hi = min(hi_a, hi_b)
        if lo > hi:
            return True
        if lo == hi:
            lo_closed = (lc_a if lo == lo_a else True) and (lc_b if lo == lo_b else True)
            hi_closed = (hc_a if hi == hi_a else True) and (hc_b if hi == hi_b else True)
            return not (lo_closed and hi_closed)
        return False

    # ------------------------------------------------------------------
    def sort_key(self) -> tuple[str, str, str]:
        """Order used for canonical pattern representations and tie-breaks."""
        return (self.feature, self.op, str(self.value))

    def order_key(self) -> tuple[tuple[str, str, str], str]:
        """:meth:`sort_key`, with ties between values that print alike
        (``1`` and ``"1"``) broken by type name rather than by hash order."""
        return self.sort_key(), type(self.value).__name__

    def __str__(self) -> str:
        value = self.value
        if _is_number(value) and float(value) == int(float(value)):  # type: ignore[arg-type]
            value = int(float(value))  # type: ignore[arg-type]
        return f"{self.feature} {self.op} {value}"


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float, np.integer, np.floating)) and not isinstance(
        value, bool
    )
