"""Per-query cost attribution derived from a span subtree.

The estimators record the shapes of every batched GEMM and multi-RHS
solve as span attributes; this module folds them into FLOP estimates:

* **GEMM** — ``(m × n) @ (n × p)`` costs ``2·m·n·p`` FLOPs, recorded by
  the instrumentation as an accumulated ``gemm_flops`` attribute;
* **solve** — a factorized ``p×p`` system solved against ``k`` right
  hand sides costs ``2·p²·k`` through a Cholesky factor (two triangular
  sweeps) and ``4·p²·k`` in an eigenbasis (two ``(p × p) @ (p × k)``
  GEMMs), recorded as ``solve_flops``.

Cache hit/miss figures come from ``trace.add("cache_hits", 1)`` calls
at the artifact accessors, and ``evaluations`` counts influence
evaluations (subsets scored); a ``model.fit`` span's ``evaluations`` are
objective calls and are left out.  :meth:`CostReport.from_span` walks one
query's subtree, sums those attributes, and aggregates wall time per
span name with a ``%self`` breakdown (time spent in a span but not in
any of its children) so a profile shows where each query's milliseconds
actually went.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.obs.trace import Span


@dataclass(frozen=True)
class CostLine:
    """Aggregated wall time for one span name within a query subtree."""

    name: str
    count: int
    total_seconds: float
    self_seconds: float
    pct_self: float


@dataclass
class CostReport:
    """Where one query's time, FLOPs, and cache traffic went."""

    name: str = ""
    wall_seconds: float = 0.0
    gemm_flops: float = 0.0
    solve_flops: float = 0.0
    influence_evaluations: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lines: list[CostLine] = field(default_factory=list)

    @property
    def total_flops(self) -> float:
        return self.gemm_flops + self.solve_flops

    @property
    def cache_hit_ratio(self) -> float:
        touched = self.cache_hits + self.cache_misses
        return self.cache_hits / touched if touched else 0.0

    @property
    def leaf_fraction(self) -> float:
        """Fraction of wall time accounted for by leaf spans (no children)."""
        leaf_names = {line.name for line in self.lines if line.total_seconds == line.self_seconds}
        leaf = sum(line.self_seconds for line in self.lines if line.name in leaf_names)
        return leaf / self.wall_seconds if self.wall_seconds else 0.0

    @classmethod
    def from_span(cls, span: Span) -> "CostReport":
        """Fold one query's span subtree into totals and a %self table."""
        totals = {"gemm_flops": 0.0, "solve_flops": 0.0, "evaluations": 0,
                  "cache_hits": 0, "cache_misses": 0}
        per_name: dict[str, list[float]] = {}
        for node in span.walk():
            for key in totals:
                if key == "evaluations" and node.name == "model.fit":
                    continue
                value = node.attrs.get(key)
                if isinstance(value, (int, float)) and not isinstance(value, bool):
                    totals[key] += value
            agg = per_name.setdefault(node.name, [0, 0.0, 0.0])
            agg[0] += 1
            agg[1] += node.seconds
            agg[2] += node.self_seconds
        wall = span.seconds or 1e-12
        lines = [
            CostLine(
                name=name,
                count=int(count),
                total_seconds=total,
                self_seconds=self_s,
                pct_self=100.0 * self_s / wall,
            )
            for name, (count, total, self_s) in per_name.items()
        ]
        lines.sort(key=lambda line: line.self_seconds, reverse=True)
        return cls(
            name=span.name,
            wall_seconds=span.seconds,
            gemm_flops=totals["gemm_flops"],
            solve_flops=totals["solve_flops"],
            influence_evaluations=int(totals["evaluations"]),
            cache_hits=int(totals["cache_hits"]),
            cache_misses=int(totals["cache_misses"]),
            lines=lines,
        )

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "wall_seconds": self.wall_seconds,
            "gemm_flops": self.gemm_flops,
            "solve_flops": self.solve_flops,
            "total_flops": self.total_flops,
            "influence_evaluations": self.influence_evaluations,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "cache_hit_ratio": self.cache_hit_ratio,
            "lines": [
                {
                    "name": line.name,
                    "count": line.count,
                    "total_seconds": line.total_seconds,
                    "self_seconds": line.self_seconds,
                    "pct_self": line.pct_self,
                }
                for line in self.lines
            ],
        }

    def render(self) -> str:
        """Terminal table: header totals then the per-span %self breakdown."""
        header = (
            f"{self.name or 'query'}: {self.wall_seconds * 1e3:.1f}ms, "
            f"{_flops(self.total_flops)} "
            f"(gemm {_flops(self.gemm_flops)}, solve {_flops(self.solve_flops)}), "
            f"{self.influence_evaluations} influence evaluations, "
            f"cache {self.cache_hits} hit / {self.cache_misses} miss "
            f"({100.0 * self.cache_hit_ratio:.0f}%)"
        )
        rows = [header]
        for line in self.lines:
            rows.append(
                f"  {line.name:<28} x{line.count:<5} "
                f"total {line.total_seconds * 1e3:8.2f}ms  "
                f"self {line.self_seconds * 1e3:8.2f}ms ({line.pct_self:5.1f}%)"
            )
        return "\n".join(rows)


def _flops(value: float) -> str:
    """Human-readable FLOP count (``1.2 GFLOP``)."""
    for unit, scale in (("T", 1e12), ("G", 1e9), ("M", 1e6), ("k", 1e3)):
        if value >= scale:
            return f"{value / scale:.2f} {unit}FLOP"
    return f"{value:.0f} FLOP"


def gemm_flops(m: int, n: int, p: int) -> float:
    """FLOPs of an ``(m × n) @ (n × p)`` matrix product."""
    return 2.0 * m * n * p


def solve_flops(p: int, rhs: int) -> float:
    """FLOPs of solving a Cholesky-factorized ``p×p`` system for ``rhs`` columns."""
    return 2.0 * p * p * rhs
