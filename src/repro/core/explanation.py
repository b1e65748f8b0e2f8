"""Result types returned by :class:`repro.core.GopherExplainer`."""

from __future__ import annotations

from dataclasses import dataclass

from repro.patterns.lattice import CandidateResult, PatternStats
from repro.patterns.pattern import Pattern


@dataclass
class Explanation:
    """One top-k explanation: a pattern plus its responsibility estimates.

    ``est_*`` fields come from the influence estimator that drove the
    search; ``gt_*`` fields are filled in when the explanation was verified
    by actually retraining without the subset (the Δbias the paper's tables
    report).
    """

    rank: int
    pattern: Pattern
    support: float
    size: int
    est_responsibility: float
    est_bias_change: float
    interestingness: float
    gt_bias_change: float | None = None
    gt_responsibility: float | None = None

    @property
    def bias_reduction_pct(self) -> float | None:
        """Ground-truth bias reduction in percent (None if unverified)."""
        if self.gt_responsibility is None:
            return None
        return 100.0 * self.gt_responsibility

    def describe(self) -> str:
        parts = [
            f"#{self.rank}: {self.pattern}",
            f"support={self.support:.2%}",
            f"est R={self.est_responsibility:.2%}",
        ]
        if self.gt_responsibility is not None:
            parts.append(f"true Δbias={self.gt_responsibility:.2%}")
        return "  ".join(parts)

    @classmethod
    def from_stats(cls, rank: int, stats: PatternStats) -> "Explanation":
        return cls(
            rank=rank,
            pattern=stats.pattern,
            support=stats.support,
            size=stats.size,
            est_responsibility=stats.responsibility,
            est_bias_change=stats.bias_change,
            interestingness=stats.interestingness,
        )


@dataclass
class ExplanationSet:
    """The full output of one ``explain()`` call."""

    explanations: list[Explanation]
    metric_name: str
    original_bias: float
    search_seconds: float
    filter_seconds: float
    lattice: CandidateResult

    def __len__(self) -> int:
        return len(self.explanations)

    def __iter__(self):
        return iter(self.explanations)

    def __getitem__(self, index: int) -> Explanation:
        return self.explanations[index]

    def patterns(self) -> list[Pattern]:
        return [e.pattern for e in self.explanations]

    def to_records(self) -> list[dict]:
        """JSON-serializable records, one per explanation.

        Intended for piping results into dashboards or notebooks; predicates
        are exported structurally (feature/op/value) as well as rendered.
        """
        records = []
        for e in self.explanations:
            records.append(
                {
                    "rank": e.rank,
                    "pattern": str(e.pattern),
                    "predicates": [
                        {"feature": p.feature, "op": p.op, "value": p.value}
                        for p in e.pattern.predicates
                    ],
                    "support": e.support,
                    "size": e.size,
                    "estimated_responsibility": e.est_responsibility,
                    "estimated_bias_change": e.est_bias_change,
                    "interestingness": e.interestingness,
                    "ground_truth_bias_change": e.gt_bias_change,
                    "ground_truth_responsibility": e.gt_responsibility,
                    "metric": self.metric_name,
                    "original_bias": self.original_bias,
                }
            )
        return records

    def render(self) -> str:
        """Paper-style table: pattern, support, Δbias."""
        header = f"Top-{len(self.explanations)} explanations " \
                 f"({self.metric_name}, original bias = {self.original_bias:.4f})"
        lines = [header, "-" * len(header)]
        for e in self.explanations:
            delta = (
                f"{e.gt_responsibility:7.1%}" if e.gt_responsibility is not None
                else f"{e.est_responsibility:6.1%}*"
            )
            lines.append(f"{e.support:7.2%}  {delta}  {e.pattern}")
        lines.append("(Δbias = relative bias reduction when the subset is removed; "
                     "* = estimated, unverified)")
        return "\n".join(lines)

    def __str__(self) -> str:
        return self.render()
