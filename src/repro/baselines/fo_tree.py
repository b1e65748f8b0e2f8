"""The FO-tree baseline (paper §6.2).

Train a decision-tree regressor on the first-order influence of every
training point, then read the top-k explanations off the tree: among all
nodes from the root down to depth ``l``, pick the k whose *total* influence
(sum over covered points) is most bias-reducing, and report the
root-to-node predicate paths.

Negated categorical conditions (``X != v``) have no counterpart in Gopher's
pattern language; paths keep them as textual conditions so the comparison
stays faithful to what a tree can express.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.baselines.decision_tree import DecisionTreeRegressor, TreeNode
from repro.influence.first_order import FirstOrderInfluence
from repro.tabular import Table


@dataclass
class FOTreeExplanation:
    """One FO-tree explanation: a path, its support, and its influence."""

    conditions: list[str]
    support: float
    size: int
    total_influence: float
    node_depth: int

    def describe(self) -> str:
        path = " ∧ ".join(self.conditions) if self.conditions else "(root)"
        return f"{path}  [sup={self.support:.2%}, ΔF̂={self.total_influence:+.4f}]"


class FOTreeExplainer:
    """Fit the FO-tree and extract top-k path explanations."""

    def __init__(
        self,
        max_depth: int = 3,
        min_samples_leaf: int = 20,
    ) -> None:
        self.max_depth = max_depth
        self.min_samples_leaf = min_samples_leaf
        self.tree: DecisionTreeRegressor | None = None
        self._num_rows: int | None = None

    def fit(self, table: Table, influence: FirstOrderInfluence) -> "FOTreeExplainer":
        """Fit the regressor on per-point FO bias influences."""
        if table.num_rows != influence.num_train:
            raise ValueError(
                f"table rows ({table.num_rows}) must match the influence "
                f"estimator's training rows ({influence.num_train})"
            )
        targets = influence.point_influences()
        self.tree = DecisionTreeRegressor(
            max_depth=self.max_depth, min_samples_leaf=self.min_samples_leaf
        ).fit(table, targets)
        self._num_rows = table.num_rows
        return self

    def top_k(self, k: int = 3) -> list[FOTreeExplanation]:
        """The k most bias-reducing nodes up to the depth cap.

        Negative total influence = removing the node's points reduces bias,
        so nodes are ranked ascending by total influence.  The root itself
        is excluded (it is the whole dataset, not an explanation).
        """
        if self.tree is None or self._num_rows is None:
            raise RuntimeError("explainer is not fitted")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        nodes = [n for n in self.tree.nodes() if n.depth > 0]
        nodes.sort(key=lambda n: n.total)
        out: list[FOTreeExplanation] = []
        for node in nodes[:k]:
            out.append(self._to_explanation(node))
        return out

    def _to_explanation(self, node: TreeNode) -> FOTreeExplanation:
        conditions = []
        for feature, op, value, polarity in node.path:
            if op == "<":
                text = f"{feature} < {value:g}" if polarity else f"{feature} >= {value:g}"
            else:
                text = f"{feature} = {value}" if polarity else f"{feature} != {value}"
            conditions.append(text)
        assert self._num_rows is not None
        return FOTreeExplanation(
            conditions=conditions,
            support=node.size / self._num_rows,
            size=node.size,
            total_influence=float(node.total),
            node_depth=node.depth,
        )
