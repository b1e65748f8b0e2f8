"""Feature encoding: one-hot categoricals + standardized numerics.

The encoder also records, per original column, the slice it occupies in the
encoded matrix.  Update-based explanations (Section 5 of the paper) perturb
rows in encoded space and must project back onto the valid input domain —
``EncodedGroup`` carries everything that projection needs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.tabular import CategoricalColumn, NumericColumn, Table


@dataclass
class EncodedGroup:
    """Book-keeping for one original column inside the encoded matrix.

    ``start:stop`` is the column slice in the encoded matrix.  For
    categorical columns ``categories`` lists the one-hot order; for numeric
    columns ``mean``/``std`` define the standardization and
    ``minimum``/``maximum`` the observed domain used for projection.
    """

    column: str
    kind: str  # "categorical" | "numeric"
    start: int
    stop: int
    categories: list[str] = field(default_factory=list)
    mean: float = 0.0
    std: float = 1.0
    minimum: float = 0.0
    maximum: float = 0.0

    @property
    def width(self) -> int:
        return self.stop - self.start


class TabularEncoder:
    """Fit/transform between :class:`Table` rows and dense float matrices.

    Categorical columns become one-hot blocks (all categories kept — Gopher
    needs to decode updates back to *named* category flips, so no category is
    dropped).  Numeric columns are z-standardized using training statistics.
    ``fit`` and ``transform`` reject NaN or ±inf numeric cells by column
    name: every table (train, test, added rows) becomes a matrix here.
    """

    def __init__(self) -> None:
        self.groups: list[EncodedGroup] = []
        self.feature_names: list[str] = []
        self._fitted = False

    # ------------------------------------------------------------------
    def fit(self, table: Table) -> "TabularEncoder":
        self.groups = []
        self.feature_names = []
        offset = 0
        for name in table.column_names:
            column = table.column(name)
            if isinstance(column, CategoricalColumn):
                categories = list(column.categories)
                group = EncodedGroup(
                    column=name,
                    kind="categorical",
                    start=offset,
                    stop=offset + len(categories),
                    categories=categories,
                )
                self.feature_names.extend(f"{name}={c}" for c in categories)
            elif isinstance(column, NumericColumn):
                _check_finite(name, column.values)
                std = float(column.values.std())
                group = EncodedGroup(
                    column=name,
                    kind="numeric",
                    start=offset,
                    stop=offset + 1,
                    mean=float(column.values.mean()),
                    std=std if std > 0 else 1.0,
                    minimum=float(column.values.min()),
                    maximum=float(column.values.max()),
                )
                self.feature_names.append(name)
            else:  # pragma: no cover - no other column kinds exist
                raise TypeError(f"unsupported column type for {name!r}")
            offset = group.stop
            self.groups.append(group)
        self._fitted = True
        return self

    @property
    def num_features(self) -> int:
        self._require_fitted()
        return self.groups[-1].stop if self.groups else 0

    def group_for(self, column: str) -> EncodedGroup:
        self._require_fitted()
        for group in self.groups:
            if group.column == column:
                return group
        raise KeyError(f"no encoded group for column {column!r}")

    # ------------------------------------------------------------------
    def transform(self, table: Table) -> np.ndarray:
        """Encode ``table`` into an (n_rows, num_features) float64 matrix."""
        self._require_fitted()
        n = table.num_rows
        out = np.zeros((n, self.num_features), dtype=np.float64)
        for group in self.groups:
            column = table.column(group.column)
            if group.kind == "categorical":
                if not isinstance(column, CategoricalColumn):
                    raise TypeError(f"column {group.column!r} changed type since fit")
                for j, category in enumerate(group.categories):
                    out[:, group.start + j] = column.equals_mask(category)
            else:
                if not isinstance(column, NumericColumn):
                    raise TypeError(f"column {group.column!r} changed type since fit")
                _check_finite(group.column, column.values)
                out[:, group.start] = (column.values - group.mean) / group.std
        return out

    def fit_transform(self, table: Table) -> np.ndarray:
        return self.fit(table).transform(table)

    # ------------------------------------------------------------------
    def decode_row(self, x: np.ndarray) -> dict[str, object]:
        """Decode one encoded row back to named values.

        One-hot blocks decode to the argmax category (so this also works on
        *perturbed* rows that are no longer exactly one-hot); numeric slots
        are un-standardized.
        """
        self._require_fitted()
        x = np.asarray(x, dtype=np.float64)
        if x.shape != (self.num_features,):
            raise ValueError(f"row shape {x.shape} != ({self.num_features},)")
        decoded: dict[str, object] = {}
        for group in self.groups:
            block = x[group.start:group.stop]
            if group.kind == "categorical":
                decoded[group.column] = group.categories[int(np.argmax(block))]
            else:
                decoded[group.column] = float(block[0] * group.std + group.mean)
        return decoded

    def project_rows(self, x: np.ndarray) -> np.ndarray:
        """Project encoded rows onto the valid input domain (paper Eq. 19).

        Each one-hot block snaps to the nearest valid one-hot vector (its
        argmax); each numeric slot is clipped to the observed [min, max]
        range.  This is the projection step of the projected-gradient-descent
        update search.
        """
        self._require_fitted()
        x = np.atleast_2d(np.asarray(x, dtype=np.float64)).copy()
        if x.shape[1] != self.num_features:
            raise ValueError(f"rows have {x.shape[1]} features, expected {self.num_features}")
        for group in self.groups:
            block = x[:, group.start:group.stop]
            if group.kind == "categorical":
                winners = np.argmax(block, axis=1)
                block[:] = 0.0
                block[np.arange(len(block)), winners] = 1.0
            else:
                lo = (group.minimum - group.mean) / group.std
                hi = (group.maximum - group.mean) / group.std
                np.clip(block, lo, hi, out=block)
            x[:, group.start:group.stop] = block
        return x

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("encoder is not fitted; call fit() first")


def _check_finite(name: str, values: np.ndarray) -> None:
    bad = int(np.count_nonzero(~np.isfinite(values)))
    if bad:
        raise ValueError(f"column {name!r} has NaN or inf in {bad} row(s)")
