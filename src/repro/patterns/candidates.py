"""Level-1 candidate generation: all single predicates above support (Alg. 1, lines 1–6).

Categorical features yield one equality predicate per distinct value.
Numeric features are binned first (paper §4.2: "for features with a large
number of possible values, we can apply binning") and yield a ``>=`` / ``<``
pair per threshold; numeric features with few distinct values additionally
yield equality predicates (e.g. ``installment_rate = 4`` in German Credit).

This module holds the *spec* enumeration (which predicates exist, in which
canonical order), :func:`iter_predicate_specs`.  Mask evaluation and the
support filter live in :class:`repro.mining.alphabet.PredicateAlphabet`.
Specs are enumerated once, when an alphabet is built; a data edit
(:meth:`~repro.mining.alphabet.PredicateAlphabet.apply_edit`) freezes that
language — the spec set, its order and the bin edges stay the pre-edit
table's — and only patches each predicate's mask and re-runs the support
filter, so an edit can move a predicate across τ but never mint or retire
one.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

from repro.datasets.binning import quantile_thresholds
from repro.patterns.predicate import Predicate
from repro.tabular import CategoricalColumn, NumericColumn, Table

# Numeric columns with at most this many distinct values also get '='.
_EQUALITY_CARDINALITY = 12


def normalize_exclude_features(
    exclude_features: Iterable[str] | str | None,
) -> frozenset[str]:
    """Normalize an exclude-features argument to a frozenset of names.

    Accepts ``None``, any iterable of column names, or a single name.  The
    single-string case is handled explicitly: iterating ``"age"`` into the
    character set ``{'a', 'g', 'e'}`` would silently exclude nothing (or,
    worse, substring-match single-letter columns), which is exactly the kind
    of cache-key/behaviour mismatch the alphabet cache must not build on.
    """
    if exclude_features is None:
        return frozenset()
    if isinstance(exclude_features, str):
        return frozenset((exclude_features,))
    return frozenset(exclude_features)


def iter_predicate_specs(
    table: Table,
    num_bins: int = 4,
    exclude_features: Iterable[str] | str | None = None,
) -> Iterator[Predicate]:
    """Yield every level-1 predicate of ``table`` in canonical order.

    The order is deterministic given the table: columns in schema order;
    per categorical column one ``=`` per distinct value; per numeric column
    the ``=`` predicates of low-cardinality columns followed by the
    ``>=``/``<`` pair per quantile threshold (integer-rounded thresholds for
    integer-valued columns).  No masks are evaluated and no support filter
    is applied — this is the *spec* half of level-1 generation, run when an
    alphabet is built.
    """
    exclude = normalize_exclude_features(exclude_features)
    for name in table.column_names:
        if name in exclude:
            continue
        column = table.column(name)
        if isinstance(column, CategoricalColumn):
            for value in column.distinct():
                yield Predicate(name, "=", value)
            continue
        assert isinstance(column, NumericColumn)
        values = column.values
        distinct = np.unique(values)
        if len(distinct) <= _EQUALITY_CARDINALITY:
            for value in distinct:
                yield Predicate(name, "=", float(value))
        thresholds = quantile_thresholds(values, num_bins)
        if np.all(values == np.round(values)):
            # Integer-valued columns get integer thresholds ("age >= 45"
            # rather than "age >= 45.25") for readable explanations.
            thresholds = sorted({float(round(t)) for t in thresholds})
        for threshold in thresholds:
            for op in (">=", "<"):
                yield Predicate(name, op, float(threshold))
