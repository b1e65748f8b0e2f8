"""Answer checks: every timed answer is re-derived outside the timed region.

Three checks, each reporting the number of failed operations:

* :func:`rescore_failures` — every top-k responsibility of an audit equals
  a re-score by a fresh estimator built outside the session (its own
  artifacts, no extent caches, its own fairness context);
* :func:`audit_mismatches` — two answers to the same grid agree (the same
  row subsets in order, responsibilities to a tolerance); the repair loop
  compares its last ``delta_audit`` with a fresh ``audit()`` through the
  patched session;
* :func:`fingerprint_mismatches` — for the default seed, the top-k of every
  audit matches the reference committed under ``reference/``.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from repro.fairness.metrics import get_metric
from repro.influence.artifacts import ModelArtifacts
from repro.influence.estimators import make_estimator

TOLERANCE = 1e-8
# The reference fingerprints cross machines and BLAS builds, so they are
# compared more loosely than answers recomputed within one process.
REFERENCE_TOLERANCE = 1e-6
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"


def finite(values) -> bool:
    return all(math.isfinite(float(v)) for v in values)


def rescore_failures(session, audit, estimator: str, estimator_kwargs: dict) -> int:
    """Queries of ``audit`` whose top-k does not re-score to 1e-8."""
    train, test = session.train_data, session.test_data
    artifacts = ModelArtifacts(session.model, session.X_train, train.labels)
    failed = 0
    for query in audit.queries:
        explanations = list(query.explanations)
        reported = [e.est_responsibility for e in explanations]
        if not finite(reported):
            failed += 1
            continue
        if not explanations:
            continue
        fresh = make_estimator(
            estimator,
            session.model,
            session.X_train,
            train.labels,
            get_metric(query.metric),
            test.fairness_context(session.X_test, query.group),
            artifacts=artifacts,
            **estimator_kwargs,
        )
        masks = np.stack([e.pattern.mask(train.table) for e in explanations])
        rescored = fresh.responsibility_batch(masks)
        if np.max(np.abs(rescored - np.asarray(reported))) > TOLERANCE:
            failed += 1
    return failed


def _same_subset(x, y, table) -> bool:
    """Two explanations name the same rows (patterns may differ in wording,
    e.g. ``residence = 1`` and ``residence < 2`` over a column whose
    minimum is 1)."""
    return str(x.pattern) == str(y.pattern) or bool(
        np.array_equal(x.pattern.mask(table), y.pattern.mask(table))
    )


def audit_mismatches(left, right, table, tolerance: float = TOLERANCE) -> int:
    """Queries on which two answers to one grid disagree.

    Answers agree when they select the same row subsets of ``table`` in the
    same order with responsibilities within ``tolerance``.
    """
    if len(left.queries) != len(right.queries):
        return max(len(left.queries), len(right.queries))
    failed = 0
    for a, b in zip(left.queries, right.queries):
        ea, eb = list(a.explanations), list(b.explanations)
        same = (
            a.metric == b.metric
            and len(ea) == len(eb)
            and all(
                _same_subset(x, y, table)
                and abs(x.est_responsibility - y.est_responsibility) <= tolerance
                for x, y in zip(ea, eb)
            )
        )
        failed += not same
    return failed


def fingerprint(audit, round_index: int) -> list[dict]:
    """The top-k of every query of one audit, as JSON-ready records."""
    return [
        {
            "round": round_index,
            "metric": query.metric,
            "patterns": [str(e.pattern) for e in query.explanations],
            "responsibilities": [float(e.est_responsibility) for e in query.explanations],
        }
        for query in audit.queries
    ]


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def write_reference(workload: str, records: list[dict]) -> Path:
    path = reference_path(workload)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(records, indent=1) + "\n")
    return path


def fingerprint_mismatches(workload: str, records: list[dict]) -> int:
    """Records that differ from the committed reference (all, if absent)."""
    path = reference_path(workload)
    if not path.exists():
        return len(records)
    reference = {(r["round"], r["metric"]): r for r in json.loads(path.read_text())}
    failed = 0
    for record in records:
        expected = reference.get((record["round"], record["metric"]))
        same = (
            expected is not None
            and expected["patterns"] == record["patterns"]
            and all(
                abs(x - y) <= REFERENCE_TOLERANCE
                for x, y in zip(expected["responsibilities"], record["responsibilities"])
            )
        )
        failed += not same
    return failed
