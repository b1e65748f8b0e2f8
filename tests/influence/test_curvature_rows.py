"""The exact estimator's curvature rows V = √w ⊙ Φ, one artifacts slot per model.

A warmed exact session reads the slot and never builds it mid-audit; an
edit drops it, and its rebuild on the edited rows serves the same Δθ as a
bundle built from scratch on the edited data; and rows of zero weight
(the squared-hinge SVM's inactive margins) never reach the ``dsyrk``.
"""

import numpy as np
import pytest

from repro.core import AuditSession
from repro.datasets import DataEdit
from repro.influence import make_estimator
from repro.influence.artifacts import ModelArtifacts
from repro.influence.hessian import ReducedHessianSolver
from repro.models import LinearSVM
from repro.obs import trace
from repro.obs.trace import Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)


def _builds(tracer) -> list[str]:
    return [s.attrs["reason"] for s in tracer.walk() if s.name == "artifacts.curvature_rows"]


def _reference_rows(phi, weights, subset):
    """V_S as each batch built it before the slot: the w ≠ 0 rows of S,
    gathered from Φ and scaled by √w in place."""
    subset = subset[weights.take(subset) != 0.0]
    rows = phi.take(subset, axis=0)
    rows *= np.sqrt(weights).take(subset)[:, None]
    return rows


def test_a_warmed_exact_audit_reads_the_slot(lr_model, german_train, german_test):
    tracer = Tracer()
    with trace.tracing(tracer):
        session = AuditSession(lr_model, estimator="exact", **SEARCH)
        session.fit(german_train, german_test).warm()
        built = len(_builds(tracer))
        session.audit(k=2, verify=False)
    assert built == 1
    assert _builds(tracer) == ["first use"]
    assert session.stats["influence.curvature_row_builds"] == 1


def test_a_series_session_never_builds_it(lr_model, german_train, german_test):
    session = AuditSession(lr_model, estimator="series", **SEARCH).fit(german_train, german_test)
    session.warm().audit(k=2, verify=False)
    assert session.stats["influence.curvature_row_builds"] == 0


def test_an_edit_drops_it_and_names_the_edit(lr_model, german_train, german_test):
    session = AuditSession(lr_model, estimator="exact", **SEARCH).fit(german_train, german_test)
    session.warm()
    tracer = Tracer()
    with trace.tracing(tracer):
        session.delta_audit(DataEdit.remove(range(8)), k=2, verify=False)
    assert _builds(tracer) == ["edit(remove 8)"]


def test_rows_after_edits_match_a_fresh_bundle(
    lr_model, X_train, german_train, sp_metric, test_ctx
):
    """Remove, relabel and add in one edit: the rebuilt V equals a fresh
    bundle's bit for bit, and so does index-path Δθ once both bundles
    share the edited Hessian (the one cache an edit patches through the
    subset identity; ``test_artifact_edits`` pins it to a rebuild)."""
    y = german_train.labels
    rng = np.random.default_rng(0)
    remove = rng.choice(len(X_train), size=9, replace=False)
    relabel = rng.choice(np.setdiff1d(np.arange(len(X_train)), remove), size=7, replace=False)
    picks = rng.integers(0, len(X_train), size=5)
    edited = ModelArtifacts(lr_model, X_train, y)
    make_estimator("exact", lr_model, X_train, y, sp_metric, test_ctx, artifacts=edited).warm()
    edited.apply_edit(
        remove_indices=remove, relabel_indices=relabel, relabel_labels=1 - y[relabel],
        X_add=X_train[picks], y_add=y[picks],
    )
    fresh = ModelArtifacts(lr_model, edited.X_train.copy(), edited.y_train.copy())
    fresh._hessian.set(edited.hessian)
    V, nonzero, ridge = edited.curvature_rows()
    fresh_V, fresh_nonzero, fresh_ridge = fresh.curvature_rows()
    np.testing.assert_array_equal(V, fresh_V)
    assert nonzero is fresh_nonzero is None and ridge == fresh_ridge
    n = edited.num_train
    subsets = [np.sort(rng.choice(n, size=int(k), replace=False)) for k in (3, 40, 61, 150)]
    deltas = [
        make_estimator(
            "exact", lr_model, bundle.X_train, bundle.y_train, sp_metric, test_ctx,
            artifacts=bundle,
        ).param_change_batch(subsets, num_rows=n)
        for bundle in (edited, fresh)
    ]
    np.testing.assert_array_equal(deltas[0], deltas[1])


@pytest.fixture(scope="module")
def svm_estimator(X_train, german_train, sp_metric, test_ctx):
    y = german_train.labels
    model = LinearSVM(l2_reg=1e-3).fit(X_train, y)
    return make_estimator("exact", model, X_train, y, sp_metric, test_ctx)


def test_zero_weight_rows_never_reach_the_downdate(svm_estimator, monkeypatch):
    est = svm_estimator
    phi, weights, _ = est.artifacts.hessian_factors()
    assert (weights == 0.0).sum() > 0
    rng = np.random.default_rng(1)
    subsets = [np.sort(rng.choice(est.num_train, size=int(k), replace=False)) for k in (5, 60, 200)]
    masks = np.zeros((len(subsets), est.num_train), dtype=bool)
    for j, subset in enumerate(subsets):
        masks[j, subset] = True
    seen = []
    solve_many = ReducedHessianSolver.solve_many

    def spy(self, B, base, shifts, downdates, rhs_flops=0.0):
        rows = list(downdates)
        seen.append(rows)
        return solve_many(self, B, base, shifts, rows, rhs_flops)

    monkeypatch.setattr(ReducedHessianSolver, "solve_many", spy)
    by_index = est.param_change_batch(subsets, num_rows=est.num_train)
    by_mask = est.param_change_batch(masks)
    np.testing.assert_allclose(by_index, by_mask, atol=1e-10, rtol=0.0)  # g_S: GEMM vs gather-sum
    assert len(seen) == 2
    for rows in seen:
        for got, subset in zip(rows, subsets, strict=True):
            expected = _reference_rows(phi, weights, subset)
            assert got.shape[0] < subset.size or weights[subset].all()
            np.testing.assert_array_equal(got, expected)
