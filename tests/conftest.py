"""Shared fixtures: one small German pipeline reused across the suite.

Session-scoped because fitting models and factorizing Hessians repeatedly
would dominate test time; all fixtures are treated as read-only by tests.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.datasets import TabularEncoder, load_german, train_test_split
from repro.fairness import FairnessContext, get_metric
from repro.influence import make_estimator
from repro.models import LogisticRegression

# REPRO_SANITIZE=1 runs the whole suite against write-sanitized sessions:
# every fitted AuditSession is warmed and its shared arrays frozen, so an
# in-place mutation anywhere on the read path fails the offending test
# with "assignment destination is read-only" at the write site.
if os.environ.get("REPRO_SANITIZE") == "1":
    from repro.utils.freeze import install_session_sanitizer

    install_session_sanitizer()


@pytest.fixture(scope="session")
def german():
    # Seed chosen so the fitted model shows a clear positive statistical
    # parity violation (~0.22) — the regime every sign-convention test
    # assumes.  Other seeds are exercised in the generator tests.
    return load_german(800, seed=11)


@pytest.fixture(scope="session")
def german_split(german):
    return train_test_split(german, test_fraction=0.25, seed=1)


@pytest.fixture(scope="session")
def german_train(german_split):
    return german_split[0]


@pytest.fixture(scope="session")
def german_test(german_split):
    return german_split[1]


@pytest.fixture(scope="session")
def encoder(german_train):
    return TabularEncoder().fit(german_train.table)


@pytest.fixture(scope="session")
def X_train(encoder, german_train):
    return encoder.transform(german_train.table)


@pytest.fixture(scope="session")
def X_test(encoder, german_test):
    return encoder.transform(german_test.table)


@pytest.fixture(scope="session")
def lr_model(X_train, german_train):
    return LogisticRegression(l2_reg=1e-3).fit(X_train, german_train.labels)


@pytest.fixture(scope="session")
def test_ctx(X_test, german_test):
    return FairnessContext(
        X=X_test,
        y=german_test.labels,
        privileged=german_test.privileged_mask(),
        favorable_label=1,
    )


@pytest.fixture(scope="session")
def sp_metric():
    return get_metric("statistical_parity")


@pytest.fixture(scope="session")
def fo_estimator(lr_model, X_train, german_train, sp_metric, test_ctx):
    return make_estimator(
        "first_order", lr_model, X_train, german_train.labels, sp_metric, test_ctx
    )


@pytest.fixture(scope="session")
def so_estimator(lr_model, X_train, german_train, sp_metric, test_ctx):
    return make_estimator(
        "second_order", lr_model, X_train, german_train.labels, sp_metric, test_ctx
    )


@pytest.fixture(scope="session")
def retrain_estimator(lr_model, X_train, german_train, sp_metric, test_ctx):
    return make_estimator(
        "retrain", lr_model, X_train, german_train.labels, sp_metric, test_ctx
    )


@pytest.fixture(scope="session")
def tiny_xy():
    """A small, clearly separable synthetic problem for model unit tests."""
    rng = np.random.default_rng(0)
    n = 240
    X = rng.normal(size=(n, 4))
    logits = 1.6 * X[:, 0] - 1.1 * X[:, 1] + 0.4 * X[:, 2]
    y = (logits + rng.normal(scale=0.6, size=n) > 0).astype(np.int64)
    return X, y
