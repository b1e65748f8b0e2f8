"""Frozen-session serving: the write-sanitizer and the concurrency hammer.

A warmed session's query surface is supposed to be a *pure read* of
shared state (the RL001 contract, enforced statically by
``tools/reprolint``).  These tests enforce it dynamically:

* :func:`repro.utils.freeze.freeze_session` flips every shared array to
  ``writeable=False`` — after which any in-place mutation on the read
  path raises at the write site;
* the hammer fans a mixed workload (explanation searches, batched bias
  queries, replay geometry) across a thread pool against one frozen
  session and asserts every answer is identical to the serial run.

The mining variants run ``engine="mining"``, whose every query reads and
inserts into the alphabet's one shared extent-identity store — the only
cross-query state a read may still add to, since an insert writes the
value any query would compute.

The cold-session variant (no ``warm()``) is the harder contract: every
lazy build — per-sample gradients, the Hessian factorization, the
rank-one Hessian factors, packed tidlists, the pair skeleton, the extent
caches, the ``context_for`` memo — races under the hammer, and each is a
``repro.obs.Lazy`` slot behind a double-checked lock, so the pool builds
each exactly once and every answer matches the serial run bit for bit.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.core import AuditSession
from repro.core.delta import replay_geometry
from repro.datasets import DataEdit
from repro.utils.freeze import Freezer, freeze_session

SEARCH = dict(max_predicates=2, support_threshold=0.05)
MINING = dict(max_predicates=3, support_threshold=0.05, engine="mining")
METRICS = ["statistical_parity", "equal_opportunity"]


@pytest.fixture(scope="module")
def frozen_session(lr_model, german_train, german_test):
    session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
    session.warm(skeleton=True)
    freeze_session(session)
    return session


@pytest.fixture()
def frozen_mining_session(lr_model, german_train, german_test):
    """Builds warmed, frozen mining sessions; their searches share the
    alphabet's extent-identity store."""

    def build() -> AuditSession:
        session = AuditSession(lr_model, **MINING).fit(german_train, german_test)
        session.warm(skeleton=True)
        freeze_session(session)
        return session

    return build


def _subset_masks(session: AuditSession) -> np.ndarray:
    rng = np.random.default_rng(7)
    return rng.random((12, session.X_train.shape[0])) < 0.08


def _explain_key(session: AuditSession, metric: str):
    explanations = session.explainer(metric=metric).explain(k=2, verify=False)
    return [(str(e.pattern), e.est_bias_change, e.est_responsibility) for e in explanations]


def _bias_batch(session: AuditSession, metric: str, masks: np.ndarray):
    estimator = session.estimator_for(metric=metric).warm()
    return estimator.bias_change_batch(masks)


def _geometry_key(session: AuditSession):
    cfg = session.config
    alphabet = session.alphabet_cache.get(
        cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
    )
    geometry = replay_geometry(alphabet, cfg.support_threshold)
    return geometry.pairs, geometry.sizes2, geometry.supports2


def _mixed_tasks(session: AuditSession):
    masks = _subset_masks(session)
    tasks = []
    for _ in range(2):  # two rounds so identical queries overlap in flight
        for metric in METRICS:
            tasks.append(lambda m=metric: _explain_key(session, m))
            tasks.append(lambda m=metric: _bias_batch(session, m, masks))
        tasks.append(lambda: _geometry_key(session))
    return tasks


def _assert_same(serial, hammered):
    assert len(serial) == len(hammered)
    for expected, got in zip(serial, hammered):
        if isinstance(expected, tuple):
            for e, g in zip(expected, got):
                np.testing.assert_array_equal(e, g)
        elif isinstance(expected, np.ndarray):
            np.testing.assert_array_equal(expected, got)
        else:
            assert expected == got


def _slot_arrays(session: AuditSession) -> list[tuple[str, np.ndarray]]:
    """(what, array) for every array the built caches of a warmed session
    hold: artifacts, the configured alphabet and its views, the context."""
    artifacts = session.artifacts
    solver = artifacts.solver(0.0)
    phi, weights, _ = artifacts.hessian_factors()
    held = [
        ("gradients", artifacts.per_sample_grads),
        ("hessian", artifacts.hessian),
        ("rank-one vectors", phi),
        ("rank-one weights", weights),
    ]
    if solver._factor is not None:
        held.append(("solver factor", solver._factor))
    else:
        held += [("solver eigenbasis", array) for array in solver._eig]
    cfg = session.config
    alphabet = session.alphabet_cache.get(
        cfg.support_threshold, cfg.num_bins, cfg.exclude_features or None
    )
    held += [(f"mask of {predicate}", mask) for predicate, mask in alphabet.entries]
    held.append(("miner tidlists", alphabet.miner_items()[1]))
    held += [("skeleton", array) for array in alphabet.pair_skeleton()]
    held.append(("identity hvals", alphabet.extent_identities().hvals))
    held += [
        (f"context {name}", value)
        for name, value in vars(session.context_for()).items()
        if isinstance(value, np.ndarray)
    ]
    return held


def _hammer(session: AuditSession):
    tasks = _mixed_tasks(session)
    serial = [task() for task in tasks]
    with ThreadPoolExecutor(max_workers=8) as pool:
        hammered = [f.result() for f in [pool.submit(task) for task in tasks]]
    _assert_same(serial, hammered)


class TestFreezer:
    def test_frozen_session_blocks_inplace_writes(self, frozen_session):
        with pytest.raises(ValueError, match="read-only"):
            frozen_session.artifacts.per_sample_grads[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            frozen_session.X_test[0, 0] = 1.0

    def test_every_array_of_a_built_slot_is_frozen(self, lr_model, german_train, german_test):
        """On a warmed session, and again after a row-changing edit (when
        the solver serves from an eigenbasis), freeze_session reaches
        every array a built cache holds."""
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        session.warm(skeleton=True)
        freezer = freeze_session(session)
        for what, array in _slot_arrays(session):
            assert not array.flags.writeable, what
        freezer.thaw()
        session.apply_edit(DataEdit.remove(range(8)))
        session.warm(skeleton=True)
        freeze_session(session)
        assert session.artifacts.solver(0.0)._factor is None
        for what, array in _slot_arrays(session):
            assert not array.flags.writeable, what

    def test_thaw_restores_writeable(self):
        arrays = {"a": np.zeros(3), "b": (np.ones(2), "not-an-array")}
        freezer = Freezer().freeze(arrays)
        assert not arrays["a"].flags.writeable
        assert not arrays["b"][0].flags.writeable
        freezer.thaw()
        assert arrays["a"].flags.writeable
        arrays["a"][0] = 5.0

    def test_freeze_is_idempotent_across_freezers(self):
        arr = np.zeros(4)
        first = Freezer().freeze(arr)
        second = Freezer().freeze(arr)  # already frozen: records nothing
        second.thaw()
        assert not arr.flags.writeable  # still held frozen by `first`
        first.thaw()
        assert arr.flags.writeable


class TestHammer:
    def test_warm_frozen_session_serves_concurrent_queries(self, frozen_session):
        _hammer(frozen_session)

    def test_queries_on_frozen_session_build_nothing(self, frozen_session):
        before = dict(frozen_session.stats)
        _explain_key(frozen_session, METRICS[0])
        _bias_batch(frozen_session, METRICS[1], _subset_masks(frozen_session))
        after = frozen_session.stats
        for counter, value in before.items():
            if counter.endswith("builds") or "factoriz" in counter:
                assert after[counter] == value, f"{counter} built during a read"

    def test_mining_store_hammer(self, frozen_mining_session):
        """Eight threads insert into one empty identity store, then read a
        full one; both rounds return the serial session's answers."""
        serial = [task() for task in _mixed_tasks(frozen_mining_session())]
        session = frozen_mining_session()
        with ThreadPoolExecutor(max_workers=8) as pool:
            racing = [f.result() for f in [pool.submit(t) for t in _mixed_tasks(session)]]
        _assert_same(serial, racing)
        assert session.stats["mining.identity_misses"] > 0
        _hammer(session)
        assert session.stats["mining.identity_hits"] > 0

    def test_mining_queries_build_nothing(self, frozen_mining_session):
        session = frozen_mining_session()
        before = dict(session.stats)
        _explain_key(session, METRICS[0])
        _bias_batch(session, METRICS[1], _subset_masks(session))
        after = session.stats
        assert after["mining.identity_misses"] > before["mining.identity_misses"]
        # projection_builds counts each search's own conditional databases,
        # transient per-query work rather than a shared cache.
        assert after["mining.projection_builds"] > before["mining.projection_builds"]
        for counter, value in before.items():
            if counter == "mining.projection_builds":
                continue
            if counter.endswith("builds") or "factoriz" in counter:
                assert after[counter] == value, f"{counter} built during a read"

    def test_cold_frozen_session_hammer(self, lr_model, german_train, german_test):
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        freeze_session(session)  # frozen immediately: every build still pending
        _hammer(session)
