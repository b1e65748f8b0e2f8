"""Tests for repro.obs.metrics: registry semantics and the StatsView bridge."""

from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.obs import MetricsRegistry, StatsView


class TestCounters:
    def test_register_is_idempotent(self):
        reg = MetricsRegistry()
        reg.register_counter("influence.builds", 3)
        reg.register_counter("influence.builds", 99)
        assert reg.get("influence.builds") == 3

    def test_inc_auto_creates_at_zero(self):
        reg = MetricsRegistry()
        assert reg.inc("hits") == 1
        assert reg.inc("hits", 4) == 5
        assert reg.get("hits") == 5

    def test_get_without_default_raises(self):
        reg = MetricsRegistry()
        with pytest.raises(KeyError):
            reg.get("missing")
        assert reg.get("missing", 7) == 7

    def test_set_counter_overwrites(self):
        reg = MetricsRegistry()
        reg.inc("n", 3)
        reg.set_counter("n", 10)
        assert reg.get("n") == 10


class TestSnapshotDiff:
    def test_snapshot_is_a_copy(self):
        reg = MetricsRegistry()
        reg.inc("a")
        snap = reg.snapshot()
        reg.inc("a")
        assert snap["counters"]["a"] == 1
        assert reg.get("a") == 2

    def test_snapshot_holds_only_counters(self):
        """Counters are the registry's one metric kind; a view's counters
        appear under their namespaced names."""
        reg = MetricsRegistry()
        view = StatsView({"builds": 0}, registry=reg, namespace="influence")
        view.inc("builds")
        reg.inc("hits", 3)
        assert reg.snapshot() == {"counters": {"influence.builds": 1, "hits": 3}}


class TestConcurrency:
    def test_concurrent_increments_are_exact(self):
        """No lost updates: N threads x M bumps lands on exactly N*M."""
        reg = MetricsRegistry()
        workers, bumps = 8, 2000

        def hammer(_: int) -> None:
            for _ in range(bumps):
                reg.inc("shared.counter")

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        assert reg.get("shared.counter") == workers * bumps

    def test_concurrent_statsview_inc_is_exact(self):
        reg = MetricsRegistry()
        view = StatsView({"fallback_factors": 0}, registry=reg, namespace="exact_batch")
        workers, bumps = 8, 1000

        def hammer(_: int) -> None:
            for _ in range(bumps):
                view.inc("fallback_factors")

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(hammer, range(workers)))
        assert view["fallback_factors"] == workers * bumps
        assert reg.get("exact_batch.fallback_factors") == workers * bumps


class TestStatsView:
    def test_namespaced_registration_and_short_keys(self):
        reg = MetricsRegistry()
        view = StatsView({"builds": 0, "hits": 2}, registry=reg, namespace="mining")
        assert dict(view) == {"builds": 0, "hits": 2}
        assert reg.get("mining.builds") == 0
        assert reg.get("mining.hits") == 2

    def test_inc_and_setitem_roundtrip(self):
        view = StatsView({"builds": 0})
        view.inc("builds")
        view["builds"] += 1  # the legacy dict idiom still works
        assert view["builds"] == 2

    def test_setitem_registers_new_key(self):
        view = StatsView(namespace="ns")
        view["fresh"] = 5
        assert view["fresh"] == 5
        assert view.registry.get("ns.fresh") == 5

    def test_getitem_unknown_key_raises(self):
        view = StatsView({"a": 0})
        with pytest.raises(KeyError):
            view["b"]

    def test_delete_is_forbidden(self):
        view = StatsView({"a": 0})
        with pytest.raises(TypeError):
            del view["a"]

    def test_mapping_protocol(self):
        view = StatsView({"a": 1, "b": 2})
        assert len(view) == 2
        assert sorted(view) == ["a", "b"]
        assert "a" in view and "z" not in view
        assert sorted(view.items()) == [("a", 1), ("b", 2)]

    def test_default_registry_when_none_given(self):
        view = StatsView({"a": 0})
        assert isinstance(view.registry, MetricsRegistry)
        assert view.namespace == ""
        view.inc("a")
        assert view.registry.get("a") == 1

    def test_two_views_can_share_one_registry(self):
        reg = MetricsRegistry()
        a = StatsView({"x": 0}, registry=reg, namespace="one")
        b = StatsView({"x": 0}, registry=reg, namespace="two")
        a.inc("x")
        assert a["x"] == 1
        assert b["x"] == 0
