"""Tests for repro.obs.trace: span trees, exports, and the null path."""

import json

import pytest

from repro.obs import trace
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer


@pytest.fixture(autouse=True)
def _restore_tracer():
    yield
    trace.disable()


class TestSpanTree:
    def test_nesting_builds_a_tree(self):
        tracer = Tracer()
        with tracer.span("audit.query") as q:
            with tracer.span("explain.search"):
                with tracer.span("lattice.level", level=1):
                    pass
            with tracer.span("explain.filter"):
                pass
        assert len(tracer.roots) == 1
        root = tracer.roots[0]
        assert root is q
        assert [c.name for c in root.children] == ["explain.search", "explain.filter"]
        assert root.children[0].children[0].attrs["level"] == 1

    def test_monotonic_ordering_and_windows(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        a, b = tracer.roots[0], tracer.roots[0].children[0]
        assert b.index > a.index
        assert a.start <= b.start and b.end <= a.end
        assert a.seconds >= b.seconds

    def test_self_seconds_excludes_children(self):
        tracer = Tracer()
        with tracer.span("parent"):
            with tracer.span("child"):
                pass
        parent = tracer.roots[0]
        child = parent.children[0]
        assert parent.self_seconds == pytest.approx(parent.seconds - child.seconds)

    def test_set_and_add_attributes(self):
        tracer = Tracer()
        with tracer.span("s", metric="spd") as s:
            s.set(group="age<30")
            s.add("gemm_flops", 100.0)
            s.add("gemm_flops", 50.0)
        assert s.attrs == {"metric": "spd", "group": "age<30", "gemm_flops": 150.0}

    def test_tracer_add_targets_innermost_open_span(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                tracer.add("cache_hits")
                tracer.add("cache_hits", 2)
        outer = tracer.roots[0]
        assert "cache_hits" not in outer.attrs
        assert outer.children[0].attrs["cache_hits"] == 3

    def test_add_without_open_span_is_a_noop(self):
        tracer = Tracer()
        tracer.add("cache_hits")
        assert tracer.roots == []

    def test_exception_unwinds_and_closes_spans(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("outer"):
                with tracer.span("inner"):
                    raise RuntimeError("boom")
        assert len(tracer.roots) == 1
        for span in tracer.walk():
            assert span.end >= span.start

    def test_span_count_walk(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        with tracer.span("c"):
            pass
        assert tracer.span_count() == 3
        assert [s.name for s in tracer.walk()] == ["a", "b", "c"]


class TestExports:
    def _sample(self) -> Tracer:
        tracer = Tracer()
        with tracer.span("audit.query", metric="spd") as q:
            q.add("gemm_flops", 1000.0)
            with tracer.span("influence.batch"):
                pass
        return tracer

    def test_to_dict_structure(self):
        doc = self._sample().to_dict()
        assert doc["schema_version"] == 1
        assert doc["span_count"] == 2
        (root,) = doc["spans"]
        assert root["name"] == "audit.query"
        assert root["attrs"]["gemm_flops"] == 1000.0
        (child,) = root["children"]
        assert child["name"] == "influence.batch"
        assert child["start"] >= root["start"]
        assert child["duration"] <= root["duration"]

    def test_chrome_trace_complete_events(self):
        doc = self._sample().to_chrome_trace()
        events = doc["traceEvents"]
        assert len(events) == 2
        for event in events:
            assert event["ph"] == "X"
            assert event["ts"] >= 0 and event["dur"] >= 0
            assert event["pid"] == 1 and event["tid"] == 1
        by_name = {e["name"]: e for e in events}
        assert by_name["audit.query"]["cat"] == "audit"
        assert by_name["influence.batch"]["cat"] == "influence"
        assert by_name["audit.query"]["args"]["metric"] == "spd"

    def test_export_merges_both_forms_and_is_json(self):
        tracer = self._sample()
        doc = tracer.export()
        assert "traceEvents" in doc and "spans" in doc
        assert doc["schema_version"] == 1
        parsed = json.loads(tracer.to_json())
        assert parsed["span_count"] == 2

    def test_non_jsonable_args_dropped_from_chrome_events(self):
        tracer = Tracer()
        with tracer.span("s", shape=(3, 4), label="ok"):
            pass
        (event,) = tracer.to_chrome_trace()["traceEvents"]
        assert event["args"] == {"label": "ok"}

    def test_render_tree_shows_names_times_attrs(self):
        text = self._sample().render_tree()
        assert "audit.query" in text
        assert "influence.batch" in text
        assert "ms" in text and "%" in text
        assert "metric=spd" in text

    def test_render_tree_max_depth(self):
        text = self._sample().render_tree(max_depth=0)
        assert "audit.query" in text
        assert "influence.batch" not in text


def assert_timing_only(span) -> None:
    """A disabled span has closed with a duration and recorded nothing else."""
    assert not isinstance(span, Span)
    assert not hasattr(span, "attrs")  # no attributes, set or added
    assert not hasattr(span, "children")  # no tree to join
    assert span.seconds >= 0.0


class TestModuleHelpers:
    def test_disabled_by_default_routes_to_null(self):
        assert isinstance(trace.get_tracer(), NullTracer)
        with trace.span("anything", k=1) as s:
            trace.add("cache_hits")
            assert trace.get_tracer().current() is None
        assert_timing_only(s)

    def test_enable_disable_roundtrip(self):
        tracer = trace.enable()
        assert trace.get_tracer() is tracer
        with trace.span("s"):
            trace.add("cache_hits")
        assert tracer.roots[0].attrs["cache_hits"] == 1
        trace.disable()
        assert trace.get_tracer() is NULL_TRACER

    def test_tracing_context_manager_restores_previous(self):
        outer = trace.enable()
        with trace.tracing() as inner:
            assert trace.get_tracer() is inner
            with trace.span("s"):
                pass
        assert trace.get_tracer() is outer
        assert inner.span_count() == 1
        assert outer.span_count() == 0

    def test_tracing_restores_on_exception(self):
        with pytest.raises(ValueError):
            with trace.tracing():
                raise ValueError("boom")
        assert trace.get_tracer() is NULL_TRACER


class TestNullPath:
    def test_null_spans_are_fresh_and_chainable(self):
        outer = NULL_TRACER.span("x", k=1)
        with outer:
            with NULL_TRACER.span("y") as inner:
                assert inner.set(a=1) is inner
                assert inner.add("gemm_flops", 5) is inner
        assert inner is not outer
        assert outer.start <= inner.start <= inner.end <= outer.end
        assert_timing_only(outer)
        assert_timing_only(inner)

    def test_null_span_reads_the_module_clock_at_call_time(self, monkeypatch):
        readings = iter([10.0, 12.5])
        monkeypatch.setattr(trace, "clock", lambda: next(readings))
        with NULL_TRACER.span("x") as s:
            assert s.seconds == 0.0  # reads 0 until it closes
        assert s.seconds == 2.5

    def test_null_tracer_flags(self):
        assert NULL_TRACER.enabled is False
        assert Tracer.enabled is True
        assert NULL_TRACER.current() is None
        assert NULL_TRACER.add("k") is None


class TestThreads:
    def test_spans_get_per_thread_ids_and_separate_roots(self):
        from concurrent.futures import ThreadPoolExecutor

        tracer = Tracer()

        def work(i: int) -> None:
            with tracer.span("worker", i=i):
                pass

        with ThreadPoolExecutor(max_workers=4) as pool:
            list(pool.map(work, range(8)))
        assert len(tracer.roots) == 8
        tids = {span.tid for span in tracer.walk()}
        assert all(tid >= 1 for tid in tids)
        indices = sorted(span.index for span in tracer.walk())
        assert indices == list(range(8))
