"""The lazy slot every shared cache builds through, and its miss reasons.

Unit tests pin the primitive: one build under a race, nothing stored when
a build raises, hits and misses on the caller's span, the build counter,
and the ``reason`` each build span carries.  The session tests read the
reasons off a traced session: every first build reads ``first use``, a
second damping or τ reads ``new key``, and what an edit drops names the
edit when it is rebuilt.
"""

import sys
import threading
import time
from collections import defaultdict

import pytest

from repro.core import AuditSession
from repro.datasets import DataEdit
from repro.obs import Lazy, StatsView, trace
from repro.obs.trace import Tracer

SEARCH = dict(max_predicates=2, support_threshold=0.05)
METRIC = "statistical_parity"


def _reasons(tracer: Tracer) -> dict[str, list[str]]:
    """Build-span reasons by span name, in the order the builds ran."""
    spans = sorted(
        (span for span in tracer.walk() if "reason" in span.attrs), key=lambda s: s.index
    )
    reasons = defaultdict(list)
    for span in spans:
        reasons[span.name].append(span.attrs["reason"])
    return reasons


class TestLazy:
    def test_racing_threads_build_a_cold_slot_once(self):
        stats = StatsView({"builds": 0})
        slot = Lazy("test.slot", stats, "builds")
        calls = []
        barrier = threading.Barrier(8)

        def build():
            calls.append(1)
            time.sleep(0.01)  # hold the build open while the others arrive
            return object()

        def read():
            barrier.wait()
            return slot.get(build)

        results = []
        threads = [threading.Thread(target=lambda: results.append(read())) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(calls) == 1
        assert stats["builds"] == 1
        assert len(results) == 8 and all(value is results[0] for value in results)

    def test_a_build_that_raises_stores_nothing_and_the_next_get_retries(self):
        stats = StatsView({"builds": 0})
        slot = Lazy("test.slot", stats, "builds")

        def fail():
            raise RuntimeError("build failed")

        with pytest.raises(RuntimeError, match="build failed"):
            slot.get(fail)
        assert slot.peek() is None
        assert stats["builds"] == 0
        assert slot.get(lambda: 7) == 7
        assert stats["builds"] == 1

    def test_hits_and_misses_land_on_the_callers_span(self):
        slot = Lazy("test.slot")
        tracer = Tracer()
        with trace.tracing(tracer):
            with trace.span("query") as query:
                for _ in range(3):
                    assert slot.get(lambda: 1) == 1
        assert query.attrs["cache_misses"] == 1
        assert query.attrs["cache_hits"] == 2
        (build,) = query.children
        assert build.name == "test.slot"
        assert "cache_hits" not in build.attrs

    def test_keys_build_separately_and_none_is_a_value(self):
        stats = StatsView({"builds": 0})
        slot = Lazy("test.slot", stats, "builds")
        assert slot.get(lambda: None) is None
        assert slot.get(lambda: "unused") is None  # a built None is a hit
        assert slot.get(lambda: 2, key=2.0) == 2
        assert stats["builds"] == 2
        assert slot.items() == [(None, None), (2.0, 2)]

    def test_reasons_first_use_new_key_and_drop(self):
        slot = Lazy("test.slot")
        tracer = Tracer()
        with trace.tracing(tracer):
            slot.get(lambda: 1, key="a")
            slot.get(lambda: 2, key="b")
            slot.drop("edit(remove 8)")
            assert slot.peek("a") is None and slot.items() == []
            slot.get(lambda: 3, key="a")
            slot.get(lambda: 4, key="b")
            slot.get(lambda: 5, key="c")
        assert _reasons(tracer)["test.slot"] == [
            "first use", "new key", "edit(remove 8)", "edit(remove 8)", "new key",
        ]

    def test_set_stores_without_building_or_tracing(self):
        stats = StatsView({"builds": 0})
        slot = Lazy("test.slot", stats, "builds")
        slot.get(lambda: 1)
        slot.drop("stale")
        tracer = Tracer()
        with trace.tracing(tracer):
            slot.set(2)
            assert slot.peek() == 2
            assert slot.get(lambda: 3) == 2
        assert stats["builds"] == 1
        assert tracer.span_count() == 0

    def test_a_drop_of_an_unbuilt_slot_leaves_first_use(self):
        slot = Lazy("test.slot")
        slot.drop("stale")
        tracer = Tracer()
        with trace.tracing(tracer):
            slot.get(lambda: 1)
        assert _reasons(tracer)["test.slot"] == ["first use"]


class TestSessionReasons:
    def test_first_builds_and_new_keys(self, lr_model, german_train, german_test):
        tracer = Tracer()
        with trace.tracing(tracer):
            session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
            session.warm(skeleton=True)
            session.audit(metrics=[METRIC], k=2)
            artifacts = session.artifacts
            artifacts.solver(0.0)
            artifacts.solver(0.1)
            artifacts.update_search_state()
            cache = session.alphabet_cache
            cache.get(0.05)
            cache.get(0.1)
            # warm() builds through an estimator of its own (once more when
            # the write-sanitizer's fit has warmed already).
            warmed = len(_reasons(tracer)["influence.grad_f"])
            for _ in range(2):
                session.estimator_for(metric=METRIC, estimator="first_order").warm()
        reasons = _reasons(tracer)
        assert set(reasons) == {
            "artifacts.per_sample_grads", "artifacts.hessian", "artifacts.solver",
            "artifacts.hessian_factors", "artifacts.curvature_rows",
            "artifacts.learning_rate", "update.context",
            "alphabet.get", "alphabet.pack_tidlists", "alphabet.pair_skeleton",
            "alphabet.extent_identities", "audit.context", "influence.grad_f",
            "influence.point_influences",
        }
        for name, seen in reasons.items():
            assert seen[0] == "first use", name
        assert reasons["artifacts.solver"] == ["first use", "new key"]
        assert reasons["alphabet.get"] == ["first use", "new key"]
        # Every estimator holds its own slots: each build is a first use.
        assert warmed >= 1
        assert reasons["influence.grad_f"] == ["first use"] * (warmed + 2)
        assert reasons["influence.point_influences"] == ["first use"] * 2

    def test_a_rebuild_after_an_edit_names_the_edit(
        self, lr_model, german_train, german_test
    ):
        tracer = Tracer()
        with trace.tracing(tracer):
            session = AuditSession(lr_model, estimator="one_step_gd", **SEARCH).fit(
                german_train, german_test
            )
            result = session.audit(metrics=[METRIC], k=2)
            session.explainer(metric=METRIC).explain_updates(
                result[0].explanations, verify=False, num_steps=5
            )
            delta = session.delta_audit(DataEdit.remove(range(8)), metrics=[METRIC], k=2)
            session.explainer(metric=METRIC).explain_updates(
                delta.after[0].explanations, verify=False, num_steps=5
            )
        reasons = _reasons(tracer)
        assert reasons["artifacts.learning_rate"] == ["first use", "edit(remove 8)"]
        assert reasons["update.context"] == ["first use", "edit(remove 8)"]
        # Patched in place by the edit, never rebuilt.
        assert reasons["artifacts.hessian"] == ["first use"]
        assert reasons["artifacts.per_sample_grads"] == ["first use"]

    def test_a_refused_replay_is_not_a_miss_reason(
        self, lr_model, german_train, german_test
    ):
        """``reason`` on a span is a cache miss's; a delta query's refusal
        rides its own attribute."""
        session = AuditSession(lr_model, **SEARCH).fit(german_train, german_test)
        session.audit(metrics=[METRIC], k=2)
        tracer = Tracer()
        with trace.tracing(tracer):
            delta = session.delta_audit(
                DataEdit.remove(range(8)), metrics=[METRIC], k=2, recheck="always"
            )
        assert "delta.query" not in _reasons(tracer)
        spans = [span for span in tracer.walk() if span.name == "delta.query"]
        assert len(spans) == len(delta.queries) > 0
        for query, span in zip(delta.queries, spans):
            assert query.reason == "recheck forced"
            assert span.attrs["refusal"] == query.reason
