"""Tests for repro.obs.cost: FLOP models and CostReport aggregation."""

import numpy as np
import pytest

from repro.mining.bitset import pack_rows
from repro.obs import CostReport, Tracer, gemm_flops, solve_flops, trace


def test_flop_models():
    assert gemm_flops(10, 20, 30) == 2.0 * 10 * 20 * 30
    assert solve_flops(50, 3) == 2.0 * 50 * 50 * 3


def _query_span():
    tracer = Tracer()
    with tracer.span("audit.query", metric="spd") as q:
        with tracer.span("influence.batch") as batch:
            batch.add("gemm_flops", gemm_flops(100, 50, 25))
            batch.add("evaluations", 40)
            with tracer.span("hessian.solve") as solve:
                solve.add("solve_flops", solve_flops(50, 25))
        with tracer.span("artifacts.grads") as grads:
            grads.add("cache_hits", 7)
            grads.add("cache_misses", 1)
    return q


class TestFromSpan:
    def test_totals_summed_over_subtree(self):
        report = CostReport.from_span(_query_span())
        assert report.name == "audit.query"
        assert report.gemm_flops == gemm_flops(100, 50, 25)
        assert report.solve_flops == solve_flops(50, 25)
        assert report.total_flops == report.gemm_flops + report.solve_flops
        assert report.influence_evaluations == 40
        assert report.cache_hits == 7
        assert report.cache_misses == 1
        assert report.cache_hit_ratio == pytest.approx(7 / 8)
        assert report.wall_seconds > 0

    def test_lines_aggregate_per_name_sorted_by_self_time(self):
        report = CostReport.from_span(_query_span())
        names = {line.name for line in report.lines}
        assert names == {"audit.query", "influence.batch", "hessian.solve", "artifacts.grads"}
        self_times = [line.self_seconds for line in report.lines]
        assert self_times == sorted(self_times, reverse=True)
        for line in report.lines:
            assert line.count == 1
            assert line.self_seconds <= line.total_seconds

    def test_fit_objective_calls_are_not_influence_evaluations(self):
        tracer = Tracer()
        with tracer.span("update.verify") as verify:
            with tracer.span("model.fit", params=5) as fit:
                fit.set(evaluations=37, iterations=30, status=0)
            with tracer.span("influence.batch") as batch:
                batch.add("evaluations", 4)
        report = CostReport.from_span(verify)
        assert report.influence_evaluations == 4
        assert {line.name for line in report.lines} >= {"model.fit", "influence.batch"}

    def test_repeated_span_names_fold_into_one_line(self):
        tracer = Tracer()
        with tracer.span("q") as q:
            for level in (1, 2, 3):
                with tracer.span("lattice.level", level=level):
                    pass
        report = CostReport.from_span(q)
        (line,) = [row for row in report.lines if row.name == "lattice.level"]
        assert line.count == 3

    def test_leaf_fraction_all_leaf_time_counted(self):
        report = CostReport.from_span(_query_span())
        assert 0.0 < report.leaf_fraction <= 1.0

    def test_bool_attrs_do_not_pollute_totals(self):
        tracer = Tracer()
        with tracer.span("q") as q:
            q.set(cache_hits=True)  # a flag, not a count
        report = CostReport.from_span(q)
        assert report.cache_hits == 0

    def test_empty_span_zero_division_safe(self):
        report = CostReport()
        assert report.cache_hit_ratio == 0.0
        assert report.leaf_fraction == 0.0
        assert report.total_flops == 0.0


class TestCacheHitFlopHonesty:
    """Attributed FLOPs must equal executed work: a hit on the Δθ extent
    cache serves stored rows and may not re-record an ``influence.gemm``
    span, and a partial hit records a span sized to the miss rows only."""

    #: Any estimator spec; the kernel below is the g_S GEMM alone.
    SPEC = ("gemm_only",)

    @pytest.fixture()
    def artifacts(self, lr_model, X_train, german_train):
        from repro.influence import ModelArtifacts

        return ModelArtifacts(
            lr_model, X_train, german_train.labels
        ).enable_extent_caching()

    def param_changes(self, artifacts, masks):
        return artifacts.cached_param_changes(self.SPEC, masks, artifacts.gradient_sums)

    def test_cache_hit_does_not_re_record_gemm_flops(self, artifacts, X_train):
        rng = np.random.default_rng(5)
        n = X_train.shape[0]
        masks = pack_rows(rng.random((6, n)) < 0.1)
        p = artifacts.per_sample_grads.shape[1]
        tracer = Tracer()
        with trace.tracing(tracer):
            with trace.span("audit.query") as cold:
                self.param_changes(artifacts, masks)
            with trace.span("audit.query") as warm:
                self.param_changes(artifacts, masks)
        cold_report = CostReport.from_span(cold)
        assert cold_report.gemm_flops == gemm_flops(6, n, p)
        assert artifacts.stats["param_change_cache_misses"] == 6
        warm_report = CostReport.from_span(warm)
        assert warm_report.gemm_flops == 0.0
        assert artifacts.stats["param_change_cache_hits"] == 6
        assert not any(s.name == "influence.gemm" for s in warm.walk())

    def test_partial_hit_attributes_only_computed_rows(self, artifacts, X_train):
        rng = np.random.default_rng(6)
        n = X_train.shape[0]
        seen = pack_rows(rng.random((4, n)) < 0.1)
        self.param_changes(artifacts, seen)
        p = artifacts.per_sample_grads.shape[1]
        mixed = np.vstack([seen[:2], pack_rows(rng.random((3, n)) < 0.1)])
        tracer = Tracer()
        with trace.tracing(tracer):
            with trace.span("audit.query") as q:
                self.param_changes(artifacts, mixed)
        report = CostReport.from_span(q)
        assert report.gemm_flops == gemm_flops(3, n, p)
        assert artifacts.stats["param_change_cache_hits"] == 2
        assert artifacts.stats["param_change_cache_misses"] == 4 + 3


class TestExports:
    def test_to_dict_round_trip(self):
        doc = CostReport.from_span(_query_span()).to_dict()
        assert doc["name"] == "audit.query"
        assert doc["gemm_flops"] > 0 and doc["solve_flops"] > 0
        assert doc["cache_hit_ratio"] == pytest.approx(7 / 8)
        assert {line["name"] for line in doc["lines"]} >= {"audit.query", "hessian.solve"}

    def test_render_header_and_table(self):
        text = CostReport.from_span(_query_span()).render()
        assert "audit.query" in text
        assert "FLOP" in text
        assert "40 influence evaluations" in text
        assert "cache 7 hit / 1 miss" in text
        assert "hessian.solve" in text
        assert "%" in text
