"""Every entry point of the ``exact`` variant against the dense per-subset oracle.

The acceptance contract of the exact second-order path: for every
built-in model × fairness metric × damping ∈ {0, 1e-3}, the scalar query
and the mask, packed uint8 and index-streamed batches — all answered by
one LAPACK kernel (a ``dsyrk`` downdate of ``n·H`` by each subset's
curvature rows, then one ``dposv``) — must reproduce the dense
step of :mod:`oracles.exact_loop` (``model.hessian(X_S)``,
``n·H − m·H_S``, a fresh ``HessianSolver``) to 1e-8.  The batches include
the edge cases: an empty subset, singletons, a subset duplicated within
the batch, near-full subsets and subsets on either side of |S| = p.
"""

from __future__ import annotations

import numpy as np
import pytest
from oracles.exact_loop import ExactLoopEstimator

from repro.fairness import FairnessContext, get_metric, list_metrics
from repro.influence import make_estimator
from repro.influence.hessian import HessianSolver
from repro.models import LinearSVM, LogisticRegression, NeuralNetwork
from repro.obs import trace
from repro.obs.trace import Tracer

ATOL = 1e-8

MODEL_BUILDERS = {
    "logistic_regression": lambda: LogisticRegression(l2_reg=1e-3),
    "linear_svm": lambda: LinearSVM(l2_reg=1e-2),
    "neural_network": lambda: NeuralNetwork(hidden_units=3, l2_reg=1e-3, seed=0, max_iter=150),
}
DAMPINGS = [0.0, 1e-3]


@pytest.fixture(scope="module")
def exact_data():
    """Small synthetic problem with a protected attribute and clear signal.

    Sized so that |S| >= p is reachable by modest subsets for every model
    (p = 6 for the linear models, 22 for the 3-unit network).
    """
    rng = np.random.default_rng(42)
    n = 210
    X = rng.normal(size=(n, 5))
    protected = rng.random(n) < 0.45
    X[:, 0] += 0.8 * protected
    logits = 1.3 * X[:, 0] - 0.9 * X[:, 1] + 0.5 * X[:, 2] - 0.6 * protected
    y = (logits + rng.normal(scale=0.8, size=n) > 0).astype(np.int64)
    train, test = np.arange(150), np.arange(150, n)
    ctx = FairnessContext(
        X=X[test], y=y[test], privileged=~protected[test], favorable_label=1
    )
    return X[train], y[train], ctx


@pytest.fixture(scope="module")
def fitted_models(exact_data):
    X_train, y_train, _ = exact_data
    return {name: build().fit(X_train, y_train) for name, build in MODEL_BUILDERS.items()}


@pytest.fixture(scope="module")
def get_exact(exact_data, fitted_models):
    """Cached factory over (model, metric, damping) exact estimators."""
    X_train, y_train, ctx = exact_data
    cache: dict[tuple, object] = {}

    def build(model_name: str, metric_name: str, damping: float):
        key = (model_name, metric_name, damping)
        if key not in cache:
            cache[key] = make_estimator(
                "exact",
                fitted_models[model_name],
                X_train,
                y_train,
                get_metric(metric_name),
                ctx,
                evaluation="smooth",
                damping=damping,
            )
        return cache[key]

    return build


def edge_subsets(num_train: int, p: int) -> list[np.ndarray]:
    """Empty / singleton / duplicated / near-full / either side of |S| = p."""
    rng = np.random.default_rng(3)
    pick = lambda size: np.sort(rng.choice(num_train, size=size, replace=False))
    duplicated = pick(7)
    subsets = [
        np.array([], dtype=np.int64),  # empty
        np.array([int(rng.integers(num_train))]),  # singleton
        duplicated,
        duplicated.copy(),  # the same subset twice in one batch
        np.arange(num_train - 1),  # near-full: the widest padded gather
        pick(min(max(p - 1, 1), num_train - 2)),  # just below |S| = p
        pick(min(p, num_train - 2)),  # exactly p
        pick(min(p + 3, num_train - 2)),  # just above
    ]
    subsets += [pick(int(s)) for s in rng.integers(2, num_train // 3, size=6)]
    return subsets


def _mask_matrix(subsets, n):
    masks = np.zeros((len(subsets), n), dtype=bool)
    for j, idx in enumerate(subsets):
        masks[j, idx] = True
    return masks


def _kernel_spans(tracer):
    return [span for span in tracer.walk() if span.name == "hessian.reduced_solve"]


@pytest.mark.parametrize("model_name", sorted(MODEL_BUILDERS))
@pytest.mark.parametrize("metric_name", list_metrics())
@pytest.mark.parametrize("damping", DAMPINGS, ids=["d0", "d1e-3"])
class TestKernelMatchesDenseOracle:
    def test_param_change(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        oracle = ExactLoopEstimator(est).param_change_batch(subsets)
        scalar = np.stack([est.param_change(s) for s in subsets])
        np.testing.assert_allclose(scalar, oracle, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(est.param_change_batch(subsets), oracle, atol=ATOL, rtol=0.0)

    def test_bias_change(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        oracle = ExactLoopEstimator(est).bias_change_batch(subsets)
        scalar = np.array([est.bias_change(s) for s in subsets])
        np.testing.assert_allclose(scalar, oracle, atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(est.bias_change_batch(subsets), oracle, atol=ATOL, rtol=0.0)

    def test_packed_input_matches_dense(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        masks = _mask_matrix(subsets, est.num_train)
        packed = np.packbits(masks, axis=1)
        oracle = ExactLoopEstimator(est)
        bias = est.bias_change_batch(packed, num_rows=est.num_train)
        np.testing.assert_allclose(bias, oracle.bias_change_batch(subsets), atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(bias, est.bias_change_batch(masks), atol=1e-12, rtol=0.0)
        deltas = est.param_change_batch(packed, num_rows=est.num_train)
        np.testing.assert_allclose(deltas, oracle.param_change_batch(subsets), atol=ATOL, rtol=0.0)
        np.testing.assert_allclose(deltas, est.param_change_batch(masks), atol=1e-12, rtol=0.0)

    def test_index_input(self, model_name, metric_name, damping, get_exact):
        est = get_exact(model_name, metric_name, damping)
        subsets = edge_subsets(est.num_train, est.model.num_params)
        oracle = ExactLoopEstimator(est)
        np.testing.assert_allclose(
            est.bias_change_batch(subsets, num_rows=est.num_train),
            oracle.bias_change_batch(subsets),
            atol=ATOL,
            rtol=0.0,
        )
        np.testing.assert_allclose(
            est.param_change_batch(subsets, num_rows=est.num_train),
            oracle.param_change_batch(subsets),
            atol=ATOL,
            rtol=0.0,
        )


class TestKernelSpan:
    def test_one_span_solves_every_subset(self, exact_data, fitted_models, monkeypatch):
        """No |S| crossover: small and wide subsets alike are solved in the
        batch's one kernel span, with the FLOPs of the work it did, and no
        per-subset solver is constructed."""
        X_train, y_train, ctx = exact_data
        est = make_estimator(
            "exact", fitted_models["linear_svm"], X_train, y_train,
            get_metric("statistical_parity"), ctx, evaluation="smooth",
        )
        p = est.model.num_params
        subsets = [np.arange(3), np.arange(p - 1), np.arange(p), np.arange(p + 10)]
        constructed = []
        original_init = HessianSolver.__init__

        def counting_init(self, *args, **kwargs):
            constructed.append(self)
            original_init(self, *args, **kwargs)

        monkeypatch.setattr(HessianSolver, "__init__", counting_init)
        with trace.tracing(Tracer()) as tracer:
            est.param_change_batch(subsets)
        (span,) = _kernel_spans(tracer)
        assert span.attrs["subsets"] == len(subsets)
        assert span.attrs["escalated"] == 0
        # dsyrk Grams over the curvature rows (w_i ≠ 0; the SVM's inactive
        # margins have w_i = 0); the gradient sums are the batch's GEMM.
        weights = est.artifacts.hessian_factors()[1]
        ranks = [int(np.count_nonzero(weights[s])) for s in subsets]
        sizes = [s.size for s in subsets]
        assert sum(ranks) < sum(sizes)
        assert span.attrs["gemm_flops"] == sum(ranks) * p * (p + 1)
        assert span.attrs["solve_flops"] == pytest.approx(len(subsets) * (p**3 / 3 + 2 * p * p))
        assert constructed == []

    @pytest.mark.parametrize("entry", ["masks", "packed", "indices"])
    def test_gemm_flops_count_the_executed_work_once(self, exact_data, fitted_models, entry):
        """One exact batch, three entry points: the ``gemm_flops`` of its
        ``influence.gemm`` and ``hessian.reduced_solve`` spans add up to the
        work done, each part counted once.  Masks and packed rows form
        every g_S in one GEMM (2·m·n·p, empty subsets included); index
        arrays gather and sum each subset's rows (2·p·Σ|S|, on the kernel
        span); every subset's downdate costs r·p·(p+1) for its r rows of
        w_i ≠ 0."""
        X_train, y_train, ctx = exact_data
        est = make_estimator(
            "exact", fitted_models["linear_svm"], X_train, y_train,
            get_metric("statistical_parity"), ctx, evaluation="smooth",
        )
        n, p = est.num_train, est.model.num_params
        subsets = edge_subsets(n, p)
        masks = _mask_matrix(subsets, n)
        batch, num_rows = {
            "masks": (masks, None),
            "packed": (np.packbits(masks, axis=1), n),
            "indices": (subsets, n),
        }[entry]
        with trace.tracing(Tracer()) as tracer:
            est.param_change_batch(batch, num_rows=num_rows)
        weights = est.artifacts.hessian_factors()[1]
        downdates = sum(np.count_nonzero(weights[s]) for s in subsets) * p * (p + 1)
        if entry == "indices":
            sums, gemms = 2.0 * p * sum(s.size for s in subsets), 0
        else:
            sums, gemms = 2.0 * len(subsets) * n * p, 1
        spans = [s for s in tracer.walk() if s.name in ("influence.gemm", "hessian.reduced_solve")]
        assert [s.name for s in spans].count("influence.gemm") == gemms
        assert sum(s.attrs["gemm_flops"] for s in spans) == sums + downdates

    def test_empty_subsets_never_reach_the_kernel(self, get_exact):
        est = get_exact("logistic_regression", "statistical_parity", 0.0)
        with trace.tracing(Tracer()) as tracer:
            deltas = est.param_change_batch([np.array([], dtype=np.int64), np.arange(5)])
        assert np.all(deltas[0] == 0.0)
        (span,) = _kernel_spans(tracer)
        assert span.attrs["subsets"] == 1

    def test_fd_hessian_runs_dense_matrices_through_the_kernel(self, exact_data):
        """Without rank-one factors each reduced matrix is built from
        ``model.hessian(X_S)`` and factorized by the same kernel, with no
        ``dsyrk`` work on the span (the batch's g_S are its GEMM)."""
        X_train, y_train, ctx = exact_data
        model = NeuralNetwork(
            hidden_units=2, l2_reg=1e-3, seed=0, max_iter=60, hessian_mode="exact_fd"
        ).fit(X_train, y_train)
        est = make_estimator(
            "exact", model, X_train, y_train,
            get_metric("statistical_parity"), ctx, evaluation="smooth",
        )
        subsets = [np.arange(4), np.arange(9)]
        oracle = ExactLoopEstimator(est).param_change_batch(subsets)
        with trace.tracing(Tracer()) as tracer:
            batch = est.param_change_batch(subsets)
        np.testing.assert_allclose(batch, oracle, atol=ATOL, rtol=0.0)
        scalar = np.stack([est.param_change(s) for s in subsets])
        np.testing.assert_allclose(scalar, oracle, atol=ATOL, rtol=0.0)
        (span,) = _kernel_spans(tracer)
        assert span.attrs["subsets"] == len(subsets)
        assert span.attrs["gemm_flops"] == 0.0


class TestExactAlias:
    def test_exact_alias_builds_exact_variant(self, get_exact):
        est = get_exact("logistic_regression", "statistical_parity", 0.0)
        assert type(est).__name__ == "SecondOrderInfluence"
        assert est.variant == "exact"

    def test_series_alias(self, exact_data, fitted_models):
        X_train, y_train, ctx = exact_data
        est = make_estimator(
            "series", fitted_models["logistic_regression"], X_train, y_train,
            get_metric("statistical_parity"), ctx,
        )
        assert est.variant == "series"

    def test_conflicting_variant_rejected(self, exact_data, fitted_models):
        X_train, y_train, ctx = exact_data
        with pytest.raises(ValueError, match="fixes variant"):
            make_estimator(
                "exact", fitted_models["logistic_regression"], X_train, y_train,
                get_metric("statistical_parity"), ctx, variant="series",
            )
