"""``fit`` reproduces the two-closure L-BFGS-B fit bit for bit.

Every model's ``fit`` runs L-BFGS-B on one (loss, gradient) objective, and
the linear models sum the gradient in row blocks (``mean_rows``).  The
oracle in ``tests/oracles/fit_loop.py`` fits over the public ``loss`` and
``grad`` instead.  θ must equal the oracle's under ``np.array_equal``, in
as many evaluations: the influence equivalence suites compare estimates
to 1e-10, so a fit that moves θ by rounding moves their answers.
"""

import importlib

import numpy as np
import pytest
from oracles.fit_loop import fit_loop

from repro.models import LinearSVM, LogisticRegression, NeuralNetwork
from repro.models.optim import _BLOCK_ROWS, mean_rows
from repro.obs import trace

# The network is kept small and capped at 100 iterations on German so the
# suite stays fast; the cap still exercises 100 L-BFGS-B steps.
MODELS = {
    "lr": lambda **kw: LogisticRegression(l2_reg=1e-3, **kw),
    "svm": lambda **kw: LinearSVM(l2_reg=1e-2, **kw),
    "nn": lambda **kw: NeuralNetwork(hidden_units=4, l2_reg=1e-3, max_iter=100, seed=0, **kw),
}


def _traced_fit(model, X, y, warm_start=None):
    """Fit ``model`` under a tracer; return its one ``model.fit`` span."""
    with trace.tracing() as tracer:
        model.fit(X, y, warm_start=warm_start)
    (span,) = [s for s in tracer.walk() if s.name == "model.fit"]
    return span


def _assert_matches_oracle(make, X, y, warm_start=None):
    model = make()
    span = _traced_fit(model, X, y, warm_start)
    result = fit_loop(make(), X, y, warm_start)
    assert np.array_equal(model.theta, result.x)
    assert span.attrs["evaluations"] == result.nfev
    assert span.attrs["iterations"] == result.nit
    assert span.attrs["status"] == result.status
    return model


class TestMatchesTwoClosureFit:
    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_tiny_xy(self, name, tiny_xy):
        _assert_matches_oracle(MODELS[name], *tiny_xy)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_german(self, name, X_train, german_train):
        _assert_matches_oracle(MODELS[name], X_train, german_train.labels)

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_warm_started_refit(self, name, X_train, german_train):
        """The retraining ground truth: drop rows, refit from θ*."""
        y = german_train.labels
        theta = MODELS[name]().fit(X_train, y).theta
        keep = np.arange(40, len(y))
        _assert_matches_oracle(MODELS[name], X_train[keep], y[keep], warm_start=theta)

    @pytest.mark.parametrize("name", ["lr", "svm"])
    def test_without_intercept(self, name, tiny_xy, X_train, german_train):
        make = lambda: MODELS[name](fit_intercept=False)
        _assert_matches_oracle(make, *tiny_xy)
        _assert_matches_oracle(make, X_train, german_train.labels)


class TestFitSpan:
    def test_traced_german_fit_records_one_span(self, X_train, german_train):
        model = LogisticRegression(l2_reg=1e-3)
        span = _traced_fit(model, X_train, german_train.labels)
        result = fit_loop(LogisticRegression(l2_reg=1e-3), X_train, german_train.labels)
        assert span.attrs["status"] == 0
        assert span.attrs["evaluations"] == result.nfev
        assert span.attrs["params"] == model.num_params

    @pytest.mark.parametrize("name", sorted(MODELS))
    def test_objective_runs_once_per_evaluation(self, name, tiny_xy, monkeypatch):
        """``fit`` never calls the public loss or gradient API."""
        model = MODELS[name]()
        for method in ("loss", "grad", "per_sample_losses", "per_sample_grads"):
            monkeypatch.setattr(type(model), method, _forbidden(method))
        module = importlib.import_module(type(model).fit.__module__)
        real = module.minimize_loss
        calls = []

        def counting(objective, x0, **kwargs):
            def counted(theta):
                calls.append(1)
                return objective(theta)

            return real(counted, x0, **kwargs)

        monkeypatch.setattr(module, "minimize_loss", counting)
        span = _traced_fit(model, *tiny_xy)
        assert len(calls) == span.attrs["evaluations"] > 0


def _forbidden(method):
    def fail(self, *args, **kwargs):
        raise AssertionError(f"fit called {method}")

    return fail


@pytest.mark.parametrize("p", [2, 53])
@pytest.mark.parametrize(
    "n", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 3 * _BLOCK_ROWS + 7]
)
def test_block_reduction_is_the_axis0_mean(n, p):
    """Row blocks sum in numpy's own axis-0 order, so the mean is bit-identical."""
    rng = np.random.default_rng(n * p)
    design = rng.normal(size=(n, p)) * 10.0 ** rng.uniform(-6, 6, size=(n, 1))
    coef = rng.normal(size=n)
    shift = rng.normal(size=p)
    rows = coef[:, None] * design + shift
    assert np.array_equal(mean_rows(coef, design, shift), rows.mean(axis=0))
