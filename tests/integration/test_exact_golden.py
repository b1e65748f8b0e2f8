"""Golden regression: top-k German explanations under ``estimator="exact"``.

The engine-equivalence suite pins the series/default path; this locks the
*exact* Newton-step estimator end to end for both candidate engines — the
exact kernel drives the whole search, so any drift in its downdate, the
damping escalation, or the engine plumbing shows up as a changed pattern
or score here.  Values generated from the seed pipeline
(German 800 / seed 11 / split 0.25 / logistic l2=1e-3, smooth evaluation,
max_predicates=2, tau=0.05).
"""

from __future__ import annotations

import pytest

from repro.core import GopherExplainer
from repro.influence.hessian import HessianSolver
from repro.models import LogisticRegression
from repro.obs import trace
from repro.obs.trace import Tracer

GOLDEN_TOP3 = [
    ("age >= 45 ∧ gender = Female", 0.490129445513, 0.121667, -0.077968713542),
    ("duration >= 27 ∧ installment_rate >= 2", 0.489042531541, 0.213333, -0.077795809659),
    ("existing_credits < 2 ∧ residence = 3", 0.195996536608, 0.088333, -0.031178697705),
]


@pytest.fixture(scope="module", params=["lattice", "mining"])
def exact_explanations(request, german_train, german_test):
    gopher = GopherExplainer(
        LogisticRegression(l2_reg=1e-3),
        metric="statistical_parity",
        estimator="exact",
        estimator_kwargs={"evaluation": "smooth"},
        engine=request.param,
        max_predicates=2,
        support_threshold=0.05,
    )
    gopher.fit(german_train, german_test)
    gopher.estimator.warm()
    constructed = []
    original_init = HessianSolver.__init__

    def counting_init(self, *args, **kwargs):
        constructed.append(self)
        original_init(self, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch, trace.tracing(Tracer()) as tracer:
        patch.setattr(HessianSolver, "__init__", counting_init)
        result = gopher.explain(k=3, verify=False)
    return request.param, tracer, result, len(constructed)


class TestExactGolden:
    def test_top3_patterns_and_scores(self, exact_explanations):
        engine, _, result, _ = exact_explanations
        assert len(result.explanations) == 3
        for explanation, (pattern, resp, support, bias) in zip(result, GOLDEN_TOP3):
            assert str(explanation.pattern) == pattern, f"engine={engine}"
            assert explanation.est_responsibility == pytest.approx(resp, abs=1e-9)
            assert explanation.support == pytest.approx(support, abs=1e-6)
            assert explanation.est_bias_change == pytest.approx(bias, abs=1e-9)

    def test_num_evaluated_reported(self, exact_explanations):
        """Evaluation-count accounting must stay wired under the exact path
        (the miner evaluates one candidate per distinct extent, so it never
        exceeds the lattice's count on this workload)."""
        engine, _, result, _ = exact_explanations
        assert result.lattice.num_evaluated > 0
        expected = {"lattice": 2273, "mining": 2133}
        assert result.lattice.num_evaluated == expected[engine]

    def test_search_ran_on_the_kernel(self, exact_explanations):
        """The search must actually run the exact kernel in batches — if
        every candidate were solved on its own the golden values would
        still pass but the batch entry points would be dead code."""
        _, tracer, result, constructed = exact_explanations
        spans = [span for span in tracer.walk() if span.name == "hessian.reduced_solve"]
        # Each distinct extent is solved once (the session's extent cache
        # serves repeats), so the kernel solves at most the evaluated count.
        solved = sum(span.attrs["subsets"] for span in spans)
        assert 0 < solved <= result.lattice.num_evaluated
        assert len(spans) < solved / 10
        assert all(span.attrs["escalated"] == 0 for span in spans)
        assert constructed == 0  # no per-subset HessianSolver during the search
