"""Engine equivalence: closed mining == lattice search, end to end.

The acceptance contract of the mining backend: under the paper's default
estimator configuration it must produce *identical* top-k explanations to
the lattice — same pattern sets, scores equal to 1e-10 — on German and on
the synthetic planted-bias dataset, while evaluating strictly fewer
candidates (one per distinct extent).
"""

import pytest

from repro.cli import build_parser
from repro.core import GopherConfig, GopherExplainer
from repro.core.config import ENGINES
from repro.mining import PredicateAlphabet, mine_closed_candidates
from repro.models import LogisticRegression
from repro.patterns import CandidateResult, compute_candidates, select_top_k


def top_k_pairs(result, k):
    selected = select_top_k(result, k, containment_threshold=0.5)
    return [(s.pattern, s.responsibility, s.support, s.bias_change) for s in selected]


def assert_identical_top_k(lattice, mined, k):
    a, b = top_k_pairs(lattice, k), top_k_pairs(mined, k)
    assert [p for p, *_ in a] == [p for p, *_ in b], (
        f"top-{k} patterns diverge:\n  lattice: {[str(p) for p, *_ in a]}\n"
        f"  mining:  {[str(p) for p, *_ in b]}"
    )
    for (_, resp_a, sup_a, bias_a), (_, resp_b, sup_b, bias_b) in zip(a, b):
        assert resp_a == pytest.approx(resp_b, abs=1e-10)
        assert sup_a == pytest.approx(sup_b, abs=1e-12)
        assert bias_a == pytest.approx(bias_b, abs=1e-10)


class TestGermanEquivalence:
    @pytest.fixture(scope="class", params=[2, 3], ids=["mp2", "mp3"])
    def engine_pair(self, request, german_train, german_series_estimator):
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        lattice = compute_candidates(
            alphabet, german_series_estimator, max_predicates=request.param
        )
        mined = mine_closed_candidates(
            alphabet, german_series_estimator, max_predicates=request.param
        )
        return lattice, mined

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_identical_top_k(self, engine_pair, k):
        lattice, mined = engine_pair
        assert_identical_top_k(lattice, mined, k)

    def test_mining_candidates_no_more_than_lattice(self, engine_pair):
        lattice, mined = engine_pair
        # One candidate per distinct extent: never more than the lattice's
        # per-pattern candidate list.
        assert mined.num_candidates <= lattice.num_candidates
        assert mined.num_candidates > 0

    def test_prune_off_equivalence(self, german_train, german_series_estimator):
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        opts = dict(max_predicates=2, prune_by_responsibility=False)
        lattice = compute_candidates(alphabet, german_series_estimator, **opts)
        mined = mine_closed_candidates(alphabet, german_series_estimator, **opts)
        assert_identical_top_k(lattice, mined, 5)
        assert mined.num_evaluated < lattice.num_evaluated

    def test_fewer_candidates_evaluated(self, german_train, german_series_estimator):
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        lattice = compute_candidates(alphabet, german_series_estimator, max_predicates=2)
        mined = mine_closed_candidates(alphabet, german_series_estimator, max_predicates=2)
        assert mined.num_evaluated < lattice.num_evaluated

    @pytest.mark.parametrize("mp", [2, 3])
    def test_never_over_evaluates_the_lattice(
        self, mp, german_train, german_series_estimator
    ):
        """Regression for the seed-11 depth-3 over-evaluation.

        With the one-sided DFS-parent descent bars the miner *extended*
        depth-2 survivors the lattice could no longer pair-merge, so on
        this exact fixture (German, seed 11) the depth-3 frontier issued
        more influence evaluations than the lattice.  The sub-extent
        descent-bar cache reconstructs the lattice's merge-pair bars and
        formability, closing the gap — pinned here at both depths.
        """
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        lattice = compute_candidates(alphabet, german_series_estimator, max_predicates=mp)
        mined = mine_closed_candidates(alphabet, german_series_estimator, max_predicates=mp)
        assert mined.num_evaluated <= lattice.num_evaluated


class TestSyntheticEquivalence:
    @pytest.fixture(scope="class", params=[2, 3], ids=["mp2", "mp3"])
    def engine_pair(self, request, synth_setup):
        table, estimator = synth_setup
        alphabet = PredicateAlphabet(table, 0.05)
        lattice = compute_candidates(alphabet, estimator, max_predicates=request.param)
        mined = mine_closed_candidates(alphabet, estimator, max_predicates=request.param)
        return lattice, mined

    @pytest.mark.parametrize("k", [1, 3, 5, 10])
    def test_identical_top_k(self, engine_pair, k):
        lattice, mined = engine_pair
        assert_identical_top_k(lattice, mined, k)

    def test_fewer_candidates_evaluated(self, engine_pair):
        lattice, mined = engine_pair
        assert 0 < mined.num_evaluated < lattice.num_evaluated


class TestProjectedEngineEquivalence:
    """The miner projects conditional databases and keys extents by digest
    at every table size; on these fixtures its top-5 must still be the
    lattice's."""

    def test_projected_mining_matches_lattice(
        self, german_train, german_series_estimator
    ):
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        lattice = compute_candidates(alphabet, german_series_estimator, max_predicates=3)
        mined = mine_closed_candidates(alphabet, german_series_estimator, max_predicates=3)
        assert_identical_top_k(lattice, mined, 5)
        assert mined.num_evaluated <= lattice.num_evaluated

    def test_projected_mining_matches_lattice_synthetic(self, synth_setup):
        table, estimator = synth_setup
        alphabet = PredicateAlphabet(table, 0.05)
        lattice = compute_candidates(alphabet, estimator, max_predicates=3)
        mined = mine_closed_candidates(alphabet, estimator, max_predicates=3)
        assert_identical_top_k(lattice, mined, 5)


class TestEngineProtocol:
    def test_list_engines(self):
        """The CLI offers exactly the engines GopherConfig accepts."""
        assert ENGINES == ("lattice", "mining")
        for engine in ENGINES:
            args = build_parser().parse_args(["explain", "--engine", engine])
            assert GopherConfig(engine=args.engine).engine == engine
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--engine", "apriori"])

    def test_search_functions_return_candidate_result(
        self, german_train, german_series_estimator
    ):
        direct = compute_candidates(
            PredicateAlphabet(german_train.table, 0.05), german_series_estimator, max_predicates=1
        )
        assert isinstance(direct, CandidateResult)
        assert direct.num_candidates == len(direct.candidates) > 0
        assert direct.record is not None  # depth <= 2: replayable

    @pytest.mark.parametrize("depth", [2.5, True, 0])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_depth_must_be_a_positive_integer(self, engine, depth, german_train, fo_estimator):
        """Both engines refuse the depths ``GopherConfig`` refuses: a float,
        a bool and zero."""
        search = compute_candidates if engine == "lattice" else mine_closed_candidates
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        with pytest.raises(ValueError, match="max_predicates must be an integer >= 1"):
            search(alphabet, fo_estimator, max_predicates=depth)

    @pytest.mark.parametrize("batch_size", [0, -1])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_batch_size_must_be_positive(self, engine, batch_size, german_train, fo_estimator):
        """Both engines refuse a batch that could score no subset, through
        the same check that refuses a bad depth."""
        search = compute_candidates if engine == "lattice" else mine_closed_candidates
        alphabet = PredicateAlphabet(german_train.table, 0.05)
        with pytest.raises(ValueError, match=r"batch_size must be >= 1, got -?\d+"):
            search(alphabet, fo_estimator, max_predicates=2, batch_size=batch_size)

    def test_select_top_k_accepts_candidate_result(
        self, german_train, german_series_estimator
    ):
        result = mine_closed_candidates(
            PredicateAlphabet(german_train.table, 0.05), german_series_estimator, max_predicates=1
        )
        selected = select_top_k(result, 2, containment_threshold=0.99)
        assert 1 <= len(selected) <= 2


class TestExplainerIntegration:
    @pytest.fixture(scope="class")
    def explainers(self, german_train, german_test):
        out = {}
        for engine in ENGINES:
            gopher = GopherExplainer(
                LogisticRegression(l2_reg=1e-3),
                metric="statistical_parity",
                estimator="second_order",
                estimator_kwargs={"variant": "series", "evaluation": "smooth"},
                engine=engine,
                max_predicates=2,
                support_threshold=0.05,
            )
            out[engine] = gopher.fit(german_train, german_test)
        return out

    @pytest.fixture(scope="class")
    def explanations(self, explainers):
        return {
            engine: gopher.explain(k=3, verify=False)
            for engine, gopher in explainers.items()
        }

    @pytest.mark.parametrize("engine", ENGINES)
    def test_explainer_runs_the_configured_search(
        self, explainers, explanations, german_train, engine
    ):
        """``explain`` returns what a direct call of the engine's search
        function gives on the explainer's estimator and configuration."""
        gopher = explainers[engine]
        cfg = gopher.config
        search = compute_candidates if engine == "lattice" else mine_closed_candidates
        direct = search(
            PredicateAlphabet(
                german_train.table, cfg.support_threshold, cfg.num_bins, cfg.exclude_features
            ),
            gopher.estimator,
            max_predicates=cfg.max_predicates,
            prune_by_responsibility=cfg.prune_by_responsibility,
        )
        via_explainer = explanations[engine].lattice
        assert isinstance(via_explainer, CandidateResult)
        assert via_explainer.num_evaluated == direct.num_evaluated
        assert [c.pattern for c in via_explainer.candidates] == [
            c.pattern for c in direct.candidates
        ]
        for a, b in zip(via_explainer.candidates, direct.candidates):
            assert a.responsibility == pytest.approx(b.responsibility, abs=1e-10)

    def test_identical_explanations(self, explanations):
        lattice, mined = explanations["lattice"], explanations["mining"]
        assert lattice.patterns() == mined.patterns()
        for a, b in zip(lattice, mined):
            assert a.est_responsibility == pytest.approx(b.est_responsibility, abs=1e-10)
            assert a.support == pytest.approx(b.support, abs=1e-12)

    def test_mining_result_carries_engine_accounting(self, explanations):
        result = explanations["mining"].lattice
        assert isinstance(result, CandidateResult)
        assert result.record is None  # only lattice searches are replayable
        assert result.num_evaluated > 0
        assert result.num_candidates > 0

    def test_config_rejects_unknown_engine(self):
        with pytest.raises(ValueError, match="unknown engine"):
            GopherConfig(engine="bogus")
