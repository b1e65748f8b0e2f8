"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_explain_defaults(self):
        args = build_parser().parse_args(["explain"])
        assert args.dataset == "german"
        assert args.estimator == "second_order"
        assert args.k == 3

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--dataset", "nope"])

    def test_metric_choices(self):
        args = build_parser().parse_args(["report", "--metric", "equal_opportunity"])
        assert args.metric == "equal_opportunity"

    def test_engine_choices(self):
        assert build_parser().parse_args(["explain"]).engine == "lattice"
        args = build_parser().parse_args(["explain", "--engine", "mining"])
        assert args.engine == "mining"
        with pytest.raises(SystemExit):
            build_parser().parse_args(["explain", "--engine", "apriori"])

    def test_estimator_variant_choices(self):
        args = build_parser().parse_args(["explain", "--estimator", "exact"])
        assert args.estimator == "exact"
        args = build_parser().parse_args(["explain", "--estimator", "series"])
        assert args.estimator == "series"


class TestCommands:
    def test_report_runs(self, capsys):
        code = main(["report", "--dataset", "german", "--rows", "400", "--seed", "11"])
        assert code == 0
        out = capsys.readouterr().out
        assert "accuracy" in out
        assert "statistical_parity" in out

    def test_explain_runs(self, capsys):
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "first_order", "--max-predicates", "2",
                "-k", "2", "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-" in out

    def test_explain_with_mining_engine_runs(self, capsys):
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "first_order", "--engine", "mining",
                "--max-predicates", "2", "-k", "2", "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-" in out

    def test_explain_exact_with_mining_engine_runs(self, capsys):
        """--estimator exact rides the exact kernel through the miner's
        packed frontiers end to end."""
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "exact", "--engine", "mining",
                "--max-predicates", "2", "-k", "2", "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Top-" in out

    def test_explain_audit_runs(self, capsys):
        """--audit fans every registered metric through one AuditSession
        and reports the cache counters proving one shared start-up."""
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "first_order", "--max-predicates", "2",
                "-k", "2", "--no-verify", "--audit",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Audit:" in out
        for metric in ("statistical_parity", "equal_opportunity",
                       "predictive_parity", "average_odds"):
            assert metric in out
        assert "hessian_factorizations=1" in out
        assert "alphabet_builds=1" in out

    def test_audit_with_updates_repairs_every_query(self, capsys):
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400",
                "--estimator", "first_order", "--max-predicates", "2",
                "-k", "2", "--audit", "--updates", "--no-verify",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        # One repair block per audit query, all sharing the session's
        # update context (built exactly once for the whole audit).
        assert out.count("Update-based explanations") >= 2
        assert "update_context_builds=1" in out

    def test_explain_updates_runs(self, capsys):
        # --no-verify leaves gt_bias_change empty, so this also exercises
        # the estimator fallback for the removal reference (no crash).
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "first_order", "--max-predicates", "2",
                "-k", "2", "--no-verify", "--updates",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Update-based explanations" in out
        assert "vs removal" in out

    def test_detect_runs(self, capsys):
        code = main(
            ["detect", "--dataset", "german", "--rows", "400", "--seed", "11",
             "--poison-fraction", "0.1", "--clusters", "5"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "top-2 influence-ranked clusters" in out


class TestDeltaAuditFlag:
    def test_edit_requires_audit(self, capsys):
        code = main(
            ["explain", "--dataset", "german", "--rows", "400",
             "--edit", "remove:5", "--no-verify"]
        )
        assert code == 2
        assert "--audit" in capsys.readouterr().err

    def test_bad_edit_spec_rejected(self, capsys):
        code = main(
            ["explain", "--dataset", "german", "--rows", "400", "--seed", "11",
             "--max-predicates", "2", "--audit", "--no-verify",
             "--edit", "shuffle:5"]
        )
        assert code == 2
        assert "bad --edit spec" in capsys.readouterr().err

    def test_audit_with_edit_runs(self, capsys):
        code = main(
            [
                "explain", "--dataset", "german", "--rows", "400", "--seed", "11",
                "--estimator", "first_order", "--max-predicates", "2",
                "-k", "2", "--no-verify", "--audit",
                "--edit", "remove:5", "--edit-seed", "3",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Delta audit after edit(remove 5)" in out
        assert "influence.edits=1" in out
        # Build counters unchanged by the edit — the delta pass patched.
        assert "influence.hessian_factorizations=1" in out
        assert "mining.alphabet_builds=1" in out
