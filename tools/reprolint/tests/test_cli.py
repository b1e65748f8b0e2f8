"""CLI exit codes and the whole-tree integration run.

``test_src_is_clean`` is the analyzer's standing gate: the real ``src``
tree, under the real :data:`REPRO_CONTRACTS`, must produce zero findings
— every surviving write suppressed only by a justified pragma.  A new
lazy cache added without registering it (or a pragma without a reason)
fails this test before it fails in CI.
"""

from pathlib import Path

from tools.reprolint.__main__ import main

REPO_ROOT = Path(__file__).resolve().parents[3]
FIXTURES = Path(__file__).parent / "fixtures"


def test_src_is_clean(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["src"]) == 0
    assert "reprolint: clean" in capsys.readouterr().out


def test_findings_exit_one(capsys):
    # Under the real contracts the RL004 fixture still violates RL004
    # (its authority is influence/hessian.py, not the fixture).
    assert main([str(FIXTURES / "rl004_bad.py")]) == 1
    out = capsys.readouterr().out
    assert "RL004" in out


def test_missing_path_exits_two(capsys):
    assert main(["no/such/path.py"]) == 2


def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in ("RL001", "RL002", "RL003", "RL004", "RL005", "RL006"):
        assert rule_id in out
