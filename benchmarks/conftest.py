"""Shared benchmark configuration.

Benchmarks are heavyweight experiments; each is executed once via
``benchmark.pedantic(..., rounds=1)`` on a representative kernel while the
full experiment result (the paper-shaped table) is emitted through
``repro.bench.emit`` so it survives pytest's output capture.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.bench import build_pipeline

_RESULTS_DIR = Path(__file__).parent / "results"
_SESSION_START = time.time()

# The loop-vs-batch benchmarks compare against the reference loops the
# equivalence suites use, importable as ``oracles.*`` from tests/.
sys.path.insert(0, str(Path(__file__).parent.parent / "tests"))


def pytest_addoption(parser):
    parser.addoption(
        "--smoke",
        action="store_true",
        default=False,
        help="reduced dataset sizes / step counts and relaxed speedup bars, "
        "for the CI smoke run",
    )


@pytest.fixture(scope="session")
def smoke(request):
    """True when the benchmark should run its reduced CI configuration."""
    return bool(request.config.getoption("--smoke"))


@pytest.fixture(scope="session")
def german_lr():
    """The default paper setup: German Credit + logistic regression."""
    return build_pipeline("german", "logistic_regression", n_rows=1000, seed=1)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Replay the paper-shaped tables after pytest's capture has ended.

    ``emit`` archives every table under ``benchmarks/results/``; pytest's
    file-descriptor capture swallows live prints, so the tables produced by
    *this* session are echoed here, where they reach the real terminal (and
    any ``tee`` of it).
    """
    fresh = [
        path
        for path in sorted(_RESULTS_DIR.glob("*.txt"))
        if path.stat().st_mtime >= _SESSION_START - 1.0
    ]
    if not fresh:
        return
    terminalreporter.section("reproduced tables and figures")
    for path in fresh:
        terminalreporter.write(path.read_text())
