"""RL006 — single clock authority.

Every duration the library reports is read off the trace span that
brackets the work, and spans read the one clock in ``obs/trace.py``.  A
``time.perf_counter()`` (or any other ``time`` clock) anywhere else is a
second timing system: a duration taken on readings the trace never sees,
which drifts from the span that times the same work.

Matched: any call of or reference to a ``time`` clock function — through
the module (``time.perf_counter``, ``t.monotonic`` after ``import time as
t``) or through a name brought in by ``from time import …`` — in a module
outside the contract set's clock authority.
"""

from __future__ import annotations

import ast

from tools.reprolint.contracts import ContractSet
from tools.reprolint.engine import Finding, Rule
from tools.reprolint.model import Project

_CLOCKS = frozenset(
    name + suffix
    for name in ("perf_counter", "monotonic", "time", "process_time", "thread_time")
    for suffix in ("", "_ns")
)


def _time_aliases(tree: ast.Module) -> tuple[set[str], dict[str, str]]:
    """Local names bound to the ``time`` module, and to its clock functions."""
    modules: set[str] = set()
    clocks: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "time":
                    modules.add(alias.asname or "time")
        elif isinstance(node, ast.ImportFrom) and node.module == "time":
            for alias in node.names:
                if alias.name in _CLOCKS:
                    clocks[alias.asname or alias.name] = alias.name
    return modules, clocks


def check(project: Project, contracts: ContractSet) -> list[Finding]:
    findings: list[Finding] = []
    for module in project.modules.values():
        path_str = str(module.path)
        if any(path_str.endswith(suffix) for suffix in contracts.clock_authority):
            continue
        modules, clocks = _time_aliases(module.tree)
        if not modules and not clocks:
            continue
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Attribute)
                and node.attr in _CLOCKS
                and isinstance(node.value, ast.Name)
                and node.value.id in modules
            ):
                clock = node.attr
            elif isinstance(node, ast.Name) and node.id in clocks:
                clock = clocks[node.id]
            else:
                continue
            findings.append(
                Finding(
                    "RL006",
                    module.path,
                    node.lineno,
                    f"time.{clock} outside the clock authority "
                    f"({', '.join(contracts.clock_authority)}); time the work with "
                    "a trace span and read its seconds",
                )
            )
    return findings


RULE = Rule(
    id="RL006",
    name="single-clock-authority",
    description="no time clock reads outside obs/trace.py; durations come from spans",
    check=check,
)
