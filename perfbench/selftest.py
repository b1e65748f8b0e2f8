"""The benchmark's own tests.

Run from the repository root::

    python3 -m pytest perfbench/selftest.py -q

They check that the printed metric names and units match
``BENCHMARK.json``, that a tiny-size pass of every workload answers
correctly (``failed_frac == 0``), that self-time accounting is exact on a
synthetic nested call, and that the command refuses to run without the
program sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from layers import Patches, Recorder, Target  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_tables_match_benchmark_json():
    for key, table in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert [(m["name"], m["unit"], m["better"]) for m in SPEC[key]] == list(table)
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_pass_is_correct_and_prints_every_metric(workload):
    result = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                             "--trace", "0", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_tiny_pass_prints_every_layer_metric():
    result = result_of(bench("--workload", "german_repair_loop", "--seed", "3", "--seconds", "1",
                             "--trace", "1", "--size", "tiny"))
    assert result["correct"] and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["updates.projected_gd.calls"] > 0
    assert metrics["mining.closed.evaluated"] == 0  # the lattice workload bypasses the miner


def test_self_time_on_a_synthetic_nested_call():
    now = [0.0]
    recorder = Recorder(clock=lambda: now[0])

    def spend(seconds, then=None):
        now[0] += seconds
        if then is not None:
            then()

    inner_a = lambda: recorder.call("A", spend, (1.0,), {})  # noqa: E731
    b = lambda: recorder.call("B", spend, (3.0, inner_a), {})  # noqa: E731

    def outer():
        spend(1.0, b)
        spend(0.5)

    recorder.call("A", outer, (), {})
    a, b_stats = recorder.layer("A"), recorder.layer("B")
    # A re-entered through B counts one call; busy is the outer interval.
    assert (a.calls, a.busy, a.self_time) == (1, 5.5, 2.5)
    assert (b_stats.calls, b_stats.busy, b_stats.self_time) == (1, 4.0, 3.0)
    assert a.self_time + b_stats.self_time == a.busy


def test_patches_rebind_importers_and_restore():
    module = types.ModuleType("repro_selftest_owner")
    importer = types.ModuleType("repro_selftest_importer")

    def entry(x):
        return x + 1

    module.entry = importer.entry = entry
    sys.modules[module.__name__] = module
    sys.modules[importer.__name__] = importer
    try:
        recorder = Recorder()
        with Patches(recorder, [Target("demo", module, "entry")]):
            assert importer.entry(1) == 2
            assert module.entry is importer.entry is not entry
        assert module.entry is entry and importer.entry is entry
        assert recorder.layer("demo").calls == 1
    finally:
        del sys.modules[module.__name__], sys.modules[importer.__name__]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "german_exact_audit", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
