"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload german_exact_audit --seed 0 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the
public entry points of each ``repro`` module and prints the per-layer
metrics instead.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the
lines before it record the environment and a readable summary.  The exit
code is 0 only when every answer check passed.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Pinned before NumPy loads its BLAS, so a run never competes with itself
# for cores and every machine runs the same kernels (1 <= nproc always).
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# (name, unit, better) — BENCHMARK.json lists the same names, in this order.
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("audit_s", "s", "lower"),
    ("step_p50_ms", "ms", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
)

PER_LAYER = (
    ("datasets.load_s", "s", "lower"),
    ("datasets.encode_s", "s", "lower"),
    ("models.fit_s", "s", "lower"),
    ("core.session.fit_s", "s", "lower"),
    ("core.session.warm_s", "s", "lower"),
    ("trace.query_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("influence.hessian.factorizations", "count", "lower"),
    ("influence.hessian.factorize_frac", "frac", "lower"),
    ("influence.hessian.solve.calls", "count", "lower"),
    ("influence.hessian.solve_frac", "frac", "lower"),
    ("influence.hessian.updates", "count", "lower"),
    ("influence.estimators.batch.calls", "count", "lower"),
    ("influence.estimators.batch.self_frac", "frac", "lower"),
    ("influence.estimators.subsets", "count", "lower"),
    ("influence.artifacts.param_change_hit_ratio", "ratio", "higher"),
    ("influence.artifacts.apply_edit_frac", "frac", "lower"),
    ("patterns.lattice.busy_frac", "frac", "lower"),
    ("patterns.lattice.self_frac", "frac", "lower"),
    ("patterns.lattice.evaluated", "count", "lower"),
    ("patterns.lattice.useful_ratio", "ratio", "higher"),
    ("patterns.topk.busy_frac", "frac", "lower"),
    ("mining.closed.busy_frac", "frac", "lower"),
    ("mining.closed.self_frac", "frac", "lower"),
    ("mining.closed.evaluated", "count", "lower"),
    ("mining.closed.useful_ratio", "ratio", "higher"),
    ("mining.projection_builds", "count", "lower"),
    ("mining.tidlist_compressions", "count", "lower"),
    ("mining.alphabet.busy_frac", "frac", "lower"),
    ("mining.alphabet.apply_edit_frac", "frac", "lower"),
    ("core.delta.replay_frac", "frac", "lower"),
    ("core.delta.certified_ratio", "ratio", "higher"),
    ("updates.projected_gd.calls", "count", "lower"),
    ("updates.projected_gd.busy_frac", "frac", "lower"),
    ("fairness.metrics.calls", "count", "lower"),
    ("fairness.metrics.busy_frac", "frac", "lower"),
    ("core.explainer.explain.self_frac", "frac", "lower"),
)


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the same code paths at test size (no fingerprint check)")
    parser.add_argument("--write-reference", action="store_true",
                        help="write this run's top-k fingerprint as the committed reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    return args


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def end_to_end(m) -> dict[str, float]:
    import resource

    import numpy as np

    from workloads import mean_of_medians

    return {
        "setup_s": float(np.median(m.setup_s)),
        "audit_s": mean_of_medians(m.audit_s),
        "step_p50_ms": mean_of_medians(m.steps_ms),
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(m, recorder, overhead: float) -> dict[str, float]:
    setups = max(len(m.setup_s), 1)
    wall = m.query_s

    def per_setup(layer):
        return recorder.layer(layer, "setup").busy / setups

    def frac(layer, attr="busy"):
        stats = recorder.layer(layer, "query")
        return ratio(stats.busy if attr == "busy" else stats.self_time, wall)

    def calls(layer):
        return recorder.layer(layer, "query").calls

    def item(layer, key):
        return recorder.layer(layer, "query").items.get(key, 0)

    c = m.counters
    hits = c.get("influence.param_change_cache_hits", 0)
    misses = c.get("influence.param_change_cache_misses", 0)
    return {
        "datasets.load_s": per_setup("datasets.load"),
        "datasets.encode_s": per_setup("datasets.encode"),
        "models.fit_s": per_setup("models.fit"),
        "core.session.fit_s": per_setup("core.session.fit"),
        "core.session.warm_s": per_setup("core.session.warm"),
        "trace.query_s": wall,
        "trace.overhead_frac": overhead,
        "influence.hessian.factorizations": calls("influence.hessian.factorize"),
        "influence.hessian.factorize_frac": frac("influence.hessian.factorize"),
        "influence.hessian.solve.calls": calls("influence.hessian.solve"),
        "influence.hessian.solve_frac": frac("influence.hessian.solve"),
        "influence.hessian.updates": calls("influence.hessian.update"),
        "influence.estimators.batch.calls": calls("influence.estimators.batch"),
        "influence.estimators.batch.self_frac": frac("influence.estimators.batch", "self"),
        "influence.estimators.subsets": item("influence.estimators.batch", "subsets"),
        "influence.artifacts.param_change_hit_ratio": ratio(hits, hits + misses),
        "influence.artifacts.apply_edit_frac": frac("influence.artifacts.apply_edit"),
        "patterns.lattice.busy_frac": frac("patterns.lattice"),
        "patterns.lattice.self_frac": frac("patterns.lattice", "self"),
        "patterns.lattice.evaluated": item("patterns.lattice", "evaluated"),
        "patterns.lattice.useful_ratio": ratio(
            item("patterns.lattice", "candidates"), item("patterns.lattice", "evaluated")
        ),
        "patterns.topk.busy_frac": frac("patterns.topk"),
        "mining.closed.busy_frac": frac("mining.closed"),
        "mining.closed.self_frac": frac("mining.closed", "self"),
        "mining.closed.evaluated": item("mining.closed", "evaluated"),
        "mining.closed.useful_ratio": ratio(
            item("mining.closed", "candidates"), item("mining.closed", "evaluated")
        ),
        "mining.projection_builds": c.get("mining.projection_builds", 0),
        "mining.tidlist_compressions": c.get("mining.tidlist_compressions", 0),
        "mining.alphabet.busy_frac": frac("mining.alphabet"),
        "mining.alphabet.apply_edit_frac": frac("mining.alphabet.apply_edit"),
        "core.delta.replay_frac": frac("core.delta.replay"),
        "core.delta.certified_ratio": ratio(m.certified, m.delta_queries),
        "updates.projected_gd.calls": calls("updates.projected_gd"),
        "updates.projected_gd.busy_frac": frac("updates.projected_gd"),
        "fairness.metrics.calls": calls("fairness.metrics"),
        "fairness.metrics.busy_frac": frac("fairness.metrics"),
        "core.explainer.explain.self_frac": frac("core.explainer.explain", "self"),
    }


def trace_failures(workload, recorder) -> list[str]:
    """Wrappers that never fired, and layers whose self time exceeds busy time."""
    problems = [
        f"expected layer {layer} never fired"
        for layer in workload.expected_layers
        if layer not in recorder.fired()
    ]
    for phase, stats in recorder.phases.items():
        for layer, s in stats.items():
            if s.self_time > s.busy + 1e-9:
                problems.append(f"{phase}/{layer}: self {s.self_time:.6f}s > busy {s.busy:.6f}s")
    return problems


def summary_lines(workload, m, metrics: dict, units: dict) -> list[str]:
    from workloads import percentile, pooled

    steps = pooled(m.steps_ms)
    counts = {
        "setup_s": len(m.setup_s),
        "audit_s": len(pooled(m.audit_s)),
        "step_p50_ms": len(steps),
    }
    lines = [
        f"{name} = {value:.6g} {units[name]} (n={counts.get(name, 1)})"
        for name, value in metrics.items()
    ]
    # Unbounded: tails and throughput vary with the share of certificate
    # refusals and with the slowest pool dataset (see README.md).
    tails = [("step", steps, 90), ("step", steps, 95)]
    if workload.loop:
        tails += [(kind, values, q) for kind, values in (("delta", m.delta_ms),
                  ("repair", m.repair_ms)) for q in (50, 95)]
    for kind, values, q in tails:
        lines.append(f"{kind}_p{q}_ms = {percentile(values, q):.6g} ms (n={len(values)})")
    lines.append(f"steps_per_s = {ratio(len(steps), sum(steps) / 1e3):.6g} 1/s (n={len(steps)})")
    if workload.loop:
        lines.append(f"delta queries certified: {m.certified}/{m.delta_queries}")
    lines.append(f"failed_frac = {ratio(m.failed, m.attempted):.6g} (n={m.attempted})")
    return lines


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]

    import json

    import checks
    import environment
    import workloads
    from layers import Patches, Recorder, repro_targets, wrapper_cost
    from repro.obs import trace as obs_trace

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.get_workload(args.workload, args.size)
    problems: list[str] = []  # run-level failures, one operation each
    if args.trace:
        recorder = Recorder()
        with Patches(recorder, repro_targets()):
            m = workloads.Runner(workload, args.seed, args.seconds, recorder).run()
        added = recorder.entries["query"] * wrapper_cost()
        metrics = per_layer(m, recorder, ratio(added, m.query_s - added))
        units = {name: unit for name, unit, _ in PER_LAYER}
        problems += trace_failures(workload, recorder)
    else:
        m = workloads.Runner(workload, args.seed, args.seconds).run()
        metrics = end_to_end(m)
        units = {name: unit for name, unit, _ in END_TO_END}

    fingerprinted = args.size == "full" and args.seed == workloads.DEFAULT_SEED
    if args.write_reference and fingerprinted:
        path = checks.write_reference(workload.name, m.records)
        print(f"wrote {path.relative_to(ROOT)}", file=sys.stderr)
    elif fingerprinted:
        mismatched = checks.fingerprint_mismatches(workload.name, m.records)
        if mismatched:
            print(f"perfbench: FAILED: {mismatched} audit queries differ from the "
                  "reference top-k", file=sys.stderr)
        m.failed += mismatched
    if obs_trace.get_tracer().enabled:
        problems.append("repro.obs tracing was enabled; the benchmark measures with it off")
    m.failed += len(problems)
    m.attempted += len(problems)

    for problem in problems:
        print(f"perfbench: FAILED: {problem}", file=sys.stderr)
    print("env " + json.dumps(environment.describe(ROOT, args.seed, BLAS_THREADS)))
    for line in summary_lines(workload, m, metrics, units):
        print(line)
    correct = m.failed == 0 and m.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": m.attempted,
        "failed": m.failed,
        "metrics": {
            name: {"value": value, "unit": units[name]} for name, value in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
