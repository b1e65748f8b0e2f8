"""Command-line interface: ``python -m repro <command> ...``.

Three subcommands cover the common workflows without writing Python:

* ``explain`` — run the full Gopher pipeline on a built-in (or CSV) dataset
  and print the fairness report, the top-k explanations, and optionally the
  update-based repairs.  With ``--audit``, one artifact-cached
  :class:`~repro.core.AuditSession` answers *every* registered fairness
  metric for the dataset's protected attribute — the model is trained and
  the influence/alphabet caches are built exactly once across all queries.
  ``--audit --edit KIND:COUNT`` then applies a random training-data edit
  and re-certifies every query incrementally via
  :meth:`~repro.core.AuditSession.delta_audit`, printing the rank-by-rank
  before/after diff.
* ``report`` — just fit a model and print accuracy + every fairness metric.
* ``detect`` — the §6.7 poisoning-detection pipeline on a built-in dataset.

Examples
--------
::

    python -m repro explain --dataset german --model logistic_regression -k 3
    python -m repro explain --dataset adult --metric equal_opportunity --updates
    python -m repro explain --dataset german --audit -k 3 --no-verify
    python -m repro explain --dataset german --audit --updates --no-verify
    python -m repro explain --dataset german --audit --no-verify --edit remove:10
    python -m repro report --dataset sqf
    python -m repro detect --dataset german --poison-fraction 0.1
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.bench.workloads import DATASETS, MODELS, build_pipeline
from repro.cluster import local_outlier_factor
from repro.core import AuditSession, GopherExplainer
from repro.datasets import TabularEncoder, random_edit, train_test_split
from repro.fairness import FairnessContext, fairness_report, get_metric, list_metrics
from repro.influence import make_estimator
from repro.models import LogisticRegression
from repro.obs import CostReport, Tracer, trace
from repro.poisoning import AnchoringAttack, rank_clusters_by_influence


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Gopher: data-based explanations for fairness debugging",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--dataset", choices=sorted(DATASETS), default="german")
        p.add_argument("--model", choices=sorted(MODELS), default="logistic_regression")
        p.add_argument("--metric", choices=list_metrics(), default="statistical_parity")
        p.add_argument("--rows", type=int, default=None, help="dataset size (generator default if omitted)")
        p.add_argument("--seed", type=int, default=1)

    explain = sub.add_parser("explain", help="top-k explanations for model bias")
    add_common(explain)
    explain.add_argument("-k", type=int, default=3, help="number of explanations")
    explain.add_argument("--estimator", default="second_order",
                         choices=["first_order", "second_order", "exact", "series",
                                  "one_step_gd", "retrain"],
                         help="influence estimator; 'exact'/'series' pick the "
                         "second-order variant directly (both are batched)")
    explain.add_argument("--engine", default="lattice", choices=["lattice", "mining"],
                         help="candidate-generation backend: the level-wise lattice "
                         "search or the packed-bitset closed-pattern miner")
    explain.add_argument("--support", type=float, default=0.05, help="support threshold tau")
    explain.add_argument("--max-predicates", type=int, default=3)
    explain.add_argument("--no-verify", action="store_true",
                         help="skip ground-truth retraining of the winners")
    explain.add_argument("--updates", action="store_true",
                         help="also compute update-based explanations (Section 5); "
                         "with --audit, repairs every query's explanations through "
                         "per-metric explainer views sharing one update context")
    explain.add_argument("--audit", action="store_true",
                         help="run every registered fairness metric through one "
                         "artifact-cached AuditSession (one start-up, many queries) "
                         "instead of a single-metric explainer")
    explain.add_argument("--edit", metavar="KIND:COUNT", default=None,
                         help="after the audit, apply a random training-data edit "
                         "(KIND is remove/relabel/add, e.g. 'remove:10') and "
                         "re-certify the explanations incrementally via "
                         "delta_audit; requires --audit")
    explain.add_argument("--edit-seed", type=int, default=0,
                         help="seed for the --edit row selection")
    explain.add_argument("--profile", action="store_true",
                         help="enable hierarchical tracing for the run and print "
                         "the span tree plus a per-query cost breakdown "
                         "(GEMM/solve FLOPs, influence evaluations, cache hits)")
    explain.add_argument("--trace-out", metavar="PATH", default=None,
                         help="write the run's trace as JSON to PATH: Chrome "
                         "trace_event 'traceEvents' (loadable in Perfetto) plus "
                         "the structured span tree; implies tracing")

    report = sub.add_parser("report", help="accuracy + all fairness metrics")
    add_common(report)

    detect = sub.add_parser("detect", help="poisoning detection experiment (§6.7)")
    add_common(detect)
    detect.add_argument("--poison-fraction", type=float, default=0.1)
    detect.add_argument("--clusters", type=int, default=8)

    return parser


def _cmd_explain(args: argparse.Namespace) -> int:
    if not (args.profile or args.trace_out):
        return _explain_impl(args, tracer=None)
    tracer = Tracer()
    with trace.tracing(tracer):
        status = _explain_impl(args, tracer=tracer)
    if args.trace_out is not None:
        with open(args.trace_out, "w", encoding="utf-8") as handle:
            json.dump(tracer.export(), handle)
        print(f"(trace written to {args.trace_out}: {tracer.span_count()} spans)")
    return status


def _profile_report(tracer: Tracer, costs) -> None:
    """Print the span tree and each query's cost attribution."""
    print()
    print(tracer.render_tree())
    for cost in costs:
        if cost is not None:
            print()
            print(cost.render())


def _explain_impl(args: argparse.Namespace, tracer: Tracer | None) -> int:
    bundle = build_pipeline(
        args.dataset, args.model, metric=args.metric, n_rows=args.rows, seed=args.seed
    )
    if args.edit is not None and not args.audit:
        print(
            "error: --edit re-certifies an audit incrementally and requires "
            "--audit (the delta is diffed against the audit's before side)",
            file=sys.stderr,
        )
        return 2
    if args.audit:
        session = AuditSession(
            bundle.model,
            metric=args.metric,
            estimator=args.estimator,
            engine=args.engine,
            support_threshold=args.support,
            max_predicates=args.max_predicates,
        )
        session.fit(bundle.train, bundle.test)
        print(session.report())
        print()
        result = session.audit(k=args.k, verify=not args.no_verify)
        print(result.render())
        if args.updates:
            # Per-metric explainer views all ride the session's shared
            # update context: the Hessian/η half is built once for the
            # whole audit, each view adds only its ∇F.
            for query in result.queries:
                view = session.explainer(metric=query.metric, group=query.group)
                updates = view.explain_updates(
                    query.explanations, verify=not args.no_verify
                )
                print()
                print(f"[{query.describe()}]")
                print(updates.render())
        if args.edit is not None:
            try:
                kind, _, count_text = args.edit.partition(":")
                edit = random_edit(
                    session.train_data, kind, int(count_text or 1), seed=args.edit_seed
                )
            except ValueError as error:
                print(f"error: bad --edit spec {args.edit!r}: {error}", file=sys.stderr)
                return 2
            delta = session.delta_audit(edit, k=args.k, verify=not args.no_verify)
            print()
            print(delta.render())
        counters = ", ".join(
            f"{name}={value}" for name, value in sorted(session.stats.items())
        )
        print()
        print(f"(session cache counters: {counters})")
        if args.profile and tracer is not None:
            _profile_report(tracer, [query.cost for query in result.queries])
        return 0
    gopher = GopherExplainer(
        bundle.model,
        metric=args.metric,
        estimator=args.estimator,
        engine=args.engine,
        support_threshold=args.support,
        max_predicates=args.max_predicates,
    )
    gopher.fit(bundle.train, bundle.test)
    print(gopher.report())
    print()
    result = gopher.explain(k=args.k, verify=not args.no_verify)
    print(result.render())
    if args.updates:
        updates = gopher.explain_updates(result, verify=not args.no_verify)
        print()
        print(updates.render())
    if args.profile and tracer is not None:
        costs = [
            CostReport.from_span(root) for root in tracer.roots if root.end is not None
        ]
        _profile_report(tracer, costs)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    bundle = build_pipeline(
        args.dataset, args.model, metric=args.metric, n_rows=args.rows, seed=args.seed
    )
    print(f"dataset={args.dataset} model={args.model} "
          f"train={bundle.train.num_rows} test={bundle.test.num_rows}")
    print(fairness_report(bundle.model, bundle.test_ctx))
    return 0


def _cmd_detect(args: argparse.Namespace) -> int:
    loader = DATASETS[args.dataset]
    data = loader(seed=args.seed) if args.rows is None else loader(args.rows, seed=args.seed)
    train, test = train_test_split(data, 0.25, seed=args.seed)
    poisoned = AnchoringAttack(
        poison_fraction=args.poison_fraction, num_anchors=5, seed=args.seed
    ).poison(train)
    encoder = TabularEncoder().fit(poisoned.dataset.table)
    X = encoder.transform(poisoned.dataset.table)
    model = LogisticRegression(l2_reg=1e-3).fit(X, poisoned.dataset.labels)
    ctx = FairnessContext(
        encoder.transform(test.table),
        test.labels,
        test.privileged_mask(),
        train.favorable_label,
    )
    metric = get_metric(args.metric)
    print(f"poisoned-model bias ({args.metric}): {metric.value(model, ctx):+.4f}")
    estimator = make_estimator("second_order", model, X, poisoned.dataset.labels, metric, ctx)
    report = rank_clusters_by_influence(
        X, estimator, n_clusters=args.clusters, method="gmm", seed=0
    )
    recall = report.fraction_in_top(poisoned.is_poisoned, 2)
    lof = local_outlier_factor(X, n_neighbors=20)
    flagged = np.zeros(len(X), dtype=bool)
    flagged[np.argsort(-lof)[: poisoned.num_poisoned]] = True
    lof_recall = (flagged & poisoned.is_poisoned).sum() / poisoned.num_poisoned
    print(f"poison recall, top-2 influence-ranked clusters: {recall:.1%}")
    print(f"poison recall, LocalOutlierFactor baseline:     {lof_recall:.1%}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point used by ``python -m repro`` and tests."""
    args = build_parser().parse_args(argv)
    handlers = {
        "explain": _cmd_explain,
        "report": _cmd_report,
        "detect": _cmd_detect,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__.py
    sys.exit(main())
