"""The benchmark's workloads and the measurement loop that runs them.

Every workload runs through the public :class:`repro.core.AuditSession`
API in one process.  A run sets up each dataset of the workload's fixed
pool once (load + split + ``fit`` + ``warm``) and audits it once on that
freshly warmed session, so no timed audit is served from an earlier
audit's extent caches.  Audit workloads keep adding rounds over the pool
until ``--seconds`` have passed.  The repair loop then runs a closed loop
(one caller; the next cycle starts when the previous one returns)
round-robin over its sessions for ``--seconds``.

The run seed draws the row order of every training and test split and,
in the repair loop, every edit.  The pool itself is fixed (dataset ``d``
is generated and split with seed ``d``): the cost of one audit varies by
up to ±25% between generated datasets, which would swamp any bound a
regression check could use, while row order leaves the work unchanged.

Nothing here times or checks through ``repro.obs``: the traced run's
per-layer numbers come from :mod:`layers`, wrapped around the program
from outside.
"""

from __future__ import annotations

import gc
import math
import sys
import time
import traceback
from dataclasses import dataclass, field, replace

import numpy as np

import checks
import repro.datasets as datasets
from repro.core import AuditSession
from repro.fairness.metrics import list_metrics
from repro.models import LogisticRegression

DEFAULT_SEED = 0
TOP_K = 3
TEST_FRACTION = 0.25
EDIT_KINDS = ("remove", "relabel", "add")
EDIT_ROWS = 8
# A repair loop whose cycles got much slower stops at this multiple of
# --seconds even short of its minimum cycle count.
LOOP_CAP = 4.0

_COMMON_LAYERS = (
    "datasets.load",
    "datasets.encode",
    "models.fit",
    "core.session.fit",
    "core.session.warm",
    "core.explainer.explain",
    "influence.hessian.factorize",
    "influence.hessian.solve",
    "influence.estimators.batch",
    "patterns.topk",
    "mining.alphabet",
    "fairness.metrics",
)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    loader: str  # a loader of repro.datasets
    rows: int
    config: dict
    datasets: int  # size of the dataset pool: one set-up + one audit each per round
    metrics: tuple[str, ...] | None = None  # None: every registered metric
    warm: dict = field(default_factory=dict)
    loop: bool = False
    min_cycles: int = 0
    expected_layers: tuple[str, ...] = _COMMON_LAYERS

    @property
    def metric_names(self) -> list[str]:
        return list(self.metrics) if self.metrics is not None else list_metrics()


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="german_exact_audit",
            why=(
                "the CLI-default audit: exact second-order estimator, lattice engine, "
                "depth 3; Hessian factorizations and the lattice merge do the work"
            ),
            loader="load_german",
            rows=1000,
            config=dict(
                estimator="second_order",
                engine="lattice",
                support_threshold=0.05,
                max_predicates=3,
            ),
            datasets=3,
            expected_layers=_COMMON_LAYERS + ("patterns.lattice",),
        ),
        Workload(
            name="scale_mining_audit",
            why=(
                "200k rows, above the projection gate: first-order mining audit; "
                "closed mining and gather-sums do the work, model fit dominates set-up"
            ),
            loader="load_synth_scale",
            rows=200_000,
            config=dict(
                estimator="first_order",
                engine="mining",
                support_threshold=0.003,
                max_predicates=3,
            ),
            datasets=2,
            expected_layers=_COMMON_LAYERS + ("mining.closed",),
        ),
        Workload(
            name="german_repair_loop",
            why=(
                "closed edit loop: seeded 8-row edits, delta_audit and explain_updates "
                "patch and read the same caches"
            ),
            loader="load_german",
            rows=1000,
            config=dict(
                estimator="series",
                estimator_kwargs={"evaluation": "smooth"},
                engine="lattice",
                support_threshold=0.05,
                max_predicates=2,
            ),
            datasets=8,
            metrics=("statistical_parity", "equal_opportunity", "average_odds"),
            min_cycles=60,
            warm=dict(skeleton=True),
            loop=True,
            expected_layers=_COMMON_LAYERS
            + (
                "patterns.lattice",
                "core.delta.replay",
                "updates.projected_gd",
                "influence.artifacts.apply_edit",
                "mining.alphabet.apply_edit",
                "influence.hessian.update",
            ),
        ),
    )
}

# Tiny sizes for the benchmark's own tests: same code paths, seconds.
TINY = {
    "german_exact_audit": dict(rows=300, datasets=1),
    "scale_mining_audit": dict(rows=4000, datasets=1),
    "german_repair_loop": dict(rows=400, datasets=2, min_cycles=6),
}


def get_workload(name: str, size: str = "full") -> Workload:
    workload = WORKLOADS[name]
    return replace(workload, **TINY[name]) if size == "tiny" else workload


def derive_seed(*keys: int) -> int:
    """A 32-bit seed derived from the run seed and a position in the run."""
    return int(np.random.SeedSequence([int(k) for k in keys]).generate_state(1)[0])


@dataclass
class Measurement:
    """Everything one run measured, before it is reduced to metrics."""

    setup_s: list[float] = field(default_factory=list)
    audit_s: dict[int, list[float]] = field(default_factory=dict)  # per dataset
    steps_ms: dict[int, list[float]] = field(default_factory=dict)  # per dataset
    delta_ms: list[float] = field(default_factory=list)
    repair_ms: list[float] = field(default_factory=list)
    query_s: float = 0.0  # timed query-path wall: audits + loop cycles
    attempted: int = 0
    failed: int = 0
    delta_queries: int = 0
    certified: int = 0
    counters: dict[str, int] = field(default_factory=dict)
    records: list[dict] = field(default_factory=list)  # top-k fingerprints

    def count(self, stats: dict[str, int], *names: str) -> None:
        for name in names:
            self.counters[name] = self.counters.get(name, 0) + int(stats.get(name, 0))


_COUNTERS = (
    "influence.param_change_cache_hits",
    "influence.param_change_cache_misses",
    "mining.projection_builds",
    "mining.tidlist_compressions",
)


class Runner:
    """Runs one workload for one seed; ``recorder`` switches phases when traced."""

    def __init__(self, workload: Workload, seed: int, seconds: float, recorder=None) -> None:
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.recorder = recorder
        self.m = Measurement()

    def fail(self, count: int, what: str) -> None:
        """Count ``count`` failed operations and say which check failed."""
        if count:
            self.m.failed += count
            print(f"perfbench: FAILED: {self.workload.name}: {what}", file=sys.stderr)

    def phase(self, name: str) -> None:
        if self.recorder is not None:
            self.recorder.phase = name

    def setup(self, dataset: int) -> AuditSession:
        """Load, split, fit and warm one session (the ``setup_s`` interval)."""
        w = self.workload
        data = getattr(datasets, w.loader)(w.rows, seed=dataset)
        train, test = datasets.train_test_split(data, TEST_FRACTION, seed=dataset)
        rng = np.random.default_rng(derive_seed(self.seed, dataset))
        train = train.subset(rng.permutation(train.num_rows))
        test = test.subset(rng.permutation(test.num_rows))
        session = AuditSession(LogisticRegression(l2_reg=1e-3), **w.config)
        return session.fit(train, test).warm(**w.warm)

    def audit(self, session: AuditSession):
        return session.audit(metrics=self.workload.metric_names, k=TOP_K)

    def run(self) -> Measurement:
        w = self.workload
        sessions = []
        start = time.perf_counter()
        index = 0
        while index < w.datasets or (not w.loop and time.perf_counter() - start < self.seconds):
            session = self._round(index % w.datasets, first=index < w.datasets)
            if w.loop and session is not None:
                sessions.append(session)
            del session
            gc.collect()
            index += 1
        if sessions:
            self._loop(sessions)
        self.phase("setup")
        return self.m

    def _round(self, dataset: int, first: bool) -> AuditSession | None:
        w, m = self.workload, self.m
        m.attempted += len(w.metric_names)
        try:
            self.phase("setup")
            t0 = time.perf_counter()
            session = self.setup(dataset)
            t1 = time.perf_counter()
            self.phase("query")
            audit = self.audit(session)
            t2 = time.perf_counter()
            self.phase("check")
        except Exception:
            self.phase("check")
            traceback.print_exc(file=sys.stderr)
            self.fail(len(w.metric_names), f"dataset {dataset} raised")
            return None
        m.setup_s.append(t1 - t0)
        m.audit_s.setdefault(dataset, []).append(t2 - t1)
        m.query_s += t2 - t1
        if not w.loop:  # loop sessions are counted once, after the loop
            m.steps_ms.setdefault(dataset, []).append((t2 - t1) * 1e3)
            m.count(session.stats, *_COUNTERS)
        rescore = checks.rescore_failures(
            session, audit, w.config["estimator"], w.config.get("estimator_kwargs", {})
        )
        self.fail(rescore, f"dataset {dataset}: {rescore} queries differ from a fresh re-score")
        if first:
            m.records.extend(checks.fingerprint(audit, dataset))
        return session

    def _loop(self, sessions: list[AuditSession]) -> None:
        w, m = self.workload, self.m
        metrics = w.metric_names
        cycles = 0
        start = time.perf_counter()
        while True:
            elapsed = time.perf_counter() - start
            if elapsed >= self.seconds and (
                cycles >= w.min_cycles or elapsed >= LOOP_CAP * self.seconds
            ):
                break
            j, c = cycles % len(sessions), cycles // len(sessions)
            session = sessions[j]
            cycles += 1
            m.attempted += 1
            edit = datasets.random_edit(
                session.train_data, EDIT_KINDS[c % len(EDIT_KINDS)], EDIT_ROWS,
                seed=derive_seed(self.seed, 1000 + j, c),
            )
            try:
                self.phase("query")
                t0 = time.perf_counter()
                delta = session.delta_audit(edit, metrics=metrics, k=TOP_K)
                t1 = time.perf_counter()
                query = delta.after.queries[c % len(metrics)]
                view = session.explainer(metric=query.metric)
                updates = view.explain_updates(query.explanations, verify=False)
                t2 = time.perf_counter()
                self.phase("check")
            except Exception:
                self.phase("check")
                traceback.print_exc(file=sys.stderr)
                self.fail(1, f"cycle {cycles} raised")
                continue
            m.delta_ms.append((t1 - t0) * 1e3)
            m.repair_ms.append((t2 - t1) * 1e3)
            m.steps_ms.setdefault(j, []).append((t2 - t0) * 1e3)
            m.query_s += t2 - t0
            m.delta_queries += len(delta.queries)
            m.certified += delta.num_certified
            answers = [e.est_responsibility for q in delta.after for e in q.explanations]
            if not (
                checks.finite(answers) and checks.finite(u.est_bias_change for u in updates)
            ):
                self.fail(1, f"cycle {cycles} returned a non-finite score")
            # Every delta answer must equal a fresh audit of the patched
            # session.  The fresh audit becomes the session's last_audit, so
            # the next cycle replays from a search, not from a replay: chains
            # of replays-of-replays drift from the fresh search (1 of 48
            # chains of 4 edits, 4 of 24 chains of 8 relabels).
            fresh = self.audit(session)
            differ = checks.audit_mismatches(delta.after, fresh, session.train_data.table)
            self.fail(differ > 0, f"cycle {cycles}: delta_audit differs from a fresh audit "
                      f"on {differ} queries")
        for session in sessions:
            m.count(session.stats, *_COUNTERS)


def percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else math.nan


def pooled(per_dataset: dict[int, list[float]]) -> list[float]:
    return [value for values in per_dataset.values() for value in values]


def mean_of_medians(per_dataset: dict[int, list[float]]) -> float:
    """The mean over pool datasets of each dataset's median.

    Pool datasets differ in cost by design, so pooling their samples into
    one median would let it jump between datasets; averaging per-dataset
    medians weighs every dataset equally however many samples it got.
    """
    return float(np.mean([np.median(v) for v in per_dataset.values()]))
