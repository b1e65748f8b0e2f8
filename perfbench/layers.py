"""Per-layer accounting for the traced benchmark run.

The benchmark wraps the public entry points of each ``repro`` module from
the outside — no spans inside ``src`` — and records, per layer:

* ``calls``: entries into the layer from outside it (a layer function that
  calls another function of the same layer counts once);
* ``busy``: inclusive wall time, counted for the outermost active frame of
  the layer only, so recursion and same-layer nesting are not counted
  twice;
* ``self``: busy time minus the time spent in nested calls of *other*
  wrapped layers (a layer's own nested frames subtract from their caller
  and add to themselves, so the total is unchanged);
* ``items``: per-layer counters extracted from arguments or results
  (subsets scored, candidates evaluated, ...).

Accounting is split by phase (``"setup"`` and ``"query"``) so set-up layers
and query-path layers each have their own denominator.  The recorder is
single-threaded, like the benchmark that drives it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class LayerStats:
    calls: int = 0
    busy: float = 0.0
    self_time: float = 0.0
    items: dict[str, float] = field(default_factory=lambda: defaultdict(float))


class Recorder:
    """Call, busy-time and self-time accounting for wrapped layers."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.phases: dict[str, dict[str, LayerStats]] = {}
        self.phase = "setup"
        self.entries: dict[str, int] = defaultdict(int)  # wrapped calls per phase
        self._stack: list[list] = []  # [layer, start, child_seconds]
        self._active: dict[str, int] = defaultdict(int)

    def stats(self, phase: str | None = None) -> dict[str, LayerStats]:
        return self.phases.setdefault(phase or self.phase, {})

    def layer(self, name: str, phase: str | None = None) -> LayerStats:
        return self.stats(phase).get(name) or LayerStats()

    def fired(self) -> set[str]:
        """Layers entered at least once, in any phase."""
        return {name for stats in self.phases.values() for name, s in stats.items() if s.calls}

    def call(self, layer: str, fn, args, kwargs, count=None):
        stats = self.stats().setdefault(layer, LayerStats())
        self.entries[self.phase] += 1
        outermost = self._active[layer] == 0
        if outermost:
            stats.calls += 1
        self._active[layer] += 1
        frame = [layer, self.clock(), 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = self.clock() - frame[1]
            self._stack.pop()
            self._active[layer] -= 1
            stats.self_time += elapsed - frame[2]
            if outermost:
                stats.busy += elapsed
            if self._stack:
                self._stack[-1][2] += elapsed
        if count is not None and outermost:
            for key, value in count(args, kwargs, result).items():
                stats.items[key] += value
        return result


def wrapper_cost(calls: int = 20000) -> float:
    """Seconds one wrapped call adds over a direct call, measured on a no-op.

    Multiplied by the wrapped calls of a phase, this estimates what tracing
    added to the phase without differencing two noisy wall-clock runs.
    """

    def noop():
        return None

    wrapped = _wrap_function(Recorder(), "calibration", noop, None)
    clock = time.perf_counter
    start = clock()
    for _ in range(calls):
        noop()
    direct = clock() - start
    start = clock()
    for _ in range(calls):
        wrapped()
    return max(clock() - start - direct, 0.0) / calls


def _wrap_function(recorder: Recorder, layer: str, fn, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(layer, fn, args, kwargs, count)

    return wrapper


def _subclasses(cls: type) -> list[type]:
    seen, todo = [cls], list(cls.__subclasses__())
    while todo:
        sub = todo.pop()
        if sub not in seen:
            seen.append(sub)
            todo.extend(sub.__subclasses__())
    return seen


@dataclass(frozen=True)
class Target:
    """One wrapped entry point: ``owner.name`` belongs to ``layer``.

    ``owner`` is a module (module-level function) or a class (method;
    overrides of ``name`` in every subclass are wrapped too).  ``count``
    maps ``(args, kwargs, result)`` to per-layer item counters.
    """

    layer: str
    owner: object
    name: str
    count: object = None


class Patches:
    """Installs wrappers for a set of targets and restores the originals."""

    def __init__(self, recorder: Recorder, targets: list[Target]) -> None:
        self.recorder = recorder
        self.targets = targets
        self._saved: list[tuple[object, str, object]] = []

    def _set(self, owner, name, value) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def install(self) -> "Patches":
        for target in self.targets:
            if isinstance(target.owner, type):
                self._install_method(target)
            else:
                self._install_function(target)
        return self

    def _install_method(self, target: Target) -> None:
        for cls in _subclasses(target.owner):
            raw = cls.__dict__.get(target.name)
            if raw is None:
                continue
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(
                    _wrap_function(self.recorder, target.layer, raw.__func__, target.count)
                )
            else:
                wrapped = _wrap_function(self.recorder, target.layer, raw, target.count)
            self._set(cls, target.name, wrapped)

    def _install_function(self, target: Target) -> None:
        original = getattr(target.owner, target.name)
        wrapped = _wrap_function(self.recorder, target.layer, original, target.count)
        # Rebind the name in every module that imported it with
        # ``from module import name``, or those call sites stay unwrapped.
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and module.__dict__.get(target.name) is original
            ):
                self._set(module, target.name, wrapped)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._saved):
            setattr(owner, name, original)
        self._saved.clear()

    def __enter__(self) -> "Patches":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()


# ----------------------------------------------------------------------
# The layer map: which entry points make up each layer of ``repro``.


def _batch_size(args, kwargs, result) -> dict[str, float]:
    subsets = args[1] if len(args) > 1 else kwargs["subsets"]
    shape = getattr(subsets, "shape", None)
    return {"subsets": shape[0] if shape is not None else len(subsets)}


def _search_counts(args, kwargs, result) -> dict[str, float]:
    return {"evaluated": result.num_evaluated, "candidates": len(result.candidates)}


def repro_targets() -> list[Target]:
    """Every wrapped entry point, grouped by layer name."""
    from repro.core import delta, explainer, session
    from repro.datasets import encoding, german, scale, splits
    from repro.fairness import metrics
    from repro.influence import artifacts, estimators, hessian
    from repro.mining import alphabet, closed
    from repro.models import base
    from repro.patterns import lattice, topk
    from repro.updates import projected_gd

    metric_methods = ("value", "surrogate", "grad_theta", "value_batch", "surrogate_batch")
    alphabet_methods = ("pair_skeleton", "miner_items", "warm", "record_mining_counters")
    return [
        Target("datasets.load", german, "load_german"),
        Target("datasets.load", scale, "load_synth_scale"),
        Target("datasets.load", splits, "train_test_split"),
        Target("datasets.encode", encoding.TabularEncoder, "fit"),
        Target("datasets.encode", encoding.TabularEncoder, "transform"),
        Target("models.fit", base.TwiceDifferentiableClassifier, "fit"),
        Target("core.session.fit", session.AuditSession, "fit"),
        Target("core.session.warm", session.AuditSession, "warm"),
        Target("core.explainer.explain", explainer.GopherExplainer, "explain"),
        Target("core.delta.replay", delta, "replay_search"),
        Target("core.delta.replay", delta, "replay_geometry"),
        Target("influence.hessian.factorize", hessian.HessianSolver, "__init__"),
        Target("influence.hessian.update", hessian.HessianSolver, "updated"),
        Target("influence.hessian.solve", hessian.HessianSolver, "solve"),
        Target("influence.hessian.solve", hessian.HessianSolver, "solve_many"),
        Target("influence.hessian.solve", hessian.HessianSolver, "shifted_solve_many"),
        *(
            Target("influence.estimators.batch", estimators.InfluenceEstimator, name, _batch_size)
            for name in ("param_change_batch", "bias_change_batch", "responsibility_batch")
        ),
        Target("influence.artifacts.apply_edit", artifacts.ModelArtifacts, "apply_edit"),
        Target("patterns.lattice", lattice, "compute_candidates", _search_counts),
        Target("patterns.topk", topk, "select_top_k"),
        Target("mining.closed", closed, "mine_closed_candidates", _search_counts),
        Target("mining.alphabet", alphabet.AlphabetCache, "get"),
        *(Target("mining.alphabet", alphabet.PredicateAlphabet, name) for name in alphabet_methods),
        Target("mining.alphabet.apply_edit", alphabet.AlphabetCache, "apply_edit"),
        Target("mining.alphabet.apply_edit", alphabet.PredicateAlphabet, "apply_edit"),
        Target("updates.projected_gd", projected_gd, "find_update_explanations"),
        *(Target("fairness.metrics", metrics.FairnessMetric, name) for name in metric_methods),
    ]
