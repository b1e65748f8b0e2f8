"""A typed, thread-safe metrics registry for the shared caches.

The registry replaces the ad-hoc counter dicts that ``ModelArtifacts``,
``AlphabetCache`` and ``HessianSolver`` each grew independently.  Three
metric kinds:

* **counters** — monotonically increasing integers (cache builds and
  hits); incremented under the registry lock, so counts stay exact under
  concurrent serving;
* **gauges** — last-written values (sizes, versions);
* **histograms** — timing distributions over *fixed* bucket edges, so
  snapshots from different processes are mergeable bucket-by-bucket.

:class:`StatsView` is a dict-shaped view over one namespace of a
registry: ``artifacts.stats["hessian_builds"]`` reads the shared,
lock-protected ``influence.hessian_builds`` counter.  Counter bumps go
through :meth:`StatsView.inc`, which ``tools/reprolint`` (RL002)
recognises as counter discipline.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from collections.abc import Iterator, MutableMapping
from typing import Any

_DEFAULT_EDGES = (0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10.0)


class _Histogram:
    __slots__ = ("counts", "edges", "observations", "total")

    def __init__(self, edges: tuple[float, ...]) -> None:
        self.edges = edges
        self.counts = [0] * (len(edges) + 1)
        self.total = 0.0
        self.observations = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_right(self.edges, value)] += 1
        self.total += value
        self.observations += 1

    def snapshot(self) -> dict[str, Any]:
        return {
            "edges": list(self.edges),
            "counts": list(self.counts),
            "sum": self.total,
            "count": self.observations,
        }


class MetricsRegistry:
    """Namespaced counters, gauges, and fixed-bucket timing histograms."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, _Histogram] = {}

    # -- counters -------------------------------------------------------
    def register_counter(self, name: str, initial: int = 0) -> None:
        with self._lock:
            self._counters.setdefault(name, initial)

    def inc(self, name: str, n: int = 1) -> int:
        """Atomically add ``n`` to a counter, creating it at zero if new."""
        with self._lock:
            value = self._counters.get(name, 0) + n
            self._counters[name] = value
            return value

    def set_counter(self, name: str, value: int) -> None:
        with self._lock:
            self._counters[name] = value

    def get(self, name: str, default: int | None = None) -> int:
        with self._lock:
            if name in self._counters:
                return self._counters[name]
            if default is None:
                raise KeyError(name)
            return default

    # -- gauges ---------------------------------------------------------
    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    # -- histograms -----------------------------------------------------
    def register_histogram(
        self, name: str, edges: tuple[float, ...] = _DEFAULT_EDGES
    ) -> None:
        with self._lock:
            if name not in self._histograms:
                self._histograms[name] = _Histogram(tuple(edges))

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = _Histogram(_DEFAULT_EDGES)
            hist.observe(value)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """A point-in-time copy: ``{"counters", "gauges", "histograms"}``."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {k: h.snapshot() for k, h in self._histograms.items()},
            }

    def diff(self, before: dict[str, Any]) -> dict[str, Any]:
        """Counter/gauge deltas and histogram count deltas since ``before``."""
        now = self.snapshot()
        counters = {
            name: value - before.get("counters", {}).get(name, 0)
            for name, value in now["counters"].items()
        }
        gauges = {
            name: value - before.get("gauges", {}).get(name, 0.0)
            for name, value in now["gauges"].items()
        }
        histograms = {}
        for name, snap in now["histograms"].items():
            prev = before.get("histograms", {}).get(name, {})
            histograms[name] = {
                "count": snap["count"] - prev.get("count", 0),
                "sum": snap["sum"] - prev.get("sum", 0.0),
            }
        return {"counters": counters, "gauges": gauges, "histograms": histograms}

    def to_prometheus_text(self) -> str:
        """Prometheus exposition format (names sanitised ``.`` → ``_``)."""
        lines: list[str] = []
        snap = self.snapshot()
        for name in sorted(snap["counters"]):
            metric = _sanitise(name)
            lines.append(f"# TYPE {metric} counter")
            lines.append(f"{metric} {snap['counters'][name]}")
        for name in sorted(snap["gauges"]):
            metric = _sanitise(name)
            lines.append(f"# TYPE {metric} gauge")
            lines.append(f"{metric} {snap['gauges'][name]}")
        for name in sorted(snap["histograms"]):
            hist = snap["histograms"][name]
            metric = _sanitise(name)
            lines.append(f"# TYPE {metric} histogram")
            cumulative = 0
            for edge, count in zip(hist["edges"], hist["counts"]):
                cumulative += count
                lines.append(f'{metric}_bucket{{le="{edge}"}} {cumulative}')
            cumulative += hist["counts"][-1]
            lines.append(f'{metric}_bucket{{le="+Inf"}} {cumulative}')
            lines.append(f"{metric}_sum {hist['sum']}")
            lines.append(f"{metric}_count {hist['count']}")
        return "\n".join(lines) + "\n"


def _sanitise(name: str) -> str:
    return name.replace(".", "_").replace("-", "_")


class StatsView(MutableMapping):
    """Dict-shaped view over one namespace of a :class:`MetricsRegistry`.

    Declared counters are passed as a dict literal (so static counter
    discipline can read them off the AST) and registered under
    ``{namespace}.{key}``; the view exposes them under their short keys.
    ``inc`` is the thread-safe increment; plain ``view[key] += 1`` still
    works but is read-modify-write and reserved for single-threaded build
    paths.
    """

    __slots__ = ("_keys", "_namespace", "_registry")

    def __init__(
        self,
        counters: dict[str, int] | None = None,
        *,
        registry: MetricsRegistry | None = None,
        namespace: str = "",
    ) -> None:
        self._registry = registry if registry is not None else MetricsRegistry()
        self._namespace = namespace
        self._keys: list[str] = []
        for key, initial in (counters or {}).items():
            self._keys.append(key)
            self._registry.register_counter(self._full(key), initial)

    @property
    def registry(self) -> MetricsRegistry:
        return self._registry

    @property
    def namespace(self) -> str:
        return self._namespace

    def _full(self, key: str) -> str:
        return f"{self._namespace}.{key}" if self._namespace else key

    def inc(self, key: str, n: int = 1) -> int:
        """Thread-safe counter bump; registers the key on first use."""
        if key not in self._keys:
            self._keys.append(key)
        return self._registry.inc(self._full(key), n)

    # -- MutableMapping -------------------------------------------------
    def __getitem__(self, key: str) -> int:
        if key not in self._keys:
            raise KeyError(key)
        return self._registry.get(self._full(key), 0)

    def __setitem__(self, key: str, value: int) -> None:
        if key not in self._keys:
            self._keys.append(key)
        self._registry.set_counter(self._full(key), value)

    def __delitem__(self, key: str) -> None:
        raise TypeError("StatsView counters cannot be deleted")

    def __iter__(self) -> Iterator[str]:
        return iter(list(self._keys))

    def __len__(self) -> int:
        return len(self._keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"StatsView({dict(self)!r}, namespace={self._namespace!r})"
