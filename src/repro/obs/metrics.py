"""A typed, thread-safe counter registry for the shared caches.

The registry replaces the ad-hoc counter dicts that ``ModelArtifacts``,
``AlphabetCache`` and ``HessianSolver`` each grew independently.  It holds
one metric kind — **counters**, monotonically increasing integers (cache
builds and hits) incremented under the registry lock, so counts stay exact
under concurrent serving.  Timings live in the spans of
:mod:`repro.obs.trace`, not here.

:class:`StatsView` is a dict-shaped view over one namespace of a
registry: ``artifacts.stats["hessian_builds"]`` reads the shared,
lock-protected ``influence.hessian_builds`` counter.  Counter bumps go
through :meth:`StatsView.inc`, which ``tools/reprolint`` (RL002)
recognises as counter discipline.
"""

from __future__ import annotations

import threading
from collections.abc import Iterator, MutableMapping


class MetricsRegistry:
    """Namespaced, lock-protected integer counters."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._counters: dict[str, int] = {}

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

    # -- export ---------------------------------------------------------
    def snapshot(self) -> dict[str, dict[str, int]]:
        """A point-in-time copy: ``{"counters": {name: value}}``."""
        with self._lock:
            return {"counters": dict(self._counters)}


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
