"""One lazily built slot of a shared cache: its lock, trace adds, counter and span."""

from __future__ import annotations

import threading

from repro.obs import trace


class Lazy:
    """One value per key, built on first read; a build that raises stores
    nothing.  A hit adds ``cache_hits`` to the caller's span; a miss adds
    ``cache_misses`` and builds in a span named ``name`` whose ``reason`` is
    ``"first use"``, ``"new key"`` (other keys are built) or what
    :meth:`drop` was told, e.g. ``edit(remove 8)``.  ``stats``/``counter``
    name the build counter (None: uncounted); slots whose builds read each
    other share one re-entrant ``lock``.  ``peek``/``set`` (for edit paths)
    neither count nor trace."""

    def __init__(self, name: str, stats=None, counter: str | None = None, lock=None) -> None:
        self.name, self._stats, self._counter = name, stats, counter
        self._lock = lock if lock is not None else threading.Lock()
        self._values: dict = {}
        self._dropped: dict = {}  # key -> why its value was dropped

    def get(self, build, key=None):
        """The value of ``key``, running ``build()`` if it is not built."""
        try:
            value = self._values[key]
        except KeyError:
            with self._lock:
                if key not in self._values:
                    trace.add("cache_misses")
                    reason = self._dropped.get(key) or ("new key" if self._values else "first use")
                    with trace.span(self.name, reason=reason):
                        value = self._values[key] = build()
                    self._dropped.pop(key, None)
                    if self._stats is not None:
                        self._stats.inc(self._counter)
                    return value
                value = self._values[key]
        trace.add("cache_hits")
        return value

    def peek(self, key=None):
        return self._values.get(key)

    def items(self) -> list:
        return list(self._values.items())

    def set(self, value, key=None) -> None:
        with self._lock:
            self._values[key] = value
            self._dropped.pop(key, None)

    def drop(self, reason: str) -> None:
        """Forget every value; each one's next build names ``reason``."""
        with self._lock:
            self._dropped.update(dict.fromkeys(self._values, reason))
            self._values.clear()
