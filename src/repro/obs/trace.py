"""Hierarchical tracing for the audit query path, and its one clock.

One :class:`Tracer` records a tree of :class:`Span` objects per thread.
Instrumented code never checks whether tracing is on — it always calls
``trace.span(...)`` / ``trace.add(...)`` through the module-level
helpers, and when tracing is disabled those route to a shared
:class:`NullTracer` whose spans only *time themselves*: a fresh two-slot
object reads :data:`clock` on entry and exit, records no attributes and
joins no tree.  Every duration the library reports is read off the
``seconds`` of the span that brackets its work, traced or not, so
:data:`clock` is the only clock in ``src``.  The disabled path is one
call, one small allocation and two clock reads — cheap enough to leave
in the hot loops permanently, since spans open per batch and per stage,
never per subset (asserted structurally by
``tests/obs/test_audit_observability.py``).

Exports
-------
* ``to_dict()`` — structured JSON (span tree with attributes)
* ``to_chrome_trace()`` — Chrome ``trace_event`` complete events; the
  object form (``{"traceEvents": [...]}``) loads directly in Perfetto,
  which ignores unknown top-level keys
* ``render_tree()`` — time-annotated terminal tree

Span-local attributes are plain key/value pairs.  Numeric costs that
accumulate *during* a span (FLOPs, cache hits, evaluation counts) are
added with :func:`add`, which targets the innermost open span on the
calling thread; :mod:`repro.obs.cost` folds them into per-query
:class:`~repro.obs.cost.CostReport` totals.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any

# The single clock of the library: traced and untraced spans both read it,
# so every reported duration is on the same time base.
clock = time.perf_counter

_COST_KEYS = ("gemm_flops", "solve_flops", "evaluations", "cache_hits", "cache_misses")


class Span:
    """One timed node in the trace tree.

    Entering the span starts its clock and makes it the innermost open
    span on the current thread; exiting stops the clock and re-attaches
    the parent.  ``attrs`` holds both keyword attributes given at
    creation and numeric costs accumulated via :meth:`add`.
    """

    __slots__ = ("attrs", "children", "end", "index", "name", "start", "tid", "tracer")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]) -> None:
        self.tracer = tracer
        self.name = name
        self.attrs = attrs
        self.index = -1
        self.start = 0.0
        self.end = 0.0
        self.tid = 0
        self.children: list[Span] = []

    # -- context manager ------------------------------------------------
    def __enter__(self) -> "Span":
        self.tracer._push(self)
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.tracer._pop(self)
        return False

    # -- recording ------------------------------------------------------
    def set(self, **attrs: Any) -> "Span":
        """Attach (or overwrite) span attributes."""
        self.attrs.update(attrs)
        return self

    def add(self, key: str, n: float = 1) -> "Span":
        """Accumulate a numeric attribute (e.g. ``gemm_flops``)."""
        self.attrs[key] = self.attrs.get(key, 0) + n
        return self

    # -- inspection -----------------------------------------------------
    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)

    @property
    def self_seconds(self) -> float:
        """Wall time not covered by child spans."""
        return max(0.0, self.seconds - sum(c.seconds for c in self.children))

    def walk(self):
        """Yield this span and every descendant, depth first."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self, epoch: float) -> dict[str, Any]:
        return {
            "name": self.name,
            "index": self.index,
            "start": self.start - epoch,
            "duration": self.seconds,
            "tid": self.tid,
            "attrs": dict(self.attrs),
            "children": [c.to_dict(epoch) for c in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, {self.seconds:.6f}s, attrs={self.attrs!r})"


class Tracer:
    """Collects spans into per-thread trees with a global monotonic order.

    Thread-safe: each thread keeps its own open-span stack (spans never
    nest across threads), while the span index counter and the finished
    root list are shared.
    """

    enabled = True

    def __init__(self, clock=clock) -> None:
        self.clock = clock
        self.epoch = clock()
        self.epoch_unix = time.time()
        self.roots: list[Span] = []
        self._counter = itertools.count()
        self._lock = threading.Lock()
        self._local = threading.local()
        self._tids: dict[int, int] = {}

    # -- span lifecycle -------------------------------------------------
    def span(self, name: str, **attrs: Any) -> Span:
        """Create a span; use as ``with tracer.span("name", k=v) as s:``."""
        return Span(self, name, attrs)

    def add(self, key: str, n: float = 1) -> None:
        """Accumulate ``n`` onto the innermost open span, if any."""
        stack = getattr(self._local, "stack", None)
        if stack:
            span = stack[-1]
            span.attrs[key] = span.attrs.get(key, 0) + n

    def current(self) -> Span | None:
        stack = getattr(self._local, "stack", None)
        return stack[-1] if stack else None

    def _push(self, span: Span) -> None:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span.index = next(self._counter)
        span.tid = self._tid()
        span.start = self.clock()
        stack.append(span)

    def _pop(self, span: Span) -> None:
        span.end = self.clock()
        stack = self._local.stack
        # Tolerate exceptions unwinding through several spans at once.
        while stack and stack[-1] is not span:
            dangling = stack.pop()
            dangling.end = span.end
        if stack:
            stack.pop()
        if stack:
            stack[-1].children.append(span)
        else:
            with self._lock:
                self.roots.append(span)

    def _tid(self) -> int:
        ident = threading.get_ident()
        tid = self._tids.get(ident)
        if tid is None:
            with self._lock:
                tid = self._tids.setdefault(ident, len(self._tids) + 1)
        return tid

    # -- inspection -----------------------------------------------------
    def walk(self):
        for root in self.roots:
            yield from root.walk()

    def span_count(self) -> int:
        return sum(1 for _ in self.walk())

    # -- exports --------------------------------------------------------
    def to_dict(self) -> dict[str, Any]:
        """Structured JSON export: the span forest plus trace metadata."""
        return {
            "schema_version": 1,
            "epoch_unix": self.epoch_unix,
            "span_count": self.span_count(),
            "spans": [root.to_dict(self.epoch) for root in self.roots],
        }

    def to_chrome_trace(self) -> dict[str, Any]:
        """Chrome ``trace_event`` complete ("X") events, Perfetto-loadable."""
        events = []
        for span in sorted(self.walk(), key=lambda s: s.index):
            events.append(
                {
                    "name": span.name,
                    "cat": span.name.split(".", 1)[0],
                    "ph": "X",
                    "ts": (span.start - self.epoch) * 1e6,
                    "dur": span.seconds * 1e6,
                    "pid": 1,
                    "tid": span.tid,
                    "args": {k: v for k, v in span.attrs.items() if _jsonable(v)},
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def export(self) -> dict[str, Any]:
        """Combined export: Chrome events plus the structured span tree.

        Perfetto reads ``traceEvents`` and ignores the extra keys, so one
        file serves both the UI and programmatic consumers.
        """
        out = self.to_chrome_trace()
        out.update(self.to_dict())
        return out

    def to_json(self, **kwargs: Any) -> str:
        return json.dumps(self.export(), default=str, **kwargs)

    def render_tree(self, max_depth: int | None = None) -> str:
        """Time-annotated terminal rendering of the span hierarchy."""
        lines: list[str] = []
        total = sum(r.seconds for r in self.roots) or 1.0
        for root in self.roots:
            self._render(root, "", True, total, lines, max_depth, depth=0, root=True)
        return "\n".join(lines)

    def _render(self, span, prefix, last, total, lines, max_depth, depth, root=False):
        if max_depth is not None and depth > max_depth:
            return
        connector = "" if root else ("└─ " if last else "├─ ")
        attrs = _format_attrs(span.attrs)
        pct = 100.0 * span.seconds / total
        lines.append(
            f"{prefix}{connector}{span.name}{attrs}  "
            f"{span.seconds * 1e3:.2f}ms ({pct:.1f}%)"
        )
        child_prefix = prefix if root else prefix + ("   " if last else "│  ")
        for i, child in enumerate(span.children):
            self._render(
                child, child_prefix, i == len(span.children) - 1,
                total, lines, max_depth, depth + 1,
            )


def _jsonable(value: Any) -> bool:
    return isinstance(value, (bool, int, float, str)) or value is None


def _format_attrs(attrs: dict[str, Any], limit: int = 4) -> str:
    if not attrs:
        return ""
    parts = []
    for key, value in itertools.islice(attrs.items(), limit):
        if isinstance(value, float):
            value = f"{value:.3g}"
        parts.append(f"{key}={value}")
    if len(attrs) > limit:
        parts.append("…")
    return " [" + " ".join(parts) + "]"


class _TimedSpan:
    """Disabled-mode span: times itself on :data:`clock`, records nothing else.

    Fresh per ``span()`` call, so nested and concurrent spans keep their
    own windows; ``clock`` is looked up at call time, so tests can patch it.
    """

    __slots__ = ("end", "start")

    def __init__(self) -> None:
        self.start = self.end = 0.0

    def __enter__(self) -> "_TimedSpan":
        self.start = clock()
        return self

    def __exit__(self, *exc_info: object) -> bool:
        self.end = clock()
        return False

    def set(self, **attrs: Any) -> "_TimedSpan":
        return self

    def add(self, key: str, n: float = 1) -> "_TimedSpan":
        return self

    @property
    def seconds(self) -> float:
        return max(0.0, self.end - self.start)


class NullTracer:
    """Disabled-mode tracer: hands out self-timing :class:`_TimedSpan` objects."""

    __slots__ = ()
    enabled = False

    def span(self, name: str, **attrs: Any) -> _TimedSpan:
        return _TimedSpan()

    def add(self, key: str, n: float = 1) -> None:
        return None

    def current(self) -> None:
        return None


NULL_TRACER = NullTracer()

_current: Tracer | NullTracer = NULL_TRACER


def get_tracer() -> Tracer | NullTracer:
    """The tracer instrumented code is currently routing spans to."""
    return _current


def set_tracer(tracer: Tracer | NullTracer) -> None:
    global _current
    _current = tracer


def enable() -> Tracer:
    """Install and return a fresh recording tracer."""
    tracer = Tracer()
    set_tracer(tracer)
    return tracer


def disable() -> None:
    """Restore the no-op tracer."""
    set_tracer(NULL_TRACER)


def span(name: str, **attrs: Any):
    """Open a span on the current tracer (timing only when tracing is off)."""
    return _current.span(name, **attrs)


def add(key: str, n: float = 1) -> None:
    """Accumulate a cost onto the innermost open span (no-op when off)."""
    _current.add(key, n)


class tracing:
    """``with tracing() as t:`` — record into a fresh tracer, then restore.

    A plain class (not ``contextlib.contextmanager``) so the previous
    tracer is restored even if the body raises through several frames.
    """

    def __init__(self, tracer: Tracer | None = None) -> None:
        self.tracer = tracer if tracer is not None else Tracer()
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer:
        self._previous = get_tracer()
        set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: object) -> bool:
        set_tracer(self._previous if self._previous is not None else NULL_TRACER)
        return False
