"""`repro.obs` — observability for the audit query path.

Three layers, always compiled in, near-free when disabled:

* :mod:`repro.obs.trace` — hierarchical spans over the whole query path
  (``trace.span`` / ``trace.add``), exported as structured JSON, Chrome
  ``trace_event`` (Perfetto-loadable), or a terminal tree;
* :mod:`repro.obs.metrics` — a thread-safe :class:`MetricsRegistry` of
  counters / gauges / fixed-bucket histograms that the shared caches
  register into, each cache reading its own namespace through a
  dict-shaped :class:`StatsView`;
* :mod:`repro.obs.cost` — per-query :class:`CostReport` (GEMM/solve
  FLOPs from recorded shapes, influence evaluations, cache hit ratios,
  ``%self`` wall-time breakdown) derived from one query's span subtree.
"""

from repro.obs import trace
from repro.obs.cost import CostLine, CostReport, gemm_flops, solve_flops
from repro.obs.metrics import MetricsRegistry, StatsView
from repro.obs.trace import (
    NULL_SPAN,
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    set_tracer,
    tracing,
)

__all__ = [
    "NULL_SPAN",
    "NULL_TRACER",
    "CostLine",
    "CostReport",
    "MetricsRegistry",
    "NullTracer",
    "Span",
    "StatsView",
    "Tracer",
    "disable",
    "enable",
    "gemm_flops",
    "get_tracer",
    "set_tracer",
    "solve_flops",
    "trace",
    "tracing",
]
