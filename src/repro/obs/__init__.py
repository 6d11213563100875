"""Unified observability: span tracing, metrics, exporters.

The measurement layers of this repo (driver, simulator, sweep engine)
record into two process-global singletons:

- :data:`TRACER` -- a nested, thread-safe span tracer carrying both
  wall time and simulated-cycle attribution
  (:mod:`repro.obs.tracer`).  ``--profile`` prints its layer
  table.
- :data:`METRICS` -- a registry of counters, gauges, and fixed-bucket
  histograms with an explicit cross-process ``merge``
  (:mod:`repro.obs.metrics`).

Both are **disabled by default** and cost one attribute check per
recording site when off.  The CLI's ``--trace-out`` / ``--metrics-out``
flags (on every subcommand) enable them and export on exit:

- Chrome ``trace_event`` JSON, loadable in Perfetto (wall-clock span
  tree plus per-thread simulated task timelines from the DES
  schedulers);
- Prometheus text format.

On top of the raw streams sits the self-contained HTML run report
(:mod:`repro.obs.report`, ``--report-out`` / ``repro report``).

See ``docs/OBSERVABILITY.md`` for capture and reading instructions.
"""

from repro.obs.export import (
    chrome_trace_events,
    prometheus_text,
    write_chrome_trace,
    write_prometheus,
)
from repro.obs.metrics import (
    DEFAULT_COUNT_BUCKETS,
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    METRICS,
    MetricsRegistry,
)
from repro.obs.report import render_report, write_report
from repro.obs.tracer import NULL_SPAN, SpanTracer, TRACER

__all__ = [
    "Counter",
    "DEFAULT_COUNT_BUCKETS",
    "DEFAULT_LATENCY_BUCKETS",
    "Gauge",
    "Histogram",
    "METRICS",
    "MetricsRegistry",
    "NULL_SPAN",
    "SpanTracer",
    "TRACER",
    "chrome_trace_events",
    "prometheus_text",
    "render_report",
    "write_chrome_trace",
    "write_prometheus",
]
