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
(:mod:`repro.obs.report`, ``--report-out``).

See ``docs/OBSERVABILITY.md`` for capture and reading instructions.
"""

from repro import lazy_exports

_EXPORTS = {
    "DEFAULT_COUNT_BUCKETS": "metrics",
    "METRICS": "metrics",
    "MetricsRegistry": "metrics",
    "NULL_SPAN": "tracer",
    "SpanTracer": "tracer",
    "TRACER": "tracer",
    "chrome_trace_events": "export",
    "prometheus_text": "export",
    "write_chrome_trace": "export",
    "write_prometheus": "export",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
