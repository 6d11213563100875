"""Exporters: Chrome ``trace_event`` JSON and Prometheus text.

Two machine-readable views of one run:

- :func:`write_chrome_trace` -- a Perfetto/``chrome://tracing``-loadable
  JSON object.  Wall-clock spans render as complete (``"ph": "X"``)
  events on the real process/threads; each simulated schedule renders
  as its own process lane (one ``pid`` per track label, one ``tid``
  per simulated hardware thread), so the DES schedule appears as a
  gantt chart next to the interpreter time that produced it.
- :func:`write_prometheus` -- the registry in Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / sample lines, histogram
  ``_bucket``/``_sum``/``_count`` expansion), stable ordering.

All output is deterministic for a deterministic run: events sort by
timestamp (ties broken by lane), JSON keys are emitted in fixed order,
and metric families sort by name and label set.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, List

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.tracer import SpanTracer

#: pid of the wall-clock (real interpreter) lane in the Chrome trace.
WALL_PID = 1

#: First pid of the simulated-timeline lanes; one pid per track label.
SIM_PID_BASE = 1000


def _us(seconds: float) -> float:
    return round(seconds * 1e6, 3)


def chrome_trace_events(tracer: SpanTracer) -> List[dict]:
    """The tracer's contents as a ``traceEvents`` list.

    Metadata (``"M"``) events come first; timed events follow sorted by
    timestamp so the stream is monotonic (ties broken by pid/tid), which
    is what ``scripts/validate_obs.py`` checks in CI.
    """
    meta: List[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": WALL_PID,
            "tid": 0,
            "args": {"name": "wall clock"},
        }
    ]
    timed: List[dict] = []
    for name, cat, tid, start, dur, cycles, args in tracer.events():
        event = {
            "name": name,
            "cat": cat,
            "ph": "X",
            "ts": _us(start),
            "dur": _us(dur),
            "pid": WALL_PID,
            "tid": tid,
        }
        event_args = dict(args) if args else {}
        if cycles:
            event_args["sim_cycles"] = cycles
        if event_args:
            event["args"] = event_args
        timed.append(event)

    for index, (track, rows) in enumerate(sorted(tracer.sim_tracks().items())):
        pid = SIM_PID_BASE + index
        meta.append(
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"sim {track}"},
            }
        )
        seen_threads = set()
        for thread, name, start_us, dur_us in rows:
            if thread not in seen_threads:
                seen_threads.add(thread)
                meta.append(
                    {
                        "name": "thread_name",
                        "ph": "M",
                        "pid": pid,
                        "tid": thread,
                        "args": {"name": f"sim thread {thread}"},
                    }
                )
            timed.append(
                {
                    "name": name,
                    "cat": "sim",
                    "ph": "X",
                    "ts": round(start_us, 3),
                    "dur": round(dur_us, 3),
                    "pid": pid,
                    "tid": thread,
                }
            )
    timed.sort(key=lambda e: (e["ts"], e["pid"], e["tid"]))
    return meta + timed


def write_chrome_trace(tracer: SpanTracer, path) -> Path:
    """Write the Chrome ``trace_event`` JSON object; returns the path."""
    payload = {
        "traceEvents": chrome_trace_events(tracer),
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs",
            "dropped_events": tracer.dropped_events,
            "dropped_sim_events": tracer.dropped_sim_events,
        },
    }
    path = Path(path)
    with open(path, "w") as handle:
        json.dump(payload, handle, separators=(",", ":"))
        handle.write("\n")
    return path


def _format_value(value: float) -> str:
    """Prometheus sample value: integers stay integral."""
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _labels_text(pairs) -> str:
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{_escape(v)}"' for k, v in pairs)
    return "{" + inner + "}"


def _bucket_text(pairs, le: str) -> str:
    inner = ",".join(
        [f'{k}="{_escape(v)}"' for k, v in pairs] + [f'le="{le}"']
    )
    return "{" + inner + "}"


def prometheus_text(registry: MetricsRegistry) -> str:
    """The registry in Prometheus text exposition format."""
    lines: List[str] = []
    for name, kind, help, series in registry.families():
        # Every family gets HELP and TYPE (scrapers and diffing both
        # want the full header); a family registered without help text
        # falls back to its own name rather than dropping the line.
        lines.append(f"# HELP {name} {_escape(help or name)}")
        lines.append(f"# TYPE {name} {kind}")
        for labelset, metric in series:
            if isinstance(metric, Histogram):
                cumulative = metric.cumulative()
                bounds = [repr(float(b)) for b in metric.buckets] + ["+Inf"]
                for le, count in zip(bounds, cumulative):
                    lines.append(
                        f"{name}_bucket{_bucket_text(labelset, le)} {count}"
                    )
                lines.append(
                    f"{name}_sum{_labels_text(labelset)} "
                    f"{_format_value(metric.sum)}"
                )
                lines.append(
                    f"{name}_count{_labels_text(labelset)} {metric.count}"
                )
            else:
                lines.append(
                    f"{name}{_labels_text(labelset)} "
                    f"{_format_value(metric.value)}"
                )
    return "\n".join(lines) + ("\n" if lines else "")


def write_prometheus(registry: MetricsRegistry, path) -> Path:
    """Write the Prometheus text dump; returns the path."""
    path = Path(path)
    path.write_text(prometheus_text(registry))
    return path
