"""Span tracing: nested, thread-safe, wall-time + simulated-cycle spans.

The tracer is the single timing engine behind two consumers:

- the layer table (:meth:`SpanTracer.table`) that ``--profile``, the
  HTML report and ``--metrics-out`` show: per span name (a layer of the
  run, named as in ``bench_e2e``'s traced runs) its total, *self* time
  and calls, whose self times sum to the :data:`ROOT` span's total;
- the Chrome ``trace_event`` export (``--trace-out``), which renders the
  wall-clock span tree plus the *simulated* per-thread task timelines
  recorded by the schedulers.

Two cost regimes:

- **Disabled** (the default): :meth:`SpanTracer.span` returns a shared
  no-op context manager, so the hot layers pay one attribute check and
  allocate nothing.
- **Enabled**: each span pushes onto a per-thread stack, aggregates its
  duration and self-time (duration minus time spent in child spans)
  into per-name totals on exit, and -- when ``keep_events`` is on --
  appends one completed-event record for the exporters.

Spans carry both wall seconds and an optional *simulated-cycle*
attribution (:meth:`SpanHandle.add_cycles`), so a phase's report can
relate interpreter time to the simulated work it produced.

Everything here is stdlib-only; the tracer must stay importable from
the innermost simulator layers without dragging them in circularly.
"""

from __future__ import annotations

import functools
import threading
import time
from typing import Dict, List, Optional, Tuple

#: Default cap on stored events; past it new events are counted but
#: dropped, so an un-capped full-scale sweep cannot exhaust memory.
DEFAULT_MAX_EVENTS = 500_000

#: The root span: ``repro``'s ``main`` opens it around the whole run.  Its
#: self time is what no other span claims.
ROOT = "driver"

#: Default cap on stored simulated-timeline slices (one slice = one
#: task on one simulated thread).
DEFAULT_MAX_SIM_EVENTS = 200_000


class _NullSpan:
    """Shared no-op span: returned when the tracer is disabled.

    A singleton, so the disabled hot path allocates nothing; its
    mutators swallow their arguments.
    """

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def add_cycles(self, cycles: float) -> None:
        pass


#: The singleton handed out by a disabled tracer.
NULL_SPAN = _NullSpan()


class SpanHandle:
    """One live span: context manager + mutation handle."""

    __slots__ = (
        "_tracer", "name", "cat", "args", "start", "child_seconds", "cycles"
    )

    def __init__(
        self, tracer: "SpanTracer", name: str, cat: str, args: Optional[dict]
    ) -> None:
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = dict(args) if args else None
        self.start = 0.0
        self.child_seconds = 0.0
        self.cycles = 0.0

    def add_cycles(self, cycles: float) -> None:
        """Attribute simulated cycles to this span."""
        self.cycles += cycles

    def __enter__(self) -> "SpanHandle":
        self._tracer._push(self)
        self.start = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        end = time.perf_counter()
        self._tracer._pop(self, end)
        return False


class _ThreadState(threading.local):
    """Per-thread span stack plus a stable small integer thread id."""

    def __init__(self) -> None:
        self.stack: List[SpanHandle] = []
        self.tid: Optional[int] = None


class SpanTracer:
    """Nested span tracer with per-name total and self-time aggregation.

    Thread-safe: span stacks are thread-local; the finished-event list
    and the aggregate tables take a lock only on span exit (spans are
    batch-granular, so this is far off the simulator's hot path).
    """

    def __init__(
        self,
        max_events: int = DEFAULT_MAX_EVENTS,
        max_sim_events: int = DEFAULT_MAX_SIM_EVENTS,
    ) -> None:
        self.enabled = False
        self.keep_events = False
        self.sim_timeline = False
        self.max_events = max_events
        self.max_sim_events = max_sim_events
        self._lock = threading.Lock()
        self._local = _ThreadState()
        self._epoch = time.perf_counter()
        self._next_tid = 0
        # {name: [total_seconds, self_seconds, calls]}
        self._totals: Dict[str, list] = {}
        # Finished span events: (name, cat, tid, start_s, dur_s, cycles, args)
        self._events: List[tuple] = []
        self.dropped_events = 0
        # Simulated timeline: {track_label: [(tid_in_track, name,
        #                                     start_us, dur_us), ...]}
        self._sim_tracks: Dict[str, List[tuple]] = {}
        self._sim_count = 0
        self.dropped_sim_events = 0

    # -- lifecycle ------------------------------------------------------

    def enable(
        self, keep_events: bool = False, sim_timeline: bool = False
    ) -> None:
        """Turn the tracer on; flags only ever widen what is collected."""
        self.enabled = True
        self.keep_events = self.keep_events or keep_events
        self.sim_timeline = self.sim_timeline or sim_timeline

    def disable(self) -> None:
        self.enabled = False
        self.keep_events = False
        self.sim_timeline = False

    def reset(self) -> None:
        """Drop all collected data (enabled state is untouched)."""
        with self._lock:
            self._totals.clear()
            self._events.clear()
            self._sim_tracks.clear()
            self._sim_count = 0
            self.dropped_events = 0
            self.dropped_sim_events = 0
            self._epoch = time.perf_counter()

    # -- spans ----------------------------------------------------------

    def span(self, name: str, cat: str = "phase", args: Optional[dict] = None):
        """A context manager timing one span (no-op singleton if disabled)."""
        if not self.enabled:
            return NULL_SPAN
        return SpanHandle(self, name, cat, args)

    def layer(self, name: str, cycles=None):
        """Decorator: each call of the function is one span ``name``, given
        ``cycles(result)`` simulated cycles if ``cycles`` is set."""

        def decorate(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                if not self.enabled:
                    return fn(*args, **kwargs)
                with SpanHandle(self, name, "phase", None) as span:
                    result = fn(*args, **kwargs)
                    span.add_cycles(cycles(result) if cycles else 0.0)
                return result

            return traced

        return decorate

    def _push(self, span: SpanHandle) -> None:
        self._local.stack.append(span)

    def _pop(self, span: SpanHandle, end: float) -> None:
        stack = self._local.stack
        # Exits are LIFO per thread; tolerate a foreign pop defensively.
        if stack and stack[-1] is span:
            stack.pop()
        duration = end - span.start
        if stack:
            stack[-1].child_seconds += duration
        # A span re-entered inside itself is in its outer span's total.
        outermost = all(open_span.name != span.name for open_span in stack)
        with self._lock:
            entry = self._totals.setdefault(span.name, [0.0, 0.0, 0])
            entry[0] += duration if outermost else 0.0
            entry[1] += duration - span.child_seconds
            entry[2] += 1
            if self.keep_events:
                if len(self._events) < self.max_events:
                    self._events.append(
                        (
                            span.name,
                            span.cat,
                            self._thread_id(),
                            span.start - self._epoch,
                            duration,
                            span.cycles,
                            span.args,
                        )
                    )
                else:
                    self.dropped_events += 1

    def _thread_id(self) -> int:
        """Small, stable integer id for the calling thread."""
        tid = self._local.tid
        if tid is None:
            tid = self._next_tid
            self._next_tid += 1
            self._local.tid = tid
        return tid

    # -- simulated timeline ---------------------------------------------

    def record_schedule_threads(
        self,
        track: str,
        threads,
        starts_us,
        ends_us,
        names=None,
    ) -> None:
        """Record one scheduled phase as slices on a simulated track.

        ``track`` names the simulated process/thread group (e.g.
        ``"sim Talk/DAH"``); ``threads`` holds each task's simulated
        thread id; ``starts_us`` / ``ends_us`` are parallel sequences of
        per-task simulated timestamps in microseconds, already offset so
        consecutive batches abut; ``names`` optionally labels each slice
        (defaults to ``task``).
        """
        if not (self.enabled and self.sim_timeline):
            return
        n = len(starts_us)
        with self._lock:
            room = self.max_sim_events - self._sim_count
            if room <= 0:
                self.dropped_sim_events += n
                return
            take = min(n, room)
            self.dropped_sim_events += n - take
            slices = self._sim_tracks.setdefault(track, [])
            for i in range(take):
                label = names[i] if names is not None else "task"
                slices.append(
                    (int(threads[i]), label, float(starts_us[i]),
                     float(ends_us[i]) - float(starts_us[i]))
                )
            self._sim_count += take

    # -- read side ------------------------------------------------------

    def table(self) -> List[Tuple[str, float, float, int]]:
        """``(name, total_s, self_s, calls)`` rows, :data:`ROOT` first, then
        by self time.  Spans absorbed from ``--jobs`` workers ran beside the
        root, not inside it, and add to the self times' sum."""
        with self._lock:
            rows = [(name, *entry) for name, entry in self._totals.items()]
        return sorted(rows, key=lambda row: (row[0] != ROOT, -row[2], row[0]))

    def span_coverage_ratio(self) -> float:
        """The share of the root's wall time a named span claims (0 if no root)."""
        with self._lock:
            total, own, _ = self._totals.get(ROOT, (0.0, 0.0, 0))
        return 1.0 - own / total if total > 0.0 else 0.0

    def events(self) -> List[tuple]:
        """Finished span events, in completion order."""
        with self._lock:
            return list(self._events)

    def sim_tracks(self) -> Dict[str, List[tuple]]:
        """{track label: [(thread, name, start_us, dur_us), ...]}."""
        with self._lock:
            return {track: list(rows) for track, rows in self._sim_tracks.items()}

    # -- cross-process transport ----------------------------------------

    def to_payload(self) -> dict:
        """Picklable snapshot of everything collected so far.

        Workers in a ``--jobs`` pool return this; the parent absorbs it
        with :meth:`absorb`, which is how a sweep's trace covers cells
        that executed in other processes.
        """
        with self._lock:
            return {
                "totals": {k: list(v) for k, v in self._totals.items()},
                "events": list(self._events),
                "sim_tracks": {k: list(v) for k, v in self._sim_tracks.items()},
                "dropped_events": self.dropped_events,
                "dropped_sim_events": self.dropped_sim_events,
            }

    def absorb(self, payload: dict) -> None:
        """Merge a worker's :meth:`to_payload` snapshot into this tracer."""
        with self._lock:
            for name, entry in payload.get("totals", {}).items():
                mine = self._totals.setdefault(name, [0.0, 0.0, 0])
                for field, value in enumerate(entry):
                    mine[field] += value
            for event in payload.get("events", []):
                if len(self._events) >= self.max_events:
                    self.dropped_events += 1
                    continue
                self._events.append(tuple(event))
            for track, rows in payload.get("sim_tracks", {}).items():
                slices = self._sim_tracks.setdefault(track, [])
                for row in rows:
                    if self._sim_count >= self.max_sim_events:
                        self.dropped_sim_events += 1
                        continue
                    slices.append(tuple(row))
                    self._sim_count += 1
            self.dropped_events += payload.get("dropped_events", 0)
            self.dropped_sim_events += payload.get("dropped_sim_events", 0)


#: The process-global tracer every instrumented layer records into.
TRACER = SpanTracer()
