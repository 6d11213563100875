"""Metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the machine-readable side of the observability layer:
the instrumented layers record batch latencies, scheduler contention,
cache traffic, and engine cache hits into one process-global
:data:`METRICS` instance, and the exporters dump it as Prometheus text
(``--metrics-out``) or hand out a :meth:`MetricsRegistry.snapshot`
dict for embedding into JSON artifacts.

Hot-path contract: recording sites guard with ``if METRICS.enabled:``
-- one attribute check when observability is off, so the simulator's
inner loops stay unaffected.  Metric handles are created on first use
and cached by ``(name, labels)``; repeated lookups are one dict hit.

Cross-process: :meth:`MetricsRegistry.to_payload` produces a picklable
snapshot that a ``--jobs`` worker returns to the sweep engine, and
:meth:`MetricsRegistry.merge_payload` folds it into the parent --
counters and histograms add, gauges take the incoming value.  Merging
is associative and order-insensitive, so a parallel sweep's merged
registry equals the serial run's.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Dict, List, Optional, Tuple

#: Default histogram buckets for per-batch latencies, in seconds.
#: Log-spaced from 10 microseconds to 10 seconds; +Inf is implicit.
DEFAULT_LATENCY_BUCKETS = (
    1e-5, 2.5e-5, 5e-5,
    1e-4, 2.5e-4, 5e-4,
    1e-3, 2.5e-3, 5e-3,
    1e-2, 2.5e-2, 5e-2,
    1e-1, 2.5e-1, 5e-1,
    1.0, 2.5, 5.0, 10.0,
)

#: Histogram buckets for counts (frontier sizes, expanded edges):
#: powers of two up to 2**30; +Inf is implicit.
DEFAULT_COUNT_BUCKETS = tuple(float(1 << k) for k in range(31))

#: Label tuples are sorted (key, value) pairs.
LabelSet = Tuple[Tuple[str, str], ...]


def _labelset(labels: Dict[str, str]) -> LabelSet:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)
    kind = "counter"

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount


class Gauge:
    """Last-written value."""

    __slots__ = ("value",)
    kind = "gauge"

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """Fixed-bucket histogram (Prometheus cumulative-bucket semantics).

    ``buckets`` holds the finite upper bounds; an implicit +Inf bucket
    catches the tail.  ``counts[i]`` is the number of observations with
    value <= ``buckets[i]`` minus those counted by earlier buckets
    (i.e. *per-bucket*, cumulated only at export time).
    """

    __slots__ = ("buckets", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.buckets = tuple(float(b) for b in buckets)
        if list(self.buckets) != sorted(set(self.buckets)):
            raise ValueError(f"histogram buckets must be sorted unique: {buckets}")
        self.counts = [0] * (len(self.buckets) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.buckets, value)] += 1
        self.sum += value
        self.count += 1

    def cumulative(self) -> List[int]:
        """Cumulative counts per finite bucket plus the +Inf total."""
        out = []
        running = 0
        for c in self.counts:
            running += c
            out.append(running)
        return out


class MetricsRegistry:
    """Named, labeled metrics with merge support.

    Thread-safe: handle creation takes a lock; mutation of a handed-out
    handle is a single float update (atomic enough under the GIL for
    the batch-granular recording sites this repo has).
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        # {name: {labelset: metric}}
        self._metrics: Dict[str, Dict[LabelSet, object]] = {}
        # {name: (kind, help, buckets-or-None)}
        self._meta: Dict[str, Tuple[str, str, Optional[Tuple[float, ...]]]] = {}

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every metric (enabled state is untouched)."""
        with self._lock:
            self._metrics.clear()
            self._meta.clear()

    # -- handles --------------------------------------------------------

    def _get_labeled(self, name, kind, help, factory, labels, buckets):
        key = _labelset(labels)
        with self._lock:
            meta = self._meta.get(name)
            if meta is None:
                self._meta[name] = (kind, help, buckets)
            elif meta[0] != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {meta[0]}, not {kind}"
                )
            elif not meta[1] and help:
                # A help-less first touch (e.g. a merge from a worker
                # that shipped no help text) is upgraded by the first
                # caller that documents the family.
                self._meta[name] = (kind, help, meta[2])
            family = self._metrics.setdefault(name, {})
            metric = family.get(key)
            if metric is None:
                metric = factory()
                family[key] = metric
            return metric

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        """Get or create the counter ``name{labels}``."""
        return self._get_labeled(name, "counter", help, Counter, labels, None)

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        """Get or create the gauge ``name{labels}``."""
        return self._get_labeled(name, "gauge", help, Gauge, labels, None)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Tuple[float, ...] = DEFAULT_LATENCY_BUCKETS,
        **labels,
    ) -> Histogram:
        """Get or create the histogram ``name{labels}``."""
        return self._get_labeled(
            name, "histogram", help, lambda: Histogram(buckets), labels, buckets
        )

    # -- read side ------------------------------------------------------

    def families(self):
        """Sorted [(name, kind, help, [(labelset, metric), ...])]."""
        with self._lock:
            out = []
            for name in sorted(self._metrics):
                kind, help, _ = self._meta[name]
                series = sorted(self._metrics[name].items())
                out.append((name, kind, help, series))
            return out

    def value(self, name: str, **labels) -> float:
        """Current value of a counter/gauge (0.0 if never recorded)."""
        family = self._metrics.get(name)
        if not family:
            return 0.0
        metric = family.get(_labelset(labels))
        if metric is None:
            return 0.0
        if isinstance(metric, Histogram):
            raise ValueError(f"{name!r} is a histogram; read .sum/.count instead")
        return metric.value

    def total(self, name: str) -> float:
        """Sum of a counter family's values across all label sets."""
        family = self._metrics.get(name)
        if not family:
            return 0.0
        return sum(
            m.count if isinstance(m, Histogram) else m.value
            for m in family.values()
        )

    def snapshot(self) -> dict:
        """JSON-safe dump: {name: {label-string: value-or-histogram}}."""
        out: dict = {}
        for name, kind, _, series in self.families():
            family: dict = {}
            for labelset, metric in series:
                key = ",".join(f"{k}={v}" for k, v in labelset) or ""
                if isinstance(metric, Histogram):
                    family[key] = {
                        "sum": metric.sum,
                        "count": metric.count,
                        "buckets": dict(
                            zip(
                                [str(b) for b in metric.buckets] + ["+Inf"],
                                metric.cumulative(),
                            )
                        ),
                    }
                else:
                    family[key] = metric.value
            out[name] = family
        return out

    # -- cross-process transport ----------------------------------------

    def to_payload(self) -> dict:
        """Picklable snapshot for transport out of a worker process."""
        with self._lock:
            metrics = {}
            for name, family in self._metrics.items():
                rows = []
                for labelset, metric in family.items():
                    if isinstance(metric, Histogram):
                        rows.append(
                            (list(labelset), list(metric.counts), metric.sum,
                             metric.count)
                        )
                    else:
                        rows.append((list(labelset), metric.value))
                metrics[name] = rows
            meta = {
                name: (kind, help, list(buckets) if buckets else None)
                for name, (kind, help, buckets) in self._meta.items()
            }
            return {"meta": meta, "metrics": metrics}

    def merge_payload(self, payload: dict) -> None:
        """Fold a worker's :meth:`to_payload` into this registry."""
        meta = payload.get("meta", {})
        for name, rows in payload.get("metrics", {}).items():
            kind, help, buckets = meta[name]
            buckets = tuple(buckets) if buckets else DEFAULT_LATENCY_BUCKETS
            for row in rows:
                labels = dict(tuple(pair) for pair in row[0])
                if kind == "counter":
                    self.counter(name, help, **labels).inc(row[1])
                elif kind == "gauge":
                    self.gauge(name, help, **labels).set(row[1])
                else:
                    hist = self.histogram(name, help, buckets=buckets, **labels)
                    counts, total, count = row[1], row[2], row[3]
                    if len(counts) != len(hist.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch on merge"
                        )
                    for i, c in enumerate(counts):
                        hist.counts[i] += c
                    hist.sum += total
                    hist.count += count


#: The process-global registry every instrumented layer records into.
METRICS = MetricsRegistry()
