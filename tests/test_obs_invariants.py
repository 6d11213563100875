"""Invariant tests for the observability primitives.

Two structural guarantees the rest of the observatory builds on:

- **span accounting is conservative**: self-times across a span tree
  sum to the root's wall time -- nothing is double-counted (a child's
  time never also counts as the parent's self time) and nothing is
  lost, per thread;
- **metrics merging is associative** (and commutative for the additive
  kinds), so a parallel sweep's merged registry is independent of how
  and in what grouping worker payloads arrive.
"""

import threading
import time

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.tracer import SpanTracer

#: Wall-clock tolerance for the conservation checks: generous enough
#: for CI scheduling jitter, tight enough that a double-count of any
#: 10ms child span would fail.
TOLERANCE = 5e-3


def _busy(seconds: float) -> None:
    time.sleep(seconds)


def test_nested_span_self_times_sum_to_root_wall():
    tracer = SpanTracer()
    tracer.enable()
    started = time.perf_counter()
    with tracer.span("root"):
        _busy(0.01)
        with tracer.span("child-a"):
            _busy(0.01)
            with tracer.span("grandchild"):
                _busy(0.01)
        with tracer.span("child-b"):
            _busy(0.01)
    wall = time.perf_counter() - started
    tracer.disable()
    totals = {name: (own, calls) for name, _, own, calls in tracer.table()}
    assert set(totals) == {"root", "child-a", "grandchild", "child-b"}
    # Each span registered exactly one entry and positive self time.
    for name, (self_seconds, entries) in totals.items():
        assert entries == 1, name
        assert self_seconds > 0, name
    # Conservation: the tree's self times partition the root's wall.
    total_self = sum(seconds for seconds, _ in totals.values())
    assert total_self == pytest.approx(wall, abs=TOLERANCE)
    # And the root's self time excludes its children.
    assert totals["root"][0] < wall - 0.02


def test_threaded_span_self_times_sum_per_thread():
    tracer = SpanTracer()
    tracer.enable()
    walls = {}

    def worker(tag: str) -> None:
        started = time.perf_counter()
        with tracer.span(f"root-{tag}"):
            _busy(0.01)
            with tracer.span(f"inner-{tag}"):
                _busy(0.01)
        walls[tag] = time.perf_counter() - started

    threads = [
        threading.Thread(target=worker, args=(tag,)) for tag in ("a", "b")
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    tracer.disable()
    totals = {name: (own, calls) for name, _, own, calls in tracer.table()}
    for tag in ("a", "b"):
        per_thread = totals[f"root-{tag}"][0] + totals[f"inner-{tag}"][0]
        assert per_thread == pytest.approx(walls[tag], abs=TOLERANCE)


def _registry(seed: int) -> MetricsRegistry:
    registry = MetricsRegistry()
    registry.enable()
    registry.counter("cells", "cells processed", worker=str(seed)).inc(seed)
    registry.counter("cells", "cells processed", worker="shared").inc(seed)
    # 0.25 multiples are exact in binary, so histogram sums compare
    # bit-identically across merge groupings.
    registry.histogram("latency", "batch latency").observe(seed * 0.25)
    registry.gauge("threads", "thread count").set(float(seed))
    return registry


def _merged(*payloads) -> MetricsRegistry:
    registry = MetricsRegistry()
    for payload in payloads:
        registry.merge_payload(payload)
    return registry


def test_merge_is_associative():
    a, b, c = (_registry(i).to_payload() for i in (1, 2, 3))
    flat = _merged(a, b, c)
    left = _merged(_merged(a, b).to_payload(), c)
    right = _merged(a, _merged(b, c).to_payload())
    assert flat.snapshot() == left.snapshot() == right.snapshot()
    # The additive arithmetic is right, not just self-consistent.
    assert flat.value("cells", worker="shared") == 6.0
    families = {name: series for name, _, _, series in flat.families()}
    ((_, hist),) = families["latency"]
    assert hist.count == 3
    assert hist.sum == pytest.approx(1.5)


def test_merge_is_commutative_for_additive_kinds():
    a, b, c = (_registry(i).to_payload() for i in (1, 2, 3))
    forward = _merged(a, b, c).snapshot()
    backward = _merged(c, b, a).snapshot()
    # Gauges are last-write (order-dependent by design); everything
    # else must be exactly order-independent.
    forward.pop("threads")
    backward.pop("threads")
    assert forward == backward


def test_payload_roundtrip_preserves_snapshot():
    original = _registry(7)
    clone = _merged(original.to_payload())
    assert clone.snapshot() == original.snapshot()
    # Help text survives transport (the Prometheus dump needs it).
    helps = {name: help for name, _, help, _ in clone.families()}
    assert helps["cells"] == "cells processed"
