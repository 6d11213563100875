"""The traced run: timing wrappers around each layer's public callables.

Imported by the worker for traced runs only.  The spans are recorded
from here, around calls *into* the program; the real driver runs, not a
copy of its loop, and nothing under ``src/`` knows it is being watched.

A span is ``(layer, start, end, parent)``; one ``spans-<workload>.json``
holds one run, so the run identifier is a field of the file.  A layer's
self time is its spans' duration minus the part their child spans cover,
which makes the self times of all layers plus the root's sum to the
root's duration by construction.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: The root span the worker opens around the entry point.  Its self
#: time is ``driver.self_s``: everything no wrap point below claims.
ROOT = "driver"


@dataclass(frozen=True)
class WrapPoint:
    layer: str
    #: ``module:function`` or ``module:Class.method``.  A method is
    #: wrapped on the class and on every subclass that overrides it; a
    #: function in every loaded ``repro.*`` module that refers to it.
    target: str
    #: Optional count taken at the same boundary: metric name and
    #: ``fn(args, result) -> int``.
    counter: Optional[str] = None
    count: Optional[Callable] = None


def _iterations(_args, run) -> int:
    return run.iteration_count


#: layer metric -> module + attribute.  No per-edge call is wrapped; the
#: two ``trace_*_traversal`` methods are the only per-vertex ones.
WRAP_POINTS: Tuple[WrapPoint, ...] = (
    WrapPoint("datasets.build", "repro.datasets.catalog:load_dataset"),
    WrapPoint("datasets.build", "repro.datasets.catalog:make_rmat_dataset"),
    WrapPoint("batching.make", "repro.streaming.batching:make_batches"),
    WrapPoint("batching.gather", "repro.streaming.batching:BatchView.__getitem__"),
    WrapPoint(
        "graph.update",
        "repro.graph.base:GraphDataStructure.update",
        "graph.update.tasks",
        lambda _args, update: update.schedule.task_count,
    ),
    WrapPoint("graph.delete", "repro.graph.base:GraphDataStructure.delete"),
    WrapPoint("scheduler.run", "repro.sim.scheduler:DynamicScheduler.run"),
    WrapPoint("scheduler.run", "repro.sim.scheduler:ChunkedScheduler.run"),
    WrapPoint("scheduler.makespan", "repro.sim.scheduler:parallel_for_makespan"),
    WrapPoint("scheduler.ladder", "repro.graph.base:GraphDataStructure.schedule_tasks"),
    WrapPoint("reference.update", "repro.graph.reference:ReferenceGraph.update_collect"),
    WrapPoint("reference.delete", "repro.graph.reference:ReferenceGraph.delete_collect"),
    WrapPoint("csrstore.apply", "repro.compute.csrstore:ViewMaintainer.apply"),
    WrapPoint("csrstore.rebuild", "repro.compute.csrstore:DynamicCSR.rebuild"),
    WrapPoint("csrstore.compact", "repro.compute.csrstore:DynamicCSR.compact"),
    WrapPoint(
        "algorithms.fs", "repro.algorithms.base:Algorithm.fs_run",
        "algorithms.iterations", _iterations,
    ),
    WrapPoint(
        "algorithms.inc", "repro.algorithms.base:Algorithm.inc_run",
        "algorithms.iterations", _iterations,
    ),
    WrapPoint(
        "algorithms.inc_delete", "repro.algorithms.base:Algorithm.inc_delete_run",
        "algorithms.iterations", _iterations,
    ),
    WrapPoint("algorithms.affected", "repro.algorithms.base:Algorithm.affected_from_batch"),
    WrapPoint("pricing.price", "repro.compute.pricing:price_compute_run"),
    WrapPoint("graph.trace_traversal", "repro.graph.base:GraphDataStructure.trace_in_traversal"),
    WrapPoint("graph.trace_traversal", "repro.graph.base:GraphDataStructure.trace_out_traversal"),
    WrapPoint(
        "cache.replay",
        "repro.sim.cache:CacheHierarchy.replay",
        "cache.accesses",
        lambda args, _stats: len(args[1]),
    ),
    WrapPoint("trace.sample", "repro.sim.trace:MemoryTrace.sample"),
    WrapPoint("results.encode", "repro.streaming.results:StreamResult.to_npz"),
    WrapPoint("results.encode", "repro.analysis.hardware_profile:HardwareCell.to_payload"),
    WrapPoint("results.encode", "repro.engine.store:RunStore.save_arrays"),
)

#: Not a layer of the program: a pause in which the worker's box-speed
#: probe ran, recorded so that it can be taken out of the run.
PROBE = "bench.probe"

LAYERS: Tuple[str, ...] = (ROOT, PROBE) + tuple(dict.fromkeys(p.layer for p in WRAP_POINTS))
COUNTERS: Tuple[str, ...] = tuple(dict.fromkeys(p.counter for p in WRAP_POINTS if p.counter))


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


class Tracer:
    """Span storage plus the install/uninstall of the wrappers.

    A span is one list ``[layer, parent span, start, end]``, appended in
    one step and linked by reference, not by index: the worker's
    box-speed probe opens spans from a signal handler, which may run
    between any two bytecodes of a wrapper.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {name: 0 for name in COUNTERS}
        self._stack: List[Optional[list]] = [None]
        #: (owner, attribute, original) of everything install() replaced.
        self.patched: List[Tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def open(self, layer: str) -> list:
        """Open a span by hand (the root span, the probe's pauses)."""
        span = [LAYERS.index(layer), self._stack[-1], perf_counter(), 0.0]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: list) -> None:
        span[3] = perf_counter()
        self._stack.pop()

    def _wrap(self, fn: Callable, point: WrapPoint) -> Callable:
        layer_id = LAYERS.index(point.layer)
        spans, stack, counts = self.spans, self._stack, self.counts
        counter, count = point.counter, point.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            top = stack[-1]
            # A super() chain inside one layer (PageRank.inc_run ->
            # Algorithm.inc_run) is one span and one count, not two.
            if top is not None and top[0] == layer_id:
                return fn(*args, **kwargs)
            span = [layer_id, top, perf_counter(), 0.0]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                counts[counter] += count(args, result)
            return result

        wrapper.__wrapped_by_bench_e2e__ = fn
        return wrapper

    # -- install / uninstall --------------------------------------------

    def install(self) -> None:
        """Replace every wrap point with its timing wrapper."""
        for point in WRAP_POINTS:
            module_name, _, path = point.target.partition(":")
            module = importlib.import_module(module_name)
            if "." in path:
                class_name, _, attribute = path.partition(".")
                base = getattr(module, class_name)
                for cls in (base, *_subclasses(base)):
                    if attribute in vars(cls):
                        self._replace(cls, attribute, self._wrap(vars(cls)[attribute], point))
            else:
                original = getattr(module, path)
                wrapper = self._wrap(original, point)
                for holder in _repro_modules():
                    for name, value in list(vars(holder).items()):
                        if value is original:
                            self._replace(holder, name, wrapper)

    def _replace(self, owner, attribute: str, wrapper: Callable) -> None:
        self.patched.append((owner, attribute, vars(owner)[attribute]))
        setattr(owner, attribute, wrapper)

    def uninstall(self) -> None:
        """Put every original back, including in modules imported since."""
        for owner, attribute, original in reversed(self.patched):
            setattr(owner, attribute, original)
        for holder in _repro_modules():
            for name, value in list(vars(holder).items()):
                original = getattr(value, "__wrapped_by_bench_e2e__", None)
                if original is not None:
                    setattr(holder, name, original)
        self.patched.clear()

    # -- output ---------------------------------------------------------

    def columns(self):
        """``(layer, start, end, parent index)`` arrays, in start order."""
        index_of = {id(span): i for i, span in enumerate(self.spans)}
        return (
            np.array([span[0] for span in self.spans], dtype=np.int64),
            np.array([span[2] for span in self.spans], dtype=np.float64),
            np.array([span[3] for span in self.spans], dtype=np.float64),
            np.array(
                [-1 if span[1] is None else index_of[id(span[1])] for span in self.spans],
                dtype=np.int64,
            ),
        )

    def write(self, path, run_id: str, origin: float) -> None:
        """One run's spans, columnar, times in seconds since ``origin``."""
        layer, start, end, parent = self.columns()
        with open(path, "w") as handle:
            json.dump(
                {
                    "run_id": run_id,
                    "layers": list(LAYERS),
                    "layer": layer.tolist(),
                    "start": (start - origin).tolist(),
                    "end": (end - origin).tolist(),
                    "parent": parent.tolist(),
                    "counts": self.counts,
                },
                handle,
            )


def _repro_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


def layer_table(layer, start, end, parent) -> Dict[str, Dict[str, float]]:
    """Aggregate span columns into ``{layer: {total_s, self_s, calls}}``.

    A probe pause is not the program's time: its duration is taken out
    of every span it is nested in, at any depth, and the pause itself
    counts for nothing.  Self time is what is then left of a span after
    its direct children; the wrappers never nest a layer directly inside
    itself, so a layer's inclusive time is the plain sum of its spans.
    """
    duration = end - start
    paused = np.zeros_like(duration)
    for pause in np.flatnonzero(layer == LAYERS.index(PROBE)):
        span = pause
        while span >= 0:
            paused[span] += duration[pause]
            span = parent[span]
    running = duration - paused
    has_parent = parent >= 0
    covered = np.bincount(
        parent[has_parent], weights=running[has_parent], minlength=len(running)
    )
    self_time = running - covered
    size = len(LAYERS)
    total = np.bincount(layer, weights=running, minlength=size)
    own = np.bincount(layer, weights=self_time, minlength=size)
    calls = np.bincount(layer, minlength=size)
    return {
        name: {"total_s": float(total[i]), "self_s": float(own[i]), "calls": int(calls[i])}
        for i, name in enumerate(LAYERS)
    }
