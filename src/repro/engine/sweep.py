"""The shared experiment engine: cached, parallel sweeps over streams.

Both of the paper's characterizations are sweeps of independent cells
over dataset streams: Section V (Table III, Figs. 6-8) runs one
streaming-driver cell per dataset, Section VI (Figs. 9-10) one
instrumented (dataset x structure) cell per dataset.  Both resolve
through :func:`resolve`, the one cache-then-pool path:

1. each request is fingerprinted and looked up with
   :meth:`~repro.engine.store.RunStore.load` -- an entry that decodes
   is returned without simulating anything;
2. each miss is one :class:`Cell`, a picklable function of one stream.
   Several shuffles of one stream are several requests that differ in
   ``shuffle_seed``; they share the stream, and pooled, its spilled
   directory;
3. cells execute serially or fan out over :func:`run_cells`' process
   pool (``jobs`` > 1), whose workers read every stream from an mmap
   stream directory; results come back **in request order**, so
   they are bit-identical regardless of worker scheduling;
4. fresh results are written back to the store.

The stream harnesses call :func:`run_many` / :func:`run_stream`;
``HardwareProfiler.profile_cells`` in
:mod:`repro.analysis.hardware_profile` calls :func:`resolve`.
"""

from __future__ import annotations

import time
from contextlib import ExitStack
from dataclasses import dataclass, replace
from functools import partial
from typing import (
    Callable, Dict, List, NamedTuple, Optional, Sequence, Tuple, TypeVar,
)

from repro.datasets.catalog import Dataset, load_dataset
from repro.datasets.mmapio import open_edge_mmap, stream_directory
from repro.engine.fingerprint import stream_run_key
from repro.engine.store import RunStore
from repro.errors import ConfigError, ReproError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.streaming.driver import StreamConfig, make_driver
from repro.streaming.results import StreamResult


@dataclass(frozen=True)
class StreamRequest:
    """One dataset's sweep under one configuration."""

    dataset: str
    config: StreamConfig
    seed: int = 0
    size_factor: float = 1.0

    @property
    def key(self) -> str:
        return stream_run_key(
            self.dataset, self.config, seed=self.seed, size_factor=self.size_factor
        )


def _observed_call(task: Tuple[Callable, tuple, Optional[dict]]):
    """Pool-worker side of :func:`run_cells`: ``(fn(*arg), obs_payload)``.

    With ``obs`` set, the worker resets its fork-inherited global
    tracer and registry -- they carry the parent's
    already-collected data -- re-enables them per the parent's flags,
    and ships its own collection back for the parent to merge.
    """
    fn, arg, obs = task
    if obs is None:
        return fn(*arg), None
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    if obs["trace"]:
        TRACER.enable(keep_events=obs["keep_events"], sim_timeline=obs["sim_timeline"])
    METRICS.enabled = obs["metrics"]
    result = fn(*arg)
    return result, {
        "trace": TRACER.to_payload(),
        "metrics": METRICS.to_payload(),
    }


def run_cells(
    fn: Callable,
    args: Sequence[tuple],
    jobs: Optional[int],
    names: Sequence[str],
) -> list:
    """``fn(*arg)`` for every arg tuple, results in ``args`` order.

    The package's one process pool: with ``jobs`` > 1 and more than one
    arg the calls fan out over ``jobs`` workers (``fn`` and the args
    must pickle), and each worker's metrics and spans are merged into
    the parent's in ``args`` order.  Otherwise the calls run in this
    process and record into the live registries directly.  A worker that dies (a
    SIGKILL, the OOM killer) breaks the pool; the error then names,
    by ``names[i]``, every cell that did not finish.
    """
    if jobs is not None and jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if not (jobs and jobs > 1 and len(args) > 1):
        return [fn(*arg) for arg in args]
    # Only a pool needs ``multiprocessing``; a serial run skips its import.
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor

    obs = None  # observability off: workers skip the reset and ship nothing
    if TRACER.enabled or METRICS.enabled:
        obs = {
            "trace": TRACER.enabled,
            "keep_events": TRACER.keep_events,
            "sim_timeline": TRACER.sim_timeline,
            "metrics": METRICS.enabled,
        }
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_observed_call, (fn, arg, obs)) for arg in args]
    lost = [
        (name, future.exception())
        for name, future in zip(names, futures)
        if isinstance(future.exception(), BrokenProcessPool)
    ]
    if lost:
        raise ReproError(
            "a worker process died; cells that did not finish: "
            + ", ".join(name for name, _ in lost)
        ) from lost[0][1]
    outcomes = [future.result() for future in futures]
    for _, payload in outcomes:
        if payload is not None:
            METRICS.merge_payload(payload["metrics"])
            TRACER.absorb(payload["trace"])
    return [result for result, _ in outcomes]


class Cell(NamedTuple):
    """One unit of a sweep: ``run``, a picklable function of the opened
    dataset, over the stream ``(dataset, seed, size_factor)``; ``name``
    names it when a worker dies, and ``progress``, if set, is told its
    wall time."""

    stream: Tuple[str, int, float]
    run: Callable[[Dataset], object]
    name: str
    progress: Optional[Callable[[str], None]] = None


T = TypeVar("T")


def _run_cell(
    stream: Tuple[str, int, float], source: Optional[tuple], run: Callable
) -> Tuple[object, float]:
    """``(run(dataset), wall_seconds)`` for one cell; must stay picklable.

    ``source`` selects the edge transport: ``None`` generates the
    dataset from the catalog (the serial path); ``(directory, spec,
    max_nodes)`` opens the stream the parent wrote for its pool workers
    (a pooled cell).  Either way the edges are bit-identical, so the
    transport never shows up in results or fingerprints.
    """
    started = time.perf_counter()
    if source is None:
        dataset = load_dataset(*stream)
    else:
        directory, spec, max_nodes = source
        dataset = Dataset(
            spec=spec,
            edges=open_edge_mmap(directory),
            max_nodes=max_nodes,
            seed=stream[1],
        )
    return run(dataset), time.perf_counter() - started


def _count_cell(status: str) -> None:
    METRICS.counter(
        "sweep_cells_total", "sweep requests/cells by resolution", status=status
    ).inc()


def resolve(
    requests: Sequence,
    key: Callable[..., str],
    cell: Callable[..., Cell],
    decode: Callable[[dict, dict], T],
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> List[T]:
    """Resolve every request, in order: from the store, else its cell.

    The entry under ``key(request)`` that decodes (``decode(meta,
    arrays)``) is the request's result.  The ``cell(request)`` of every
    other request run together through :func:`run_cells`; pooled, the
    parent writes one stream directory per unique stream and removes it
    after the pool is gone, whatever the workers did.  A cell's result
    is its request's, and is written back to ``store``.
    """
    results: List[Optional[T]] = [None] * len(requests)
    planned: List[Tuple[int, Cell]] = []  # (request, its cell)
    for index, request in enumerate(requests):
        if store is not None:
            results[index] = store.load(key(request), decode)
            if results[index] is not None:
                if METRICS.enabled:
                    _count_cell("cached")
                continue
        planned.append((index, cell(request)))
    pooled = bool(jobs and jobs > 1 and len(planned) > 1)
    sources: Dict[Tuple[str, int, float], tuple] = {}
    with ExitStack() as spills:
        for _, c in planned:
            if pooled and c.stream not in sources:
                dataset = load_dataset(*c.stream)
                sources[c.stream] = (
                    spills.enter_context(stream_directory(dataset.edges)),
                    dataset.spec,
                    dataset.max_nodes,
                )
        outcomes = run_cells(
            _run_cell,
            [(c.stream, sources.get(c.stream), c.run) for _, c in planned],
            jobs,
            [c.name for _, c in planned],
        )
    for (index, c), (result, wall) in zip(planned, outcomes):
        results[index] = result
        if METRICS.enabled:
            METRICS.histogram(
                "sweep_cell_seconds", "wall time per sweep cell", dataset=c.stream[0]
            ).observe(wall)
            _count_cell("computed")
        if c.progress is not None:
            c.progress(f"cell {c.name}: {wall:.2f}s wall")
        if store is not None:
            store.save_arrays(key(requests[index]), *result.to_payload())
    return results  # type: ignore[return-value]


def _run_stream_cell(config: StreamConfig, dataset: Dataset) -> StreamResult:
    """One stream cell: the driver over the opened stream."""
    return make_driver(config).run(dataset)


def run_many(
    requests: Sequence[StreamRequest],
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> List[StreamResult]:
    """Resolve every request, in order, through cache then execution.

    Each request is one cell, named ``{dataset}-s{shuffle_seed}``.
    Parallel cells report their wall time instead of per-batch progress.
    """
    parallel = bool(jobs and jobs > 1)

    def cell(request: StreamRequest) -> Cell:
        config = request.config
        return Cell(
            (request.dataset, request.seed, request.size_factor),
            partial(_run_stream_cell, replace(
                config, progress=None if parallel else config.progress,
            )),
            f"{request.dataset}-s{config.shuffle_seed}",
            config.progress if parallel else None,
        )

    return resolve(
        requests, lambda request: request.key, cell,
        StreamResult.from_payload, store, jobs,
    )


def run_stream(
    dataset: str,
    config: Optional[StreamConfig] = None,
    *,
    seed: int = 0,
    size_factor: float = 1.0,
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> StreamResult:
    """Cached, optionally parallel equivalent of ``StreamDriver.run``."""
    request = StreamRequest(
        dataset=dataset,
        config=config if config is not None else StreamConfig(),
        seed=seed,
        size_factor=size_factor,
    )
    return run_many([request], store=store, jobs=jobs)[0]
