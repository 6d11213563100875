"""The shared experiment engine: cached, parallel streaming sweeps.

Every harness that needs a :class:`~repro.streaming.results.StreamResult`
(the software profile, the batch-size sensitivity study, the CLI's
``stream`` subcommand, the benchmark fixtures) goes through
:func:`run_stream` / :func:`run_many` instead of driving a private
:class:`~repro.streaming.driver.StreamDriver` loop:

1. each request is fingerprinted and looked up in the
   :class:`~repro.engine.store.RunStore` (when one is supplied) —
   a hit returns the cached result without simulating anything;
2. misses are expanded into independent **(dataset × repetition)
   cells** — a repetition's shuffle seed is ``base + stride * rep``,
   so a cell reproduces exactly the batches the monolithic loop would
   have produced;
3. cells execute serially or fan out over :func:`run_cells`' process
   pool (``jobs`` > 1), and are merged back **in request/repetition
   order**, so the result is bit-identical regardless of worker
   scheduling;
4. fresh results are written back to the store.

The hardware sweep (``HardwareProfiler.profile_cells`` in
:mod:`repro.analysis.hardware_profile`) runs its cells through the
same :func:`run_cells`.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from contextlib import ExitStack
from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.datasets.catalog import Dataset, load_dataset
from repro.datasets.mmapio import open_edge_mmap, stream_directory
from repro.engine.fingerprint import stream_run_key
from repro.engine.store import RunStore
from repro.errors import ConfigError, ReproError
from repro.obs.features import FEATURES
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER
from repro.streaming.driver import REP_SEED_STRIDE, StreamConfig, make_driver
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


def _cell_config(config: StreamConfig, rep: int, keep_progress: bool) -> StreamConfig:
    """The single-repetition config equivalent to repetition ``rep``."""
    return replace(
        config,
        repetitions=1,
        shuffle_seed=config.shuffle_seed + REP_SEED_STRIDE * rep,
        progress=config.progress if keep_progress else None,
    )


def _observed_call(task: Tuple[Callable, tuple, Optional[dict]]):
    """Pool-worker side of :func:`run_cells`: ``(fn(*arg), obs_payload)``.

    With ``obs`` set, the worker resets its fork-inherited global
    tracer/registry/feature log -- they carry the parent's
    already-collected data -- re-enables them per the parent's flags,
    and ships its own collection back for the parent to merge.
    """
    fn, arg, obs = task
    if obs is None:
        return fn(*arg), None
    TRACER.disable()
    TRACER.reset()
    METRICS.reset()
    FEATURES.reset()
    if obs["trace"]:
        TRACER.enable(keep_events=obs["keep_events"], sim_timeline=obs["sim_timeline"])
    METRICS.enabled = obs["metrics"]
    FEATURES.enabled = obs["features"]
    result = fn(*arg)
    return result, {
        "trace": TRACER.to_payload(),
        "metrics": METRICS.to_payload(),
        "features": FEATURES.to_payload(),
    }


def run_cells(
    fn: Callable,
    args: Sequence[tuple],
    jobs: Optional[int],
    names: Sequence[str],
    origins: Optional[Sequence[Optional[str]]] = None,
) -> list:
    """``fn(*arg)`` for every arg tuple, results in ``args`` order.

    The package's one process pool: with ``jobs`` > 1 and more than one
    arg the calls fan out over ``jobs`` workers (``fn`` and the args
    must pickle), and each worker's metrics, spans and feature rows are
    merged into the parent's in ``args`` order, ``origins[i]`` prefixing
    arg ``i``'s trace lane.  Otherwise the calls run in this process and
    record into the live registries directly.  A worker that dies (a
    SIGKILL, the OOM killer) breaks the pool; the error then names,
    by ``names[i]``, every cell that did not finish.
    """
    if jobs is not None and jobs < 0:
        raise ConfigError(f"jobs must be >= 0, got {jobs}")
    if not (jobs and jobs > 1 and len(args) > 1):
        return [fn(*arg) for arg in args]
    obs = None  # observability off: workers skip the reset and ship nothing
    if TRACER.enabled or METRICS.enabled or FEATURES.enabled:
        obs = {
            "trace": TRACER.enabled,
            "keep_events": TRACER.keep_events,
            "sim_timeline": TRACER.sim_timeline,
            "metrics": METRICS.enabled,
            "features": FEATURES.enabled,
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
    for index, (_, payload) in enumerate(outcomes):
        if payload is not None:
            METRICS.merge_payload(payload["metrics"])
            TRACER.absorb(payload["trace"], origin=origins[index] if origins else None)
            FEATURES.absorb(payload["features"])
    return [result for result, _ in outcomes]


def _run_stream_cell(
    dataset_name: str,
    seed: int,
    size_factor: float,
    config: StreamConfig,
    source: Optional[tuple],
) -> Tuple[StreamResult, float]:
    """Execute one (dataset × repetition) cell; must stay picklable.

    Returns ``(result, wall_seconds)``.  ``source`` selects the edge
    transport: ``None`` generates the dataset from the catalog (the
    serial path); ``(directory, spec, max_nodes)`` opens the stream the
    parent wrote for its pool workers (a pooled cell).  Either way the
    edges are bit-identical, so the transport never shows up in results
    or fingerprints.
    """
    started = time.perf_counter()
    if source is not None:
        directory, spec, max_nodes = source
        dataset = Dataset(
            spec=spec, edges=open_edge_mmap(directory), max_nodes=max_nodes, seed=seed
        )
    else:
        dataset = load_dataset(dataset_name, seed=seed, size_factor=size_factor)
    result = make_driver(config).run(dataset)
    return result, time.perf_counter() - started


def run_many(
    requests: Sequence[StreamRequest],
    store: Optional[RunStore] = None,
    jobs: Optional[int] = None,
) -> List[StreamResult]:
    """Resolve every request, in order, through cache then execution."""
    results: List[Optional[StreamResult]] = [None] * len(requests)
    keys: List[Optional[str]] = [None] * len(requests)
    cells: List[Tuple[int, int, Tuple[str, int, float, StreamConfig]]] = []
    parallel = bool(jobs and jobs > 1)
    for index, request in enumerate(requests):
        if store is not None:
            keys[index] = request.key
            cached = store.load_stream_result(keys[index])
            if cached is not None:
                results[index] = cached
                if METRICS.enabled:
                    METRICS.counter(
                        "sweep_cells_total",
                        "sweep requests/cells by resolution",
                        status="cached",
                    ).inc()
                continue
        for rep in range(request.config.repetitions):
            cells.append(
                (
                    index,
                    rep,
                    (
                        request.dataset,
                        request.seed,
                        request.size_factor,
                        _cell_config(request.config, rep, keep_progress=not parallel),
                    ),
                )
            )
    # Pooled cells open one stream directory per unique stream instead
    # of each generating it; the parent removes the spilled ones after
    # the pool is gone, whatever the workers did.
    pooled = parallel and len(cells) > 1
    sources: Dict[Tuple[str, int, float], tuple] = {}
    with ExitStack() as spills:
        payloads = []
        for _, _, payload in cells:
            stream_key = payload[:3]
            if pooled and stream_key not in sources:
                dataset = load_dataset(
                    stream_key[0], seed=stream_key[1], size_factor=stream_key[2]
                )
                sources[stream_key] = (
                    spills.enter_context(stream_directory(dataset.edges)),
                    dataset.spec,
                    dataset.max_nodes,
                )
            payloads.append(payload + (sources.get(stream_key),))
        cell_results = run_cells(
            _run_stream_cell,
            payloads,
            jobs,
            [f"{payload[0]}-r{rep}" for _, rep, payload in cells],
            origins=[f"{payload[0]}-r{rep}" if rep else None for _, rep, payload in cells],
        )
    by_request: Dict[int, List[StreamResult]] = {}
    for (index, rep, payload), (result, wall) in zip(cells, cell_results):
        by_request.setdefault(index, []).append(result)
        if METRICS.enabled:
            METRICS.histogram(
                "sweep_cell_seconds",
                "wall time per (dataset x repetition) cell",
                dataset=payload[0],
            ).observe(wall)
            METRICS.counter(
                "sweep_cells_total",
                "sweep requests/cells by resolution",
                status="computed",
            ).inc()
        progress = requests[index].config.progress
        if parallel and progress is not None:
            progress(f"cell {payload[0]} rep {rep}: {wall:.2f}s wall")
    for index, parts in by_request.items():
        merged = StreamResult.merge(parts)
        results[index] = merged
        if store is not None:
            store.save_stream_result(keys[index], merged)
    missing = [i for i, result in enumerate(results) if result is None]
    if missing:
        raise ConfigError(f"requests {missing} produced no result")
    return results  # type: ignore[return-value]


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
