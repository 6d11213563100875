"""The four workloads: what runs, why, and how its output is checked.

Names are permanent.  Sizes are the issue's shapes with the edge counts
shrunk (matrix shape, batch size and churn fraction untouched) so that
one fresh-process run takes 2-4 s and a 28 s measurement holds seven or
more of them.  ``repro`` is imported inside the functions only: the worker times
that import as part of ``setup_s``.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List

import numpy as np

#: ``--smoke`` divides every edge count by this (functional check only).
SMOKE_SHRINK = 0.1

#: Core count whose re-scheduled cycles define ``sim_batch_ms`` on the
#: hardware-profile workload.
HW_SIM_CORES = 16


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: "stream" runs ``make_driver(cfg).run(ds)``; "hwprofile" runs
    #: ``HardwareProfiler.profile_cell``.
    kind: str
    #: Recorded verbatim in the JSON record.
    params: dict


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="matrix-rmat",
            why="full 4x6x2 matrix on short-tailed RMAT: pricing and compute kernels "
            "dominate, the data plane is bypassed",
            kind="stream",
            params={
                "dataset": "RMAT",
                # 18 750 edges over 8 192 ids in 15 batches: the issue's
                # edges-per-vertex (0.5 rounds the ids up to 2x and halves it,
                # which doubles the seed-to-seed spread of the work itself).
                "size_factor": 0.125,
                "config": {"batch_size": 1250},
            },
        ),
        Workload(
            name="scale-oocore",
            why="one cell over a memory-mapped scale-18 stream: reference graph, arena "
            "growth and CSR maintenance dominate, pricing is ~0",
            kind="stream",
            params={
                "rmat": {"scale": 18, "num_edges": 200_000, "chunk_edges": 100_000},
                "config": {
                    "batch_size": 40_000,
                    "structures": ["AS"],
                    "algorithms": ["PR"],
                    "models": ["INC"],
                },
            },
        ),
        Workload(
            name="hwprofile-talk",
            why="one Fig 9/10 cell: traced ingest, per-vertex trace emission, cache "
            "replay and the core ladder run here and nowhere else",
            kind="hwprofile",
            params={
                "dataset": "Talk",
                "structure": "DAH",
                "size_factor": 0.125,  # 5 625 edges, 5 batches
                "profiler": {
                    "core_counts": [4, 8, HW_SIM_CORES],
                    "algorithms": ["BFS", "CC", "PR"],
                    "batch_size": 1250,
                    "trace_cap": 20_000,
                },
            },
        ),
        Workload(
            name="churn-htail",
            why="heavy-tailed Talk with a quarter of each batch deleted again: the "
            "delete path, tombstones and KickStarter repair beside the insert path",
            kind="stream",
            params={
                "dataset": "Talk",
                "size_factor": 1.0,  # 45 000 edges, 24 batches
                "config": {
                    "batch_size": 1875,
                    "churn_fraction": 0.25,
                    "algorithms": ["BFS", "CC", "SSSP", "PR"],
                },
            },
        ),
    )
}


@dataclass
class Outcome:
    """What one pass through the entry point produced."""

    result: object
    result_path: Path
    batches: int


def _stream_config(params: dict, seed: int, progress: Callable):
    from repro.streaming.driver import StreamConfig

    config = {
        key: tuple(value) if isinstance(value, list) else value
        for key, value in params["config"].items()
    }
    return StreamConfig(shuffle_seed=seed, progress=progress, **config)


def _shrink(smoke: bool) -> float:
    return SMOKE_SHRINK if smoke else 1.0


def generate(workload: Workload, seed: int, smoke: bool, tmp: Path):
    """Generate the stream (the seed stops here; the program sees data).

    The worker calls this during set-up for the stream workloads.
    ``profile_cell`` takes a dataset *name* and generates the same
    stream inside the entry point, so for ``hwprofile-talk`` the worker
    calls this only afterwards, to check the cell against it.
    """
    from repro.datasets import catalog

    params = workload.params
    if "rmat" in params:
        rmat = params["rmat"]
        # A fresh directory per run: a reused one hits the recipe cache
        # and the generation cost disappears from datasets.build_s.
        return catalog.make_rmat_dataset(
            scale=rmat["scale"],
            num_edges=int(rmat["num_edges"] * _shrink(smoke)),
            seed=seed,
            mmap_dir=tmp / "stream",
            chunk_edges=rmat["chunk_edges"],
        )
    return catalog.load_dataset(
        params["dataset"], seed=seed, size_factor=params["size_factor"] * _shrink(smoke)
    )


def execute(
    workload: Workload, dataset, seed: int, smoke: bool, tmp: Path, on_batch: Callable
) -> Outcome:
    """Entry point call -> result object -> result written to ``tmp``.

    ``on_batch`` becomes ``StreamConfig.progress``, the public per-batch
    hook; ``profile_cell`` has none and never calls it.
    """
    params = workload.params
    if workload.kind == "stream":
        from repro.streaming.driver import make_driver

        result = make_driver(_stream_config(params, seed, on_batch)).run(dataset)
        path = result.to_npz(tmp / "result.npz")
        return Outcome(result, path, result.batches_per_rep)

    from repro.analysis.hardware_profile import HardwareProfiler
    from repro.engine.store import RunStore
    from repro.sim.machine import SCALED_SKYLAKE_GOLD_6142

    prof = params["profiler"]
    size_factor = params["size_factor"] * _shrink(smoke)
    profiler = HardwareProfiler(
        machine=SCALED_SKYLAKE_GOLD_6142,
        core_counts=tuple(prof["core_counts"]),
        algorithms=tuple(prof["algorithms"]),
        batch_size=prof["batch_size"],
        trace_cap=prof["trace_cap"],
        seed=seed,
    )
    cell = profiler.profile_cell(params["dataset"], params["structure"], size_factor)
    # The program's own way of writing a cell (what `repro fig9` does).
    key = profiler.cell_key(params["dataset"], params["structure"], size_factor)
    path = RunStore(tmp / "store").save_arrays(key, *cell.to_payload())
    return Outcome(cell, path, cell.batches)


def bytes_mapped(dataset) -> int:
    """Bytes of the stream that live in memory-mapped files."""
    edges = dataset.edges
    return sum(
        column.nbytes
        for column in (edges.src, edges.dst, edges.weight)
        if isinstance(column, np.memmap)
    )


# ---------------------------------------------------------------------
# Output checks (nothing here shares code with ReferenceGraph)
# ---------------------------------------------------------------------


def expected_final_edges(
    src, dst, max_nodes: int, batch_size: int, shuffle_seed: int, churn_fraction: float
) -> int:
    """Unique directed edges left after the stream, by numpy alone.

    Replays the documented batching contract (``default_rng(seed)``
    permutation, fixed-size slices, the first ``churn_fraction`` of each
    batch deleted after it is inserted) over packed ``(src, dst)`` keys.
    All four streams are directed.
    """
    keys = np.asarray(src, dtype=np.int64) * max_nodes + np.asarray(dst, dtype=np.int64)
    order = np.random.default_rng(shuffle_seed).permutation(len(keys))
    live = np.empty(0, dtype=np.int64)
    for start in range(0, len(keys), batch_size):
        batch = keys[order[start : start + batch_size]]
        live = np.union1d(live, batch)
        if churn_fraction > 0.0:
            victims = batch[: max(1, int(len(batch) * churn_fraction))]
            live = np.setdiff1d(live, victims)
    return int(live.size)


def sim_digest(result) -> str:
    """sha256 over every simulated array of a result or cell."""
    _meta, arrays = result.to_payload()
    digest = hashlib.sha256()
    for name in sorted(arrays):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape}".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def sim_batch_ms(workload: Workload, result) -> float:
    """Mean simulated (Equation 1) batch latency, in simulated ms."""
    if workload.kind == "stream":
        total = result.update_cycles[:, :, None, None, :] + result.compute_cycles
        return float(result.machine.cycles_to_seconds(total.mean())) * 1e3
    from repro.sim.machine import SCALED_SKYLAKE_GOLD_6142

    cycles = sum(result.scaling_cycles[phase][HW_SIM_CORES] for phase in ("update", "compute"))
    return float(SCALED_SKYLAKE_GOLD_6142.cycles_to_seconds(cycles / result.batches)) * 1e3


def failed_checks(workload: Workload, dataset, seed: int, outcome: Outcome) -> List[str]:
    """One line per output check this run failed (empty when correct)."""
    failures = []
    result = outcome.result
    if workload.kind == "stream":
        config = workload.params["config"]
        expected = expected_final_edges(
            dataset.edges.src,
            dataset.edges.dst,
            dataset.max_nodes,
            config["batch_size"],
            seed,
            config.get("churn_fraction", 0.0),
        )
        got = int(result.num_edges[0, -1])
        if got != expected:
            failures.append(f"final num_edges {got} != independent count {expected}")
        attempted = int(result.edges_attempted.sum())
        if attempted != len(dataset.edges):
            failures.append(f"attempted {attempted} of {len(dataset.edges)} stream edges")
    else:
        batch_size = workload.params["profiler"]["batch_size"]
        expected = -(-len(dataset.edges) // batch_size)
        if result.batches != expected:
            failures.append(f"{result.batches} batches for a stream of {expected}")
        for phase, counters in result.counters.items():
            if len(counters) != result.batches:
                failures.append(f"{len(counters)} {phase} counter rows for {result.batches} batches")
        cycles = [c for ladder in result.scaling_cycles.values() for c in ladder.values()]
        if not all(np.isfinite(c) and c > 0 for c in cycles):
            failures.append(f"non-positive scaling cycles {cycles}")
    return failures
