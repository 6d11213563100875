"""Microbenchmarks of the core kernels (pytest-benchmark timing).

These time the *simulator's own* throughput -- how fast the Python
reproduction ingests batches, schedules tasks, and replays caches --
which bounds how large an experiment the harness can drive.
"""

import numpy as np
import pytest

from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph, make_structure
from repro.sim.cache import CacheHierarchy
from repro.sim.machine import MachineConfig
from repro.sim.scheduler import DynamicScheduler
from repro.sim.tasks import TaskArray
from repro.sim.trace import MemoryTrace, TraceRecorder

MACHINE = MachineConfig()
NODES = 4000
BATCH = 4000


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    src = rng.integers(0, NODES, size=BATCH)
    dst = (src + 1 + rng.integers(0, NODES - 1, size=BATCH)) % NODES
    weight = rng.integers(1, 9, size=BATCH).astype(np.float64)
    return EdgeBatch(src=src.astype(np.int64), dst=dst.astype(np.int64), weight=weight)


@pytest.mark.parametrize("name", ["AS", "AC", "Stinger", "DAH"])
def test_update_throughput(benchmark, name):
    """Batch ingest latency (simulation wall-clock) per structure."""
    batch = _batch()

    def ingest():
        structure = make_structure(name, NODES)
        return structure.update(batch, ExecutionContext(machine=MACHINE))

    result = benchmark(ingest)
    assert result.edges_inserted > 0


def test_dynamic_scheduler(benchmark):
    """DES throughput on a contended task mix."""
    rng = np.random.default_rng(1)
    tasks = TaskArray.build(
        8000,
        unlocked_work=rng.integers(5, 50, 8000),
        locked_work=20.0,
        lock=rng.integers(0, 400, 8000),
    )
    scheduler = DynamicScheduler(64, physical_cores=32)
    result = benchmark(scheduler.run, tasks)
    assert result.makespan_cycles > 0


def test_cache_replay(benchmark):
    """Cache hierarchy replay throughput."""
    rng = np.random.default_rng(2)
    trace = MemoryTrace(
        task_ids=np.zeros(50_000, dtype=np.int64),
        addresses=rng.integers(0, 1 << 24, size=50_000),
        is_write=np.zeros(50_000, dtype=bool),
    )
    task_thread = np.zeros(1, dtype=np.int32)

    def replay():
        hierarchy = CacheHierarchy(MACHINE)
        return hierarchy.replay(trace, task_thread)

    stats = benchmark(replay)
    assert stats.accesses == 50_000


def test_incremental_engine(benchmark):
    """One INC round-trip on a mid-size graph."""
    from repro.algorithms import get_algorithm

    view = ReferenceGraph(NODES, directed=True)
    view.update(_batch(0))
    view.update(_batch(1))
    delta = _batch(2)
    algorithm = get_algorithm("CC")

    def run():
        state = algorithm.make_state(NODES)
        view_local = view  # updated once; INC re-runs over it
        return algorithm.inc_run(
            view_local, state, algorithm.affected_from_batch(delta, view_local)
        )

    run_record = benchmark(run)
    assert run_record.iteration_count >= 1


def test_fs_pagerank(benchmark):
    """Vectorized FS PageRank over the demo graph."""
    from repro.algorithms import get_algorithm

    view = ReferenceGraph(NODES, directed=True)
    view.update(_batch(0))
    algorithm = get_algorithm("PR")
    run_record = benchmark(lambda: algorithm.fs_run(view))
    assert run_record.converged
