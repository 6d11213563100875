"""The layer table over every plane, in the benchmark's vocabulary.

One tiny traced stream through each of the three planes (static,
adaptive, hardware), each inside a :data:`ROOT` span as the CLI opens
it.  Each plane's table must be conserved -- the self times of its
rows sum to the root's total -- and together the planes must open
every layer ``bench_e2e``'s traced run names, so the program's span
names and the benchmark's layer names cannot drift apart.
"""

import pytest

from bench_e2e.trace import LAYERS
from repro.analysis.hardware_profile import HardwareProfiler
from repro.datasets import load_dataset
from repro.engine.store import RunStore
from repro.obs import TRACER
from repro.obs.tracer import ROOT
from repro.streaming import StreamConfig, StreamDriver
from repro.streaming.autotune import AdaptiveStreamDriver
from tests.conftest import SMALL_MACHINE

#: Not program layers: the benchmark probe's pauses, and the wrap point
#: of ``parallel_for_makespan``, which nothing in the program calls.
NOT_OPENED = {"bench.probe", "scheduler.makespan"}

CONFIG = dict(
    batch_size=400,
    algorithms=("BFS", "CC", "PR"),
    models=("FS", "INC"),
    churn_fraction=0.25,
)


def _static(tmp_path):
    result = StreamDriver(StreamConfig(structures=("AS",), **CONFIG)).run(
        load_dataset("Talk", size_factor=0.05)
    )
    result.to_npz(tmp_path / "result.npz")


def _adaptive(tmp_path):
    config = dict(
        CONFIG, structures=("adaptive",), models=("adaptive",),
        candidate_structures=("AS", "DAH"),
    )
    AdaptiveStreamDriver(StreamConfig(**config)).run(load_dataset("Talk", size_factor=0.05))


def _hardware(tmp_path):
    profiler = HardwareProfiler(
        machine=SMALL_MACHINE, core_counts=(2, 4), algorithms=("BFS", "PR"),
        batch_size=400, trace_cap=2_000,
    )
    cell = profiler.profile_cell("Talk", "DAH", 0.05)
    RunStore(tmp_path / "store").save_arrays(
        profiler.cell_key("Talk", "DAH", 0.05), *cell.to_payload()
    )


PLANES = {
    "static": _static,
    "adaptive": _adaptive,
    "hardware": _hardware,
}


@pytest.fixture(scope="module")
def tables(tmp_path_factory):
    """Each plane's layer table, traced under a root span."""
    out = {}
    for name, run in PLANES.items():
        TRACER.disable()
        TRACER.reset()
        TRACER.enable()
        try:
            with TRACER.span(ROOT):
                run(tmp_path_factory.mktemp(name))
            out[name] = TRACER.table()
        finally:
            TRACER.disable()
            TRACER.reset()
    return out


@pytest.mark.parametrize("plane", list(PLANES))
def test_self_times_sum_to_the_root(tables, plane):
    rows = tables[plane]
    name, total, own, calls = rows[0]
    assert (name, calls) == (ROOT, 1)
    assert sum(row[2] for row in rows) == pytest.approx(total, rel=1e-9, abs=1e-12)
    assert all(row[2] >= -1e-12 and row[1] >= row[2] - 1e-12 for row in rows)


def test_the_planes_open_every_benchmark_layer(tables):
    opened = {row[0] for rows in tables.values() for row in rows}
    assert set(LAYERS) - NOT_OPENED <= opened
    # The root is the benchmark's root.
    assert LAYERS[0] == ROOT
