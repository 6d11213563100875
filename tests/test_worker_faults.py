"""A worker killed mid-cell, in the one process pool.

``repro.engine.sweep.run_cells`` runs sweep cells and Fig 9/10 cells
(both through ``run_streams``' one worker function) and shard replays.  In each test the first cell to start kills its own
worker with SIGKILL, and the parent must: raise an error naming the
cells that did not finish, chained from the pool's
``BrokenProcessPool``; exit the CLI non-zero with that message; leave
no spilled ``saga_stream-*`` stream directory behind; and run the next
request in the same process to the end.
"""

import multiprocessing
import os
import re
import signal
import subprocess
import sys
import tempfile
from concurrent.futures.process import BrokenProcessPool

import numpy as np
import pytest

from repro.analysis.hardware_profile import HardwareProfiler
from repro.datasets import load_dataset, make_rmat_dataset
from repro.engine import sweep
from repro.errors import ReproError
from repro.sim import cbuild
from repro.streaming import StreamConfig, sharded
from tests.conftest import SMALL_MACHINE, one_cpu

#: Names the file the first cell to start creates before it kills its
#: worker, so that exactly one worker dies per run.
MARKER_ENV = "REPRO_TEST_KILL_MARKER"

_RUN_CELL = sweep._run_cell
_SIMULATE_SHARD = sharded._simulate_shard


def _kill_first_worker():
    """SIGKILL this pool worker unless a cell died already; never the
    process that owns the pool."""
    if multiprocessing.parent_process() is None:
        return
    try:
        os.close(os.open(os.environ[MARKER_ENV], os.O_CREAT | os.O_EXCL | os.O_WRONLY))
    except (KeyError, FileExistsError):
        return
    os.kill(os.getpid(), signal.SIGKILL)


def dying_cell(*args):
    _kill_first_worker()
    return _RUN_CELL(*args)


def dying_shard(task):
    _kill_first_worker()
    return _SIMULATE_SHARD(task)


def arm():
    """Make the first pooled cell of this process die (the CLI child)."""
    sweep._run_cell = dying_cell
    sharded._simulate_shard = dying_shard


#: The CLI in a child process with every pool armed.
_CLI = """
import sys
from tests import test_worker_faults
test_worker_faults.arm()
from repro.cli import main
sys.exit(main(sys.argv[1:]))
"""


@pytest.fixture
def armed(tmp_path, monkeypatch):
    """The kill marker's path, with this process and the CLI child
    spilling streams under a private temp dir; afterwards, no spilled
    stream directory is left in it."""
    marker = tmp_path / "killed"
    monkeypatch.setenv(MARKER_ENV, str(marker))
    # The child finds the native library where this process built it.
    monkeypatch.setenv(cbuild.CACHE_DIR_ENV, cbuild.cache_dir())
    spills = tmp_path / "tmp"
    spills.mkdir()
    monkeypatch.setenv("TMPDIR", str(spills))
    monkeypatch.setattr(tempfile, "tempdir", str(spills))
    yield marker
    assert not list(spills.glob("saga_stream-*"))


def _assert_names_lost_cells(failure, cells):
    assert re.search(f"cells that did not finish: {cells}", str(failure.value))
    assert isinstance(failure.value.__cause__, BrokenProcessPool)


def _assert_cli_dies(argv, cells, tmp_path):
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(sys.path),
        MARKER_ENV: str(tmp_path / "cli-killed"),
    }
    child = subprocess.run(
        [sys.executable, "-c", _CLI, *argv],
        env=env, cwd=tmp_path, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode != 0
    assert "BrokenProcessPool" in child.stderr, child.stderr[-3000:]
    assert re.search(f"cells that did not finish: {cells}", child.stderr), child.stderr[-3000:]


def test_a_dead_sweep_worker_names_its_cells(armed, monkeypatch, tmp_path):
    """``run_many``: two shuffles of one stream, two requests over one
    spilled stream directory."""
    requests = [
        sweep.StreamRequest(
            "Talk",
            StreamConfig(
                batch_size=500, structures=("AS",), algorithms=("PR",),
                models=("INC",), machine=SMALL_MACHINE, shuffle_seed=seed,
            ),
            size_factor=0.05,
        )
        for seed in (0, 1)
    ]
    monkeypatch.setattr(sweep, "_run_cell", dying_cell)
    with pytest.raises(ReproError) as failure:
        sweep.run_many(requests, jobs=2)
    _assert_names_lost_cells(failure, r"Talk-s[01]")
    assert armed.exists()
    monkeypatch.setattr(sweep, "_run_cell", _RUN_CELL)
    pooled = sweep.run_many(requests, jobs=2)
    alone = sweep.run_many(requests)
    assert [r.to_payload()[0] for r in pooled] == [r.to_payload()[0] for r in alone]
    _assert_cli_dies(
        ["table3", "--quick", "--jobs", "2", "--no-cache"], r"\w+-s\d+", tmp_path
    )


def test_a_dead_profile_worker_names_its_cells(armed, monkeypatch, tmp_path):
    """``profile_cells``: two Fig 9/10 cells over one spilled stream
    directory."""
    profiler = HardwareProfiler(
        machine=SMALL_MACHINE, core_counts=(2,), algorithms=("BFS",),
        batch_size=1250, trace_cap=2_000,
    )
    specs = [("Talk", "DAH", 0.05), ("Talk", "AS", 0.05)]
    monkeypatch.setattr(sweep, "_run_cell", dying_cell)
    with pytest.raises(ReproError) as failure:
        profiler.profile_cells(specs, jobs=2)
    _assert_names_lost_cells(failure, r"Talk/(DAH|AS)")
    assert armed.exists()
    monkeypatch.setattr(sweep, "_run_cell", _RUN_CELL)
    assert [cell.batches for cell in profiler.profile_cells(specs, jobs=2)] == [
        profiler.profile_cell(*spec).batches for spec in specs
    ]
    _assert_cli_dies(
        ["fig9", "--quick", "--jobs", "2", "--no-cache", "--output", "out"],
        r"\w+/\w+",
        tmp_path,
    )


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="one CPU: shards replay in process")
@pytest.mark.parametrize("transport", ["stream-directory", "spilled"])
def test_a_dead_shard_worker_names_its_shard(transport, armed, monkeypatch, tmp_path):
    """A sharded replay reading the stream from its own mmap directory,
    and one reading an in-RAM stream spilled to a temporary one."""
    if transport == "stream-directory":
        dataset = make_rmat_dataset(
            scale=12, num_edges=4000, mmap_dir=tmp_path / "s", chunk_edges=2000
        )
        argv = [
            "scale", "--scale", "12", "--edges", "6000", "--batch-size", "2000",
            "--chunk-edges", "2500", "--mmap-dir", str(tmp_path / "cli"), "--shards", "2",
        ]
    else:
        dataset = load_dataset("Talk", size_factor=0.05)
        argv = ["stream", "--no-cache", "--size-factor", "0.05", "--shards", "2"]
    config = StreamConfig(
        shards=2, batch_size=1000, structures=("AS",), algorithms=("PR",),
        models=("INC",), machine=SMALL_MACHINE,
    )
    monkeypatch.setattr(sharded, "_simulate_shard", dying_shard)
    with pytest.raises(ReproError) as failure:
        sharded.ShardedStreamDriver(config).run(dataset)
    _assert_names_lost_cells(failure, r"shard [01]")
    monkeypatch.setattr(sharded, "_simulate_shard", _SIMULATE_SHARD)
    pooled = sharded.ShardedStreamDriver(config).run(dataset)
    with one_cpu():
        alone = sharded.ShardedStreamDriver(config).run(dataset)
    assert np.array_equal(pooled.update_cycles, alone.update_cycles)
    _assert_cli_dies(argv, r"shard [01]", tmp_path)
