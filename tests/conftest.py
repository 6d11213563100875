"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import functools
import os
import subprocess
import sys
from typing import List, NamedTuple, Tuple

import numpy as np
import pytest

from repro import verify
from repro.algorithms.pagerank import DAMPING, PR_EPSILON
from repro.compute import csrstore
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph
from repro.sim import cbuild
from repro.sim.cost_model import DEFAULT_COST_MODEL
from repro.sim.machine import MachineConfig

#: A small simulated machine keeping unit-test schedules cheap.
SMALL_MACHINE = MachineConfig(
    sockets=2,
    cores_per_socket=4,
    smt=2,
    l1d_bytes=4 * 1024,
    l2_bytes=32 * 1024,
    llc_bytes_per_socket=256 * 1024,
    llc_ways=16,
)


@pytest.fixture
def machine() -> MachineConfig:
    return SMALL_MACHINE


@pytest.fixture
def ctx(machine) -> ExecutionContext:
    return ExecutionContext(machine=machine, cost_model=DEFAULT_COST_MODEL)


@contextlib.contextmanager
def churn_threshold(setting):
    """Run with the view maintainer's churn threshold at ``setting``
    (``None``: the constant as shipped)."""
    with pytest.MonkeyPatch.context() as patch:
        if setting is not None:
            patch.setattr(csrstore, "DEFAULT_CHURN_THRESHOLD", float(setting))
        yield


@contextlib.contextmanager
def native_env(setting):
    """Re-probe the native library under one ``SAGA_BENCH_NO_NATIVE``
    setting -- ``None`` (unset: it loads) or ``"1"`` (every phase on its
    Python reference); the outer setting comes back afterwards."""
    previous = os.environ.pop(cbuild.DISABLE_ENV, None)
    if setting is not None:
        os.environ[cbuild.DISABLE_ENV] = setting
    cbuild.NATIVE.reset()
    try:
        yield
    finally:
        os.environ.pop(cbuild.DISABLE_ENV, None)
        if previous is not None:
            os.environ[cbuild.DISABLE_ENV] = previous
        cbuild.NATIVE.reset()


class Observed(NamedTuple):
    """Everything a compute run must reproduce, comparable with ``==``."""

    label: str
    values: bytes
    linear_scans: int
    converged: bool
    #: One ``(pull ids, push ids, pushes, cas_ops)`` per round.
    rounds: List[Tuple[list, list, int, int]]


def observed(run) -> Observed:
    """A ``ComputeRun``'s value bits and whole run log."""
    return Observed(
        f"{run.algorithm}/{run.model}",
        run.values.tobytes(),
        run.linear_scans,
        run.converged,
        [
            (it.pull_vertices.tolist(), it.push_vertices.tolist(), it.pushes, it.cas_ops)
            for it in run.iterations
        ],
    )


def verified(run, edges, num_nodes, source=None):
    """``run`` once :mod:`repro.verify` accepted its values against the
    live ``edges`` columns (``DictGraph.edges()`` of a mirror fed the
    same stream): every BFS, SSSP, SSWP, CC and MC run, and PR's FS runs.

    An INC PR run is not checked: vertices it does not reach keep the
    ``(1 - d) / |V|`` term of a smaller graph, so it is no PageRank
    fixpoint, and only the engine differential pins it.
    """
    if run.algorithm == "PR":
        if run.model == "FS":
            verify.check_pagerank(run.values, edges, num_nodes, DAMPING, PR_EPSILON)
    else:
        verify.check(run.algorithm, run.values, edges, num_nodes, source)
    return run


def on_both_sides(test):
    """Run ``test`` once over the native library and once with every
    phase on its Python reference, under its one id."""

    @functools.wraps(test)
    def both(*args, **kwargs):
        for setting in (None, "1"):
            with native_env(setting):
                test(*args, **kwargs)

    return both


#: UndefinedBehaviorSanitizer, trapping: any undefined behaviour a test
#: reaches aborts the process, which fails the run.  GCC leaves the
#: float -> integer cast check out of ``undefined``; it is named.
UBSAN_FLAGS = (
    "-fsanitize=undefined",
    "-fsanitize=float-cast-overflow",
    "-fno-sanitize-recover=all",
)


@pytest.fixture(scope="session")
def _ubsan_cache(tmp_path_factory):
    """One build cache for every sanitized class: one UBSan build."""
    return tmp_path_factory.mktemp("ubsan")


@pytest.fixture(scope="class")
def ubsan_libraries(_ubsan_cache):
    """Rebuild the native library with UBSan for the class's tests.

    It is built from :data:`cbuild.CFLAGS`, so extending it (and
    pointing the build cache at a directory of its own) is all it
    takes; the class is skipped when it does not build.  ``dlopen``
    pulls in the UBSan runtime as a dependency of the object, so ctypes
    needs no ``LD_PRELOAD``.
    """
    if not cbuild.NATIVE.loaded():
        pytest.skip("no C compiler: library unavailable")
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setenv(cbuild.CACHE_DIR_ENV, str(_ubsan_cache))
            patch.setattr(cbuild, "CFLAGS", cbuild.CFLAGS + UBSAN_FLAGS)
            cbuild.NATIVE.reset()
            if not cbuild.NATIVE.loaded():
                pytest.skip(f"cc cannot build and link {' '.join(UBSAN_FLAGS)}")
            yield _ubsan_cache
    finally:
        # The next caller loads the regular build again.
        cbuild.NATIVE.reset()


def ubsan_probe(script: str, flags=UBSAN_FLAGS, **env) -> subprocess.CompletedProcess:
    """Run ``script`` in a child whose ``sys.argv[1:]`` are the sanitizer
    flags (it adds them to ``cbuild.CFLAGS`` itself, then makes a raw
    kernel call the Python wrappers would have refused)."""
    return subprocess.run(
        [sys.executable, "-c", script, *flags],
        env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path), **env},
        capture_output=True,
        text=True,
    )


#: AddressSanitizer beside UBSan.  An ASan object cannot be ``dlopen``ed
#: into a plain interpreter -- its runtime has to be loaded first -- so
#: these flags only ever go to a child started by :func:`asan_probe`.
ASAN_FLAGS = ("-fsanitize=address",) + UBSAN_FLAGS


def asan_probe(script: str, cache_dir) -> subprocess.CompletedProcess:
    """:func:`ubsan_probe` with the ASan runtime preloaded and a build
    cache of its own; skips where ``cc`` ships no ``libasan.so``."""
    found = subprocess.run(
        ["cc", "-print-file-name=libasan.so"], capture_output=True, text=True
    )
    runtime = found.stdout.strip()
    if found.returncode or not os.path.isabs(runtime):
        pytest.skip("cc has no AddressSanitizer runtime to preload")
    return ubsan_probe(
        script,
        ASAN_FLAGS,
        LD_PRELOAD=runtime,
        # CPython never frees its own arenas: leak reports are noise here.
        ASAN_OPTIONS="detect_leaks=0",
        **{cbuild.CACHE_DIR_ENV: str(cache_dir)},
    )


def random_batch(num_nodes: int, num_edges: int, seed: int, weights: bool = True) -> EdgeBatch:
    """A reproducible random edge batch without self-loops."""
    rng = np.random.default_rng(seed)
    src = rng.integers(0, num_nodes, size=num_edges)
    dst = rng.integers(0, num_nodes, size=num_edges)
    loops = src == dst
    dst[loops] = (dst[loops] + 1) % num_nodes
    weight = (
        rng.integers(1, 9, size=num_edges).astype(np.float64)
        if weights
        else np.ones(num_edges)
    )
    return EdgeBatch(src=src.astype(np.int64), dst=dst.astype(np.int64), weight=weight)


@pytest.fixture
def batch() -> EdgeBatch:
    return random_batch(num_nodes=60, num_edges=400, seed=11)


@pytest.fixture
def reference(batch) -> ReferenceGraph:
    graph = ReferenceGraph(60, directed=True)
    graph.update(batch)
    return graph
