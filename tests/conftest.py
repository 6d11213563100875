"""Shared fixtures for the test suite."""

from __future__ import annotations

import contextlib
import os

import numpy as np
import pytest

from repro.compute import ckernels
from repro.compute.csrstore import CHURN_ENV
from repro.graph import EdgeBatch, ExecutionContext, ReferenceGraph
from repro.sim import cingest
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
def churn_threshold_env(setting):
    """Run with ``SAGA_BENCH_CSR_REBUILD_CHURN`` set (``None``: unset)."""
    previous = os.environ.pop(CHURN_ENV, None)
    if setting is not None:
        os.environ[CHURN_ENV] = setting
    try:
        yield
    finally:
        os.environ.pop(CHURN_ENV, None)
        if previous is not None:
            os.environ[CHURN_ENV] = previous


@contextlib.contextmanager
def _kernel_gate(module, setting):
    """Re-probe a compiled-kernel module under one ``DISABLE_ENV``
    setting (``None``: unset); the outer setting comes back afterwards."""
    previous = os.environ.pop(module.DISABLE_ENV, None)
    if setting is not None:
        os.environ[module.DISABLE_ENV] = setting
    module.reset()
    try:
        yield
    finally:
        os.environ.pop(module.DISABLE_ENV, None)
        if previous is not None:
            os.environ[module.DISABLE_ENV] = previous
        module.reset()


def ccompute_env(setting):
    """``SAGA_BENCH_NO_CCOMPUTE``: ``None`` compiled, ``"1"`` numpy engines."""
    return _kernel_gate(ckernels, setting)


def cingest_env(setting):
    """``SAGA_BENCH_NO_CINGEST``: ``None`` stores get the C kernel,
    ``"all"`` none do (every batch runs the per-edge methods)."""
    return _kernel_gate(cingest, setting)


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
