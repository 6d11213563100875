"""Shared fixtures for the full-size shape assertions.

The paper's evaluation artifacts come from two expensive sweeps: the
software-level profile (Section V: Table III, Figs. 6-8) and the
architecture-level profile (Section VI: Figs. 9-10).  Both run once per
benchmark session here, at full size; the per-table/figure benchmarks
then time their reduction step and assert the paper's shapes on it.

The artefacts themselves are written by one command,
``python -m repro all --output benchmarks/output``.  Point
``SAGA_BENCH_CACHE_DIR`` at the directory that run cached its sweeps in
(``--cache-dir``) to serve this session's sweeps from the RunStore.
"""

from __future__ import annotations

import pytest

from repro.analysis import paper_hardware_profile, paper_software_profile
from repro.engine import default_store


@pytest.fixture(scope="session")
def run_store():
    """The session's RunStore (None unless SAGA_BENCH_CACHE_DIR is set)."""
    return default_store()


@pytest.fixture(scope="session")
def software_profile(run_store):
    """The full Section V sweep: all datasets, 4 structures x 2 models."""
    return paper_software_profile(False, run_store)


@pytest.fixture(scope="session")
def hardware_profile(run_store):
    """The full Section VI sweep on the scaled cache hierarchy."""
    return paper_hardware_profile(False, run_store)
