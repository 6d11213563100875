"""Shared fixtures for the benchmark harnesses.

The paper's evaluation artifacts come from two expensive sweeps: the
software-level profile (Section V: Table III, Figs. 6-8) and the
architecture-level profile (Section VI: Figs. 9-10).  Both run once per
benchmark session here; the per-table/figure benchmarks then time their
reduction step and write the rendered artifact to
``benchmarks/output/``.

Set ``SAGA_BENCH_QUICK=1`` to run the sweeps at reduced scale while
developing (the sweeps of ``python -m repro ... --quick``).  Both sweeps go through the experiment engine: point
``SAGA_BENCH_CACHE_DIR`` at a directory to serve repeated benchmark
sessions from the RunStore cache, and set ``SAGA_BENCH_JOBS=N`` to fan
sweep cells over N worker processes.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.analysis import paper_hardware_profile, paper_software_profile
from repro.engine import default_store

QUICK = bool(int(os.environ.get("SAGA_BENCH_QUICK", "0")))

OUTPUT_DIR = Path(__file__).parent / "output"


@pytest.fixture(scope="session")
def run_store():
    """The session's RunStore (None unless SAGA_BENCH_CACHE_DIR is set)."""
    return default_store()


@pytest.fixture(scope="session")
def engine_jobs():
    """Worker-process count for sweep cells (SAGA_BENCH_JOBS)."""
    return int(os.environ.get("SAGA_BENCH_JOBS", "0")) or None


@pytest.fixture(scope="session")
def full_scale() -> bool:
    """False under SAGA_BENCH_QUICK: skip full-scale shape assertions."""
    return not QUICK


@pytest.fixture(scope="session")
def output_dir() -> Path:
    OUTPUT_DIR.mkdir(exist_ok=True)
    return OUTPUT_DIR


@pytest.fixture(scope="session")
def record_output(output_dir):
    """Write one rendered artifact to disk and echo it."""

    def _record(name: str, text: str) -> str:
        path = output_dir / f"{name}.txt"
        path.write_text(text + "\n")
        print(f"\n{text}\n[written to {path}]")
        return text

    return _record


@pytest.fixture(scope="session")
def software_profile(run_store, engine_jobs):
    """The full Section V sweep: all datasets, 4 structures x 2 models."""
    return paper_software_profile(QUICK, run_store, engine_jobs)


@pytest.fixture(scope="session")
def hardware_profile(run_store, engine_jobs):
    """The full Section VI sweep on the scaled cache hierarchy."""
    return paper_hardware_profile(QUICK, run_store, engine_jobs)
