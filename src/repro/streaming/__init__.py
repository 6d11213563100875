"""Streaming execution: batching, the driver loop, and result series.

Implements the paper's measurement methodology (Section IV-B): shuffle
the stream, ingest fixed-size batches, run update then compute per
batch, and report per-batch latencies that the analysis layer averages
into P1/P2/P3 stages with 95% confidence intervals.

The data plane underneath is lazy and transport-agnostic:
:class:`~repro.streaming.batching.BatchView` gathers batches on demand
from in-RAM or memory-mapped edge arrays (a pool worker always reads
an mmap stream directory), and
:func:`~repro.streaming.driver.make_driver` selects the static or the
auto-tuned (:mod:`~repro.streaming.autotune`) driver.
"""

from repro.streaming.batching import BatchView, batch_count, make_batches
from repro.streaming.driver import (
    ALL_ALGORITHMS,
    ALL_STRUCTURES,
    StreamConfig,
    StreamDriver,
    make_driver,
)
from repro.streaming.autotune import AdaptiveController, AdaptiveStreamDriver
from repro.streaming.results import (
    RESULT_SCHEMA_VERSION,
    BatchRecord,
    StreamResult,
)

__all__ = [
    "AdaptiveController",
    "AdaptiveStreamDriver",
    "ALL_ALGORITHMS",
    "ALL_STRUCTURES",
    "batch_count",
    "BatchRecord",
    "BatchView",
    "make_batches",
    "make_driver",
    "RESULT_SCHEMA_VERSION",
    "StreamConfig",
    "StreamDriver",
    "StreamResult",
]
