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

from repro import lazy_exports

_EXPORTS = {
    "batch_count": "batching",
    "make_batches": "batching",
    "StreamConfig": "driver",
    "StreamDriver": "driver",
    "make_driver": "driver",
    "StreamResult": "results",
    "AdaptiveController": "autotune",
    "AdaptiveStreamDriver": "autotune",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
