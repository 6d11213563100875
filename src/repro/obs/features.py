"""Per-batch feature capture: the raw material of the cost model.

The tracer answers "where did the wall time go" and the registry
answers "how much of each thing happened", but neither keeps the
*per-batch join* the cost-model fitter needs: one row per
(batch, phase, structure[, algorithm, model]) carrying the simulated
latency **and** the operation counts that produced it (batch size,
churn, frontier work, degree stats).  :data:`FEATURES` is that third
global: the streaming driver appends rows while it runs, the fitter in
:mod:`repro.obs.model` consumes them.

Same cost contract as the other two singletons: disabled by default,
one attribute check per recording site when off; rows are plain
JSON-safe dicts so they pickle across sweep workers and serialize into
run reports unchanged.

Row schema (see :mod:`repro.obs.model` for how each field is used):

- common: ``phase`` (``"update"`` | ``"compute"``), ``dataset``,
  ``rep``, ``batch``, ``batch_edges``, ``edges_inserted``,
  ``edges_deleted``, ``churn_fraction``, ``num_nodes``, ``num_edges``,
  ``mean_out_degree``, ``max_out_degree``, ``t_seconds`` (the
  simulated phase latency -- the fit target), ``ops`` (the closed-form
  model's abstract operation count);
- update rows: ``structure``;
- compute rows: ``structure``, ``algorithm``, ``model``, plus the ops
  decomposition ``pull_vertices`` / ``push_vertices`` /
  ``pull_degree`` / ``push_degree`` / ``pushes`` / ``cas_ops`` /
  ``scan_ops`` / ``frontier_rounds`` and ``wall_seconds`` (interpreter
  time of the kernel run, shared across the structure rows of one
  algorithm x model execution).
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional

#: Cap on stored rows; past it new rows are counted but dropped, so a
#: full-scale sweep cannot exhaust memory.
MAX_ROWS = 1_000_000


class FeatureLog:
    """Append-only log of per-batch feature rows.

    Thread-safe (one lock around the list) and cheap when disabled:
    recording sites guard with ``if FEATURES.enabled:`` exactly like
    the metrics registry.
    """

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._rows: List[dict] = []
        self.dropped_rows = 0

    # -- lifecycle ------------------------------------------------------

    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop every row (enabled state is untouched)."""
        with self._lock:
            self._rows.clear()
            self.dropped_rows = 0

    # -- write side -----------------------------------------------------

    def record(self, **row) -> None:
        """Append one feature row (values must be JSON-safe scalars)."""
        with self._lock:
            if len(self._rows) >= MAX_ROWS:
                self.dropped_rows += 1
                return
            self._rows.append(row)

    # -- read side ------------------------------------------------------

    def rows(self, phase: Optional[str] = None) -> List[dict]:
        """Collected rows (copies of the list, rows shared)."""
        with self._lock:
            if phase is None:
                return list(self._rows)
            return [row for row in self._rows if row.get("phase") == phase]

    # -- cross-process transport ----------------------------------------

    def to_payload(self) -> Dict[str, object]:
        """Picklable snapshot for transport out of a worker process."""
        with self._lock:
            return {"rows": list(self._rows), "dropped_rows": self.dropped_rows}

    def absorb(self, payload: Dict[str, object]) -> None:
        """Merge a worker's :meth:`to_payload` snapshot into this log.

        Append-only and commutative up to row order; the fitter groups
        rows by key, so absorption order never changes a fit.
        """
        with self._lock:
            for row in payload.get("rows", []):
                if len(self._rows) >= MAX_ROWS:
                    self.dropped_rows += 1
                    continue
                self._rows.append(row)
            self.dropped_rows += int(payload.get("dropped_rows", 0))


#: The process-global feature log the streaming driver records into.
FEATURES = FeatureLog()
