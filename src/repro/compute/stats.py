"""Operation-count records produced by one compute-phase run.

Vertex values do not depend on which data structure stores the
topology, so the driver executes each algorithm once per batch against
a neutral view and records *what work happened*; per-structure compute
latencies are then priced from these records (see
:mod:`repro.compute.pricing`).  This mirrors the paper's observation
that the compute phase differs across structures only through the
traversal mechanism.

The record is columnar -- the run log the compiled run kernels write
(:mod:`repro.compute.ckernels`) is stored as it arrives: one vertex log
and one round table.  The pricer hands both to one native call;
:attr:`ComputeRun.iterations` decodes them for whoever wants to read a
run round by round.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

from repro.errors import SimulationError
from repro.widths import VERTEX

#: Columns of :attr:`ComputeRun.rounds`.
ROUND_COLUMNS = ("offset", "pulled", "pushed", "cas_ops", "pushes")


@dataclass
class IterationStats:
    """Work performed by one parallel iteration of an algorithm.

    Attributes
    ----------
    pull_vertices:
        Vertices whose vertex function was (re)evaluated by traversing
        their **in**-edges (Table I functions are pull-style).
    push_vertices:
        Vertices whose **out**-neighbors were scanned to propagate a
        change (Algorithm 1 line 12) or to relax edges (frontier-style
        FS algorithms).
    pushes:
        Vertices appended to the next frontier/queue.
    cas_ops:
        Compare-and-swap attempts on the visited bitvector.
    """

    pull_vertices: np.ndarray
    push_vertices: np.ndarray
    pushes: int = 0
    cas_ops: int = 0


def check_round_table(rounds: np.ndarray, log_length: int) -> None:
    """Refuse a round table with a row outside its ``log_length``-entry
    vertex log: native code reads the log by the table's rows."""
    if len(rounds):
        spans = rounds[:, :3]
        if spans.min() < 0 or spans.sum(axis=1).max() > log_length:
            raise SimulationError(
                f"round table points outside its {log_length}-entry vertex log"
            )


def _grown(buffer: np.ndarray, used: int, needed: int) -> np.ndarray:
    """``buffer`` with room for ``needed`` rows (at least doubled), the
    ``used`` prefix kept."""
    grown = np.empty((max(needed, 2 * len(buffer)),) + buffer.shape[1:], buffer.dtype)
    grown[:used] = buffer[:used]
    return grown


@dataclass
class ComputeRun:
    """Everything one compute-phase execution produced.

    ``values`` is the final vertex property array.  The operation counts
    the pricer consumes are two columns: ``vertex_log`` (int32) and the
    round table ``rounds``, one ``(offset, pulled, pushed, cas_ops,
    pushes)`` row per parallel iteration -- the round's pull vertices
    are the ``pulled`` log entries from ``offset`` on, its push vertices
    the ``pushed`` entries behind them.  Rounds may share log entries: a
    Jacobi fixpoint records its vertices once and every round points at
    them.  ``linear_scans`` counts full passes over the vertex array
    (INC's affected-flag scan and new-vertex initialization, FS's value
    reset), each charged as one light access per vertex.
    """

    algorithm: str
    model: str
    values: np.ndarray
    linear_scans: int = 0
    converged: bool = True
    source: Optional[int] = None
    # Both columns sit in buffers with room to spare; the used prefixes
    # are what ``vertex_log`` and ``rounds`` return.
    _log: np.ndarray = field(
        default_factory=lambda: np.empty(0, VERTEX), init=False, repr=False
    )
    _table: np.ndarray = field(
        default_factory=lambda: np.empty((0, len(ROUND_COLUMNS)), np.int64),
        init=False,
        repr=False,
    )
    _logged: int = field(default=0, init=False, repr=False)
    _count: int = field(default=0, init=False, repr=False)

    @property
    def vertex_log(self) -> np.ndarray:
        return self._log[: self._logged]

    @property
    def rounds(self) -> np.ndarray:
        return self._table[: self._count]

    def set_log(self, vertex_log: np.ndarray, rounds: np.ndarray) -> None:
        """Take over a whole run's columns (a run kernel's log).

        Every row must lie inside ``vertex_log``: the pricer passes both
        to native code by pointer.
        """
        log = np.ascontiguousarray(vertex_log, dtype=VERTEX)
        table = np.ascontiguousarray(rounds, dtype=np.int64)
        if log.ndim != 1 or table.ndim != 2 or table.shape[1] != len(ROUND_COLUMNS):
            raise SimulationError(
                f"a run log is a vertex vector and a table of {ROUND_COLUMNS} "
                f"rows, got shapes {log.shape} and {table.shape}"
            )
        check_round_table(table, len(log))
        self._log, self._logged = log, len(log)
        self._table, self._count = table, len(table)

    def add_round(self, pull=(), push=(), pushes: int = 0, cas_ops: int = 0) -> None:
        """Append one parallel iteration (the round-at-a-time engines)."""
        pull = np.asarray(pull, dtype=VERTEX)
        push = np.asarray(push, dtype=VERTEX)
        start = self._logged
        mid = start + len(pull)
        end = mid + len(push)
        if end > len(self._log):
            self._log = _grown(self._log, start, end)
        self._log[start:mid] = pull
        self._log[mid:end] = push
        if self._count == len(self._table):
            self._table = _grown(self._table, self._count, self._count + 1)
        self._table[self._count] = (start, len(pull), len(push), cas_ops, pushes)
        self._logged = end
        self._count += 1

    @property
    def iterations(self) -> Tuple[IterationStats, ...]:
        """The rounds decoded one by one (slices of the log, not copies).

        A view for tests, oracles and examples: nothing is stored per
        round, so there is nothing here to append to.
        """
        log = self.vertex_log
        decoded = []
        for offset, pulled, pushed, cas_ops, pushes in self.rounds.tolist():
            mid = offset + pulled
            decoded.append(
                IterationStats(log[offset:mid], log[mid : mid + pushed], pushes, cas_ops)
            )
        return tuple(decoded)

    @property
    def iteration_count(self) -> int:
        return self._count
