"""Single-Source Shortest Paths.

Table I vertex function:
``v.path <- min over in-edges of (e.source.path + e.weight)``.

FS implementation: delta-stepping (the GAP baseline the paper uses;
footnote 7 notes it is highly optimized, which is why FS stays
competitive with INC on SSSP).  Light edges (weight <= delta) are
relaxed iteratively inside a bucket; heavy edges once per settled
bucket.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.algorithms.base import Algorithm, in_pairs
from repro.compute import ckernels, kernels
from repro.compute.stats import ComputeRun
from repro.errors import ConfigError, SimulationError
from repro.obs.tracer import TRACER

#: First float64 past the largest bucket index an int64 holds.
_BUCKET_LIMIT = 2.0**63


def _bucket_overflow(delta: float) -> SimulationError:
    return SimulationError(
        f"SSSP: a path length divided by delta={delta!r} does not fit in an "
        "int64 bucket index; use a larger delta"
    )


def _bucket_index(lengths: np.ndarray, delta: float) -> np.ndarray:
    """The delta-stepping bucket of each path length."""
    # A quotient past float64 is inf or NaN, and refused just below.
    with np.errstate(over="ignore", invalid="ignore"):
        index = np.floor_divide(lengths, delta)
    if not (np.abs(index) < _BUCKET_LIMIT).all():  # NaN fails too
        raise _bucket_overflow(delta)
    return index.astype(np.int64)


class SSSP(Algorithm):
    """Shortest paths; value is the path length.

    The FS baseline is delta-stepping (parallel, as in GAP).
    """

    name = "SSSP"
    needs_source = True
    uses_weights = True
    monotonic = "min"
    ckernel_op = ckernels.OP_SSSP

    def supports(self, source_value, weight, target_value):
        return target_value == source_value + weight

    def supports_batch(self, source_values, weights, target_values):
        return target_values == source_values + weights

    def __init__(self, delta: Optional[float] = None) -> None:
        if delta is not None and not 0 < delta < np.inf:
            raise ConfigError(
                f"SSSP delta must be a positive finite bucket width, got {delta!r}"
            )
        self.delta = delta

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return np.full(len(ids), np.inf)

    def source_value(self) -> float:
        return 0.0

    def recalculate(self, v: int, view, values: np.ndarray) -> float:
        best = np.inf
        for u, w in in_pairs(view, v):
            candidate = values[u] + w
            if candidate < best:
                best = candidate
        return best

    def recalculate_batch(self, frontier, cv, values, rows, view):
        seg, nbr, wts = rows
        counts = np.bincount(seg, minlength=len(frontier))
        return kernels.segment_min(values[nbr] + wts, counts, np.inf)

    def _pick_delta(self, cv) -> float:
        if self.delta is not None:
            return self.delta
        # Mean edge weight is a standard default for delta-stepping.
        weights = kernels.packed_out_weights(cv)
        count = int(weights.size)
        # Sequential cumsum keeps a scalar loop's accumulation order
        # (np.sum is pairwise and rounds differently).
        total = float(np.cumsum(weights)[-1]) if count else 0.0
        return max(total / count, 1e-9) if count else 1.0

    @TRACER.layer("algorithms.fs")
    def fs_run(self, view, source: Optional[int] = None) -> ComputeRun:
        source = self.checked_source(source, view)
        cv = kernels.ComputeView.of(view)
        # One NaN poisons the delta pick and a negative cycle never
        # settles: neither bucket loop can be trusted to return.
        if not (kernels.packed_out_weights(cv) >= 0).all():
            raise SimulationError(
                "SSSP: the view's out-edge weights column holds a negative or "
                "NaN weight; shortest paths need weights >= 0"
            )
        return self._fs_delta_kernel(cv, source)

    def _fs_delta_kernel(self, cv, source: int) -> ComputeRun:
        """Delta-stepping over the columnar view.

        Light edges (weight <= delta) are relaxed iteratively inside a
        bucket; heavy edges once per settled bucket.  When the compute
        kernels built, the whole bucket loop is one C call recorded in
        a run log (``ckernels.ComputeKernels.delta_run``);
        :meth:`_delta_loop` is its reference and the no-compiler
        fallback.
        """
        n = max(cv.num_nodes, 1)
        values = np.full(n, np.inf)
        run = ComputeRun(algorithm=self.name, model="FS", values=values, source=source)
        run.linear_scans = 1
        if source >= cv.num_nodes:
            return run
        values[source] = 0.0
        delta = self._pick_delta(cv)
        ck = ckernels.get()
        with TRACER.span(
            "compute.kernel", args={"algorithm": self.name, "model": "FS"}
        ):
            if ck is None:
                self._delta_loop(cv, run, source, delta)
                return run
            vlog, table, overflow = ck.delta_run(cv.out_csr, source, values, delta)
            if overflow:
                raise _bucket_overflow(delta)
            kernels._append_run_log(run, vlog, table, frontier="pushed")
        return run

    @staticmethod
    def _delta_loop(cv, run: ComputeRun, source: int, delta: float) -> None:
        """The bucket loop, pass-at-a-time in numpy.

        Each light/heavy pass is one :func:`kernels.relax_pass` (prefix
        waves reproduce the sequential bases) plus one
        :func:`kernels.relaxation_events` scan that recovers exactly the
        successful compare-and-updates a sequential per-edge loop would
        have performed -- so pushes, bucket membership, and float bits
        all match it.
        """
        values = run.values

        def relax(base: np.ndarray, wts: np.ndarray) -> np.ndarray:
            return base + wts

        def pass_events(frontier: np.ndarray, heavy: bool):
            """(target, bucket) of each winning relaxation, in order."""
            mask = (lambda w: w > delta) if heavy else (lambda w: w <= delta)
            cand, tgt, x0 = kernels.relax_pass(
                cv, values, frontier, relax, "min", edge_mask=mask
            )
            events = kernels.relaxation_events(cand, tgt, x0, minimize=True)
            kernels._observe_frontier(run, frontier.size)
            run.add_round(
                push=frontier, pushes=int(events.size), cas_ops=int(events.size)
            )
            return tgt[events], _bucket_index(cand[events], delta)

        # Buckets hold unmerged member fragments; dedup happens at pop
        # time (same members as deduplicating on insert).
        buckets: Dict[int, List[np.ndarray]] = {
            0: [np.array([source], dtype=np.int64)]
        }
        while buckets:
            i = min(buckets)
            members = np.unique(np.concatenate(buckets.pop(i)))
            settled_parts: List[np.ndarray] = []
            # Light-edge phase: iterate within the bucket.
            while True:
                frontier = members[_bucket_index(values[members], delta) == i]
                if frontier.size == 0:
                    break
                settled_parts.append(frontier)
                ev_t, js = pass_events(frontier, heavy=False)
                same = js == i
                members = np.unique(ev_t[same])
                other = np.nonzero(~same)[0]
                for j in np.unique(js[other]):
                    buckets.setdefault(int(j), []).append(ev_t[other[js[other] == j]])
            if not settled_parts:
                continue
            # Heavy-edge phase: one relaxation pass over the bucket.
            ev_t, js = pass_events(np.concatenate(settled_parts), heavy=True)
            for j in np.unique(js):
                buckets.setdefault(int(j), []).append(ev_t[js == j])
