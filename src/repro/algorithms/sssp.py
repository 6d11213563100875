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

from typing import Dict, List, Optional, Set

import numpy as np

from repro.algorithms.base import Algorithm
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


def _bucket_of(length: float, delta: float) -> int:
    """The delta-stepping bucket of a path length.

    Python's float floor division is ``np.floor_divide``'s algorithm
    (numpy took CPython's), so the bucket is the kernel's, and a
    quotient past float64 comes back inf or NaN instead of warning.
    """
    index = float(length) // float(delta)
    if not abs(index) < _BUCKET_LIMIT:  # NaN fails too
        raise _bucket_overflow(delta)
    return int(index)


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
        for u, w in view.in_neigh(v):
            candidate = values[u] + w
            if candidate < best:
                best = candidate
        return best

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
        :meth:`_delta_loop` is its reference and the path without the
        native library.
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
        """The bucket loop, one edge at a time (the kernel's reference).

        A bucket is taken lowest first; its members whose value still
        lies in it are the light frontier, ascending.  Each light pass
        relaxes the frontier's edges of weight <= delta in order, and a
        winning relaxation files its target under its new bucket -- the
        same bucket feeds the next light pass.  When the bucket runs dry,
        one heavy pass relaxes the other edges of everything it settled,
        in settling order.
        """
        values = run.values
        buckets: Dict[int, Set[int]] = {0: {source}}

        def run_pass(frontier: List[int], bucket: int, heavy: bool) -> Set[int]:
            """Relax the frontier's light or heavy edges in order, file each
            improved target under its new bucket, and return the targets
            of a light pass that stay in ``bucket``."""
            same: Set[int] = set()
            events = 0
            for v in frontier:
                base = values[v]
                for w, weight in cv.out_neigh(v):
                    if (weight > delta) != heavy:
                        continue
                    candidate = base + weight
                    if candidate < values[w]:
                        values[w] = candidate
                        events += 1
                        j = _bucket_of(candidate, delta)
                        if j == bucket and not heavy:
                            same.add(w)
                        else:
                            buckets.setdefault(j, set()).add(w)
            run.add_round(push=frontier, pushes=events, cas_ops=events)
            return same

        while buckets:
            i = min(buckets)
            members = buckets.pop(i)
            settled: List[int] = []
            # Light-edge phase: iterate within the bucket.
            while True:
                frontier = sorted(
                    v for v in members if _bucket_of(values[v], delta) == i
                )
                if not frontier:
                    break
                settled.extend(frontier)
                members = run_pass(frontier, i, heavy=False)
            if settled:
                # Heavy-edge phase: one relaxation pass over the bucket.
                run_pass(settled, i, heavy=True)
        kernels._observe_frontiers(run, "pushed")
