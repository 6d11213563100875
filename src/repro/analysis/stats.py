"""Stage averaging with confidence intervals (Section IV-B).

The paper divides each experiment's batches into three equal stages and
reports P1 (early), P2 (middle), P3 (final) averages, pooling the
corresponding third of every repetition's batch values, with 95%
confidence intervals.  Here a repetition is one run (one
``shuffle_seed``): a ``StreamResult`` series is ``(1, batches)``, and
a caller pools several shuffles by stacking their series as rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

import numpy as np

from repro.errors import SimulationError

#: Two-sided 95% normal quantile used for the confidence intervals.
Z_95 = 1.959963984540054


@dataclass(frozen=True)
class StageStat:
    """Mean and 95% confidence half-width of one stage's latencies."""

    mean: float
    ci: float
    count: int

    @property
    def low(self) -> float:
        return self.mean - self.ci

    @property
    def high(self) -> float:
        return self.mean + self.ci

    def overlaps(self, other: "StageStat") -> bool:
        """True when the two 95% intervals intersect.

        The paper calls combinations with overlapping intervals
        *competitive* (the x/y entries of Table III).
        """
        return self.low <= other.high and other.low <= self.high


def stage_slices(num_batches: int, stages: int = 3) -> List[slice]:
    """Split ``num_batches`` into ``stages`` contiguous, near-equal slices."""
    if num_batches < 1:
        raise SimulationError(f"need at least one batch, got {num_batches}")
    if stages < 1:
        raise SimulationError(f"stages must be >= 1, got {stages}")
    bounds = np.linspace(0, num_batches, stages + 1).round().astype(int)
    return [slice(int(bounds[i]), int(bounds[i + 1])) for i in range(stages)]


def stage_stats(series: np.ndarray, stages: int = 3) -> List[StageStat]:
    """P1..Pn statistics of a ``(runs, batches)`` latency series.

    Each stage pools the corresponding third of the batches across all
    rows, one row per shuffle of the stream (the paper's
    ``1/3 x batchCount x 3`` averaging over three repetitions).
    Stages that received no batches (streams shorter than ``stages``)
    reuse the last non-empty stage so downstream tables stay total.
    """
    series = np.atleast_2d(np.asarray(series, dtype=np.float64))
    slices = stage_slices(series.shape[1], stages)
    result: List[StageStat] = []
    for sl in slices:
        pooled = series[:, sl].ravel()
        if pooled.size == 0:
            if not result:
                raise SimulationError("first stage cannot be empty")
            result.append(result[-1])
            continue
        mean = float(pooled.mean())
        if pooled.size > 1:
            ci = Z_95 * float(pooled.std(ddof=1)) / np.sqrt(pooled.size)
        else:
            ci = 0.0
        result.append(StageStat(mean=mean, ci=ci, count=int(pooled.size)))
    return result
