"""How fast is the box right now?  A fixed spin the worker times.

The reference box (2 vCPUs of a shared host) drifts between full speed
and about 1.8x slower, for seconds to minutes at a time; CPU time
inflates with wall time, so it is a slower core, not preemption.  Raw
host times of identical runs therefore spread by +-20%, more than any
bound worth gating on, and no statistic of one 28 s measurement removes
a slow stretch that outlasts it.

So every run carries its own yardstick.  One probe *unit* is a fixed
amount of interpreter and numpy work that touches nothing of ``repro``.
The worker times a few units before the entry point is called, one
every ``INTERVAL_S`` while it runs (from an interval-timer signal, so no
hook in the program is needed; the pauses are taken out of every time
reported), and a few after the result is written.  The run's
``speed_factor`` is ``REFERENCE_UNIT_S`` over the mean unit time, and
every host time of that run is reported multiplied by it: the time the
run would have taken on a box that runs the unit in
``REFERENCE_UNIT_S``.  bench_e2e/README.md has the measured spreads
with and without the scaling.

An optimisation of ``repro`` cannot move the probe, so it cannot hide
in the factor; an interpreter or numpy upgrade moves both sides, as it
should.
"""

from __future__ import annotations

from time import perf_counter
from typing import List

import numpy as np

#: Time of one unit on the reference box at full speed.  Only ratios of
#: reported times matter; this constant fixes their scale.
REFERENCE_UNIT_S = 0.0095

#: Units timed before the entry point is called and again after the
#: result is written.
EDGE_UNITS = 6

#: Seconds between two units while the entry point runs (~10% of the run).
INTERVAL_S = 0.1

_SPIN = 72_000
_SIZE = 16_384


class BoxSpeedProbe:
    """Times probe units; half interpreter loop, half numpy kernels."""

    def __init__(self) -> None:
        self.unit_s: List[float] = []
        self._base = np.arange(_SIZE, dtype=np.int64)
        self._order = np.random.default_rng(0).permutation(_SIZE)
        self._bins = np.zeros(1024)
        # The first unit pays numpy's lazy imports; time none of that.
        self.sample()
        self.unit_s.clear()

    def sample(self, units: int = 1) -> None:
        for _ in range(units):
            start = perf_counter()
            acc = 0
            for i in range(_SPIN):
                acc += i * i % 7
            for _ in range(2):
                gathered = self._base[self._order]
                np.cumsum(gathered)
                np.unique(gathered)
                np.add.at(self._bins, gathered[:4096] % 1024, 1.0)
            self.unit_s.append(perf_counter() - start)

    def speed_factor(self) -> float:
        """Multiply a host time of this run by this to report it."""
        return REFERENCE_UNIT_S * len(self.unit_s) / sum(self.unit_s)
