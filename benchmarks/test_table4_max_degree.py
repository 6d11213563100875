"""Table IV: max in/out-degree per dataset, full stream and one batch.

The paper's key structural split: LJ/Orkut/RMAT are short-tailed
(single-digit per-batch max degree), Wiki has a heavy in-tail and Talk
a heavy out-tail.  The stand-ins must reproduce that split.
"""

from repro.analysis import degree_table
from repro.datasets.catalog import HEAVY_TAILED, SHORT_TAILED


def test_table4(benchmark):
    rows = benchmark.pedantic(degree_table, rounds=1, iterations=1)

    for name in SHORT_TAILED:
        assert not rows[name].heavy_tailed, f"{name} must be short-tailed"
    for name in HEAVY_TAILED:
        assert rows[name].heavy_tailed, f"{name} must be heavy-tailed"
    # Wiki's tail is on the in side, Talk's on the out side.
    assert rows["Wiki"].batch_max_in > rows["Wiki"].batch_max_out
    assert rows["Talk"].batch_max_out > rows["Talk"].batch_max_in
