"""Fig. 7: FS compute latency normalized to INC, per stage.

Shape expectations from the paper (Section V-C):

- larger graphs benefit more from INC: RMAT (the largest) is the
  biggest beneficiary, Wiki/Talk (the smallest) the smallest;
- the benefit grows with the stream (P3 >= P1 for the large graphs);
- CC shows the largest factors; SSSP's optimized delta-stepping FS
  stays competitive (ratios near 1) except on large graphs.
"""

import numpy as np


def test_fig7(benchmark, software_profile):
    datasets = list(software_profile.results)
    algorithms = software_profile.results[datasets[0]].algorithms

    def reduce_all():
        return {
            (algorithm, dataset): software_profile.fig7(algorithm, dataset)
            for dataset in datasets
            for algorithm in algorithms
        }

    ratios = benchmark.pedantic(reduce_all, rounds=1, iterations=1)
    assert all(r > 0 for rs in ratios.values() for r in rs)

    def mean_benefit(dataset):
        return float(
            np.mean([ratios[(a, dataset)][2] for a in algorithms if a != "MC"])
        )

    # RMAT (largest) benefits more than the small heavy-tailed graphs.
    for small in ("Wiki", "Talk"):
        assert mean_benefit("RMAT") > mean_benefit(small), (
            mean_benefit("RMAT"),
            mean_benefit(small),
        )

    # The INC benefit grows as the graph grows (P3 > P1) for the
    # frontier algorithms (the paper's quantified example: BFS on RMAT
    # improves 6x -> 13x -> 15x over the stages).  CC/MC start with an
    # outsized P1 ratio -- their FS sweeps all vertices even when the
    # early graph is nearly empty -- so growth is asserted on the
    # frontier trio.
    for dataset in ("RMAT", "LJ", "Orkut"):
        for algorithm in ("BFS", "SSSP", "SSWP"):
            series = ratios[(algorithm, dataset)]
            assert series[2] > series[0], (dataset, algorithm, series)

    # CC (or its dual MC) is the strongest INC showcase everywhere.
    for dataset in datasets:
        strongest = max(ratios[(a, dataset)][2] for a in algorithms)
        cc_like = max(ratios[(a, dataset)][2] for a in algorithms if a in ("CC", "MC"))
        assert cc_like >= strongest, (dataset, cc_like, strongest)
