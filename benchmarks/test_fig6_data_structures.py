"""Fig. 6: latency of AC, DAH, Stinger normalized to AS at P3.

Shape expectations from the paper (Section V-B):

- (b) update, short-tailed: DAH > AC > Stinger > AS
  (DAH 2.3x-3.2x, AC 2.2x-2.6x, Stinger 1.57x-1.76x over AS);
- (b) update, heavy-tailed: AS > AC > Stinger > DAH
  (AS 12.6x/3.9x/2.6x over DAH/Stinger/AC, averaged);
- (c) compute: DAH is the most expensive traversal everywhere (up to
  4.7x AS, worst for PR); AC tracks AS.
"""

import numpy as np

from repro.datasets.catalog import HEAVY_TAILED, SHORT_TAILED


def test_fig6(benchmark, software_profile):
    datasets = list(software_profile.results)
    algorithms = software_profile.results[datasets[0]].algorithms

    def reduce_all():
        return {
            (algorithm, dataset): software_profile.fig6(algorithm, dataset, stage=2)
            for dataset in datasets
            for algorithm in algorithms
        }

    ratios = benchmark.pedantic(reduce_all, rounds=1, iterations=1)

    # (b) update, short-tailed: every structure costs more than AS and
    # DAH costs the most.
    for dataset in SHORT_TAILED:
        update = ratios[(algorithms[0], dataset)]["update"]
        assert update["DAH"] > 1.5, (dataset, update)
        assert update["AC"] > 1.2, (dataset, update)
        assert update["Stinger"] > 1.0, (dataset, update)
        assert update["DAH"] == max(update.values()), (dataset, update)

    # (b) update, heavy-tailed: the ordering flips; DAH is fastest and
    # AS slowest.
    for dataset in HEAVY_TAILED:
        update = ratios[(algorithms[0], dataset)]["update"]
        assert update["DAH"] < 0.5, (dataset, update)
        assert update["Stinger"] < 1.0, (dataset, update)
        assert update["AC"] < 1.0, (dataset, update)
        assert update["DAH"] == min(update.values()), (dataset, update)

    # The paper's averaged heavy-tailed factors: AS over DAH/Stinger/AC.
    avg = {
        s: float(np.mean([
            1.0 / ratios[(algorithms[0], d)]["update"][s] for d in HEAVY_TAILED
        ]))
        for s in ("AC", "Stinger", "DAH")
    }
    assert avg["DAH"] > avg["Stinger"] > avg["AC"] > 1.0, avg

    # (c) compute: DAH has the most expensive traversal on every dataset.
    for dataset in datasets:
        for algorithm in algorithms:
            compute = ratios[(algorithm, dataset)]["compute"]
            assert compute["DAH"] >= max(compute.values()) - 1e-9, (
                algorithm,
                dataset,
                compute,
            )

    # (c) PR punishes DAH hardest among algorithms (degree queries).
    for dataset in datasets:
        pr_ratio = ratios[("PR", dataset)]["compute"]["DAH"]
        others = [
            ratios[(a, dataset)]["compute"]["DAH"] for a in algorithms if a != "PR"
        ]
        assert pr_ratio >= max(others) - 1e-9, (dataset, pr_ratio, others)
