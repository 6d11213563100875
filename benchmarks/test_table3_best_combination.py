"""Table III: best (data structure x compute model) per algorithm,
dataset, and stage, with the absolute batch processing latency.

Shape expectations from the paper:

- short-tailed LJ/Orkut/RMAT: INC with AS (occasionally Stinger) is
  best or competitive across stages;
- heavy-tailed Wiki/Talk: DAH takes over by P3;
- INC is predominantly the best compute model; FS stays competitive
  for SSSP and on the small heavy-tailed datasets.
"""

from collections import Counter

from repro.datasets import dataset_names
from repro.datasets.catalog import SHORT_TAILED


def test_table3(benchmark, software_profile):
    table = benchmark.pedantic(software_profile.table3, rounds=1, iterations=1)

    p3_structures = Counter()
    p3_models = Counter()
    for (algorithm, dataset), cells in table.items():
        p3 = cells[2]
        p3_structures[(dataset, p3.best.structure)] += 1
        p3_models[p3.best.model] += 1
        assert p3.latency_seconds > 0

    assert {dataset for _, dataset in table} == set(dataset_names())

    # INC is predominantly optimal (paper Section V-A).
    assert p3_models["INC"] > p3_models["FS"]

    # Short-tailed graphs: AS (occasionally Stinger) best at P3.
    for dataset in SHORT_TAILED:
        as_like = p3_structures[(dataset, "AS")] + p3_structures[(dataset, "Stinger")]
        other = p3_structures[(dataset, "AC")] + p3_structures[(dataset, "DAH")]
        assert as_like >= other, f"{dataset}: AS/Stinger should dominate P3"

    # Heavy-tailed Talk: DAH is the most scalable structure at P3.
    talk_total = sum(
        count for (dataset, _), count in p3_structures.items() if dataset == "Talk"
    )
    assert p3_structures[("Talk", "DAH")] >= talk_total / 2
