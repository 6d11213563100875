"""Table II: the evaluated datasets.

Regenerates every dataset stand-in and reports vertex/edge/batch
counts next to the paper's full-scale numbers.
"""

from repro.datasets import dataset_names, load_dataset


def test_table2(benchmark):
    def generate_all():
        rows = {}
        for name in dataset_names():
            dataset = load_dataset(name, seed=0)
            rows[name] = (len(dataset.edges), dataset.batch_count())
        return rows

    rows = benchmark.pedantic(generate_all, rounds=1, iterations=1)

    # The paper's size ordering must hold for the stand-ins.
    assert rows["RMAT"][0] == max(edges for edges, _ in rows.values())
    assert rows["Talk"][0] == min(edges for edges, _ in rows.values())
    for name in dataset_names():
        assert rows[name][1] >= 3, "each stream needs >= 3 batches for P1-P3"
