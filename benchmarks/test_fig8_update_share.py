"""Fig. 8: the update phase's share of batch processing latency.

Shape expectation from the paper (Section V-D): the update phase
contributes at least ~40% of the batch processing latency for many
workloads -- it is not amortizable overhead but a first-class cost,
especially for BFS/CC/SSWP and on the small heavy-tailed datasets.
"""

def test_fig8(benchmark, software_profile):
    datasets = list(software_profile.results)
    algorithms = software_profile.results[datasets[0]].algorithms

    def reduce_all():
        return {
            (algorithm, dataset): software_profile.fig8(algorithm, dataset)
            for dataset in datasets
            for algorithm in algorithms
        }

    shares = benchmark.pedantic(reduce_all, rounds=1, iterations=1)

    for value_list in shares.values():
        assert all(0.0 <= share <= 1.0 for share in value_list)

    # The paper's headline: >= 40% of batch latency in many workloads.
    above_40 = sum(
        1 for value_list in shares.values() if max(value_list) >= 0.40
    )
    assert above_40 >= len(shares) / 3, (
        f"only {above_40}/{len(shares)} workloads ever reach a 40% update share"
    )

    # PR, the heaviest compute, has the smallest update share.
    for dataset in datasets:
        pr_share = shares[("PR", dataset)][2]
        others = [shares[(a, dataset)][2] for a in algorithms if a != "PR"]
        assert pr_share <= min(others) + 0.05, (dataset, pr_share, others)
