"""Temporal analytics with the multi-snapshot store.

The paper's v1 keeps only the latest graph snapshot; its stated future
extension is the multi-snapshot model of Chronos/LLAMA, implemented
here in :mod:`repro.graph.snapshots`.  All snapshots share one copy of
the edge data (the log of edges each batch added); a snapshot is the
reference graph of its stream prefix, rebuilt on demand, so any
algorithm runs on any historical snapshot unchanged.

Scenario: a recommendation service wants to know how an account's
influence (PageRank) and its community (connected component size)
evolved over the stream -- a query the latest-snapshot model simply
cannot answer.

Run:  python examples/temporal_analysis.py
"""

import numpy as np

from repro.algorithms import get_algorithm
from repro.datasets import load_dataset
from repro.graph.snapshots import SnapshotStore
from repro.streaming import make_batches


def main() -> None:
    dataset = load_dataset("Wiki", seed=9, size_factor=0.6)
    store = SnapshotStore(dataset.max_nodes, directed=dataset.directed)
    for batch in make_batches(dataset.edges, batch_size=2500, shuffle_seed=9):
        store.commit(batch)
    print(f"committed {store.num_snapshots} snapshots "
          f"(shared storage, {store.latest().num_edges} unique edges)")

    pagerank = get_algorithm("PR")
    components = get_algorithm("CC")

    # Track the account that ends up most influential.
    final_ranks = pagerank.fs_run(store.latest()).values
    star = int(np.argmax(final_ranks[: store.latest().num_nodes]))
    print(f"\ntracking vertex {star} (final in-degree "
          f"{store.latest().in_degree(star)}) back through time:\n")
    print(f"{'snapshot':>8s} {'|V|':>7s} {'|E|':>7s} "
          f"{'rank':>10s} {'rank pos':>9s} {'community':>10s}")

    for t, nodes, edges in store.history():
        view = store.snapshot(t)
        ranks = pagerank.fs_run(view).values
        labels = components.fs_run(view).values
        n = view.num_nodes
        if star < n:
            rank = ranks[star]
            position = int((ranks[:n] > rank).sum()) + 1
            community = int((labels[:n] == labels[star]).sum())
        else:
            rank, position, community = 0.0, 0, 0
        print(f"{t:>8d} {nodes:>7d} {edges:>7d} "
              f"{rank:>10.6f} {position:>9d} {community:>10d}")

    print("\nrank and community trajectories come from *shared* storage: "
          "no snapshot copies were made")


if __name__ == "__main__":
    main()
