"""Quickstart: stream a graph, watch update + compute latencies.

The 60-second tour of the library: generate a streaming dataset, pick a
data structure and a compute model, ingest batches, and read off the
paper's performance metric -- batch processing latency = update latency
+ compute latency (Equation 1).

Run:  python examples/quickstart.py
"""

import numpy as np

from repro.algorithms import get_algorithm
from repro.datasets import load_dataset
from repro.graph import ExecutionContext, ReferenceGraph, make_structure
from repro.streaming import make_batches


def main() -> None:
    # 1. A streaming dataset: the LiveJournal stand-in, shuffled and
    #    sliced into batches (the paper uses 500K-edge batches on the
    #    full-size graphs; the stand-ins default to 2500).
    dataset = load_dataset("LJ", seed=42)
    batches = make_batches(dataset.edges, batch_size=2500, shuffle_seed=42)
    print(f"dataset {dataset.name}: {len(dataset.edges)} edges, "
          f"{len(batches)} batches")

    # 2. A graph data structure.  "AS" is the shared adjacency list --
    #    the best structure for short-tailed graphs like LJ.  The
    #    structure runs on a simulated dual-socket Skylake server.
    structure = make_structure("AS", dataset.max_nodes, directed=dataset.directed)
    ctx = ExecutionContext()  # 64 threads on the paper's machine

    # 3. An algorithm under the incremental compute model.  State
    #    persists across batches (processing amortization) and only
    #    affected vertices recompute (selective triggering).
    pagerank = get_algorithm("PR")
    state = pagerank.make_state(dataset.max_nodes)
    reference = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)

    print(f"{'batch':>5s} {'|V|':>7s} {'|E|':>7s} "
          f"{'update(ms)':>11s} {'compute':>9s} {'total':>9s}")
    for index, batch in enumerate(batches):
        # Update phase: ingest the batch.
        update = structure.update(batch, ctx)

        # Compute phase: incremental PageRank on the fresh graph.
        reference.update(batch)
        affected = pagerank.affected_from_batch(batch, reference)
        run = pagerank.inc_run(reference, state, affected)

        # Price the compute run on this structure's traversal costs.
        from repro.compute.pricing import CostTables, price_compute_run

        n = reference.num_nodes
        deg_in = np.array([reference.in_degree(v) for v in range(n)])
        deg_out = np.array([reference.out_degree(v) for v in range(n)])
        compute = price_compute_run(
            run, ("AS",), CostTables(deg_in, deg_out, ctx.cost_model), ctx,
            neighbor_degree_query=pagerank.neighbor_degree_query,
        )["AS"]

        update_ms = update.latency_seconds(ctx.machine) * 1e3
        compute_ms = compute.latency_seconds(ctx.machine) * 1e3
        print(f"{index:>5d} {n:>7d} {reference.num_edges:>7d} "
              f"{update_ms:>11.3f} {compute_ms:>9.3f} "
              f"{update_ms + compute_ms:>9.3f}")

    top = max(range(reference.num_nodes), key=lambda v: state.values[v])
    print(f"\nhighest PageRank: vertex {top} "
          f"(rank {state.values[top]:.5f}, in-degree {reference.in_degree(top)})")

    # 4. The structure answers the paper's per-vertex queries too
    #    (out_neigh / in_neigh / out_degree / in_degree), so any
    #    algorithm also runs on it directly: it is exported once into
    #    the columnar view the compute kernels read.
    on_structure = pagerank.fs_run(structure)
    same = np.array_equal(on_structure.values, pagerank.fs_run(reference).values)
    print(f"FS PageRank on the {structure.name} structure "
          f"{'matches' if same else 'differs from'} the reference graph's; "
          f"vertex {top} has {len(structure.in_neigh(top))} in-neighbors there")


if __name__ == "__main__":
    main()
