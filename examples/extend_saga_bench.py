"""Extending SAGA-Bench: add your own algorithm and run the harness.

The paper designed the API so future techniques slot in (Section
III-D): implement the vertex function plus an FS run, register it, and
every harness -- both compute models, per-structure pricing, the
streaming driver -- works with it.

This example adds *k-core-style degree thresholding* ("is each vertex's
in-degree at least k?") as a new algorithm, streams it incrementally,
and also shows a custom machine configuration (a single-socket
8-core box) for the simulated latencies.

Run:  python examples/extend_saga_bench.py
"""

import numpy as np

from repro.algorithms.base import Algorithm
from repro.algorithms.registry import ALGORITHMS, perform_alg, register_algorithm
from repro.compute.pricing import CostTables, price_compute_run
from repro.compute.stats import ComputeRun
from repro.datasets import load_dataset
from repro.graph import ExecutionContext, ReferenceGraph
from repro.sim.machine import MachineConfig
from repro.streaming import make_batches

K = 3


class DegreeThreshold(Algorithm):
    """Vertex value = 1 when in-degree >= K, else 0.

    A purely local vertex function: one evaluation per affected vertex
    and no triggering cascade (changes in the indicator do not feed
    back into neighbors' values).
    """

    name = "DEGK"

    def init_value(self, ids: np.ndarray) -> np.ndarray:
        return np.zeros(len(ids))

    def recalculate(self, v, view, values) -> float:
        return 1.0 if view.in_degree(v) >= K else 0.0

    def fs_run(self, view, source=None) -> ComputeRun:
        values = np.array(
            [1.0 if view.in_degree(v) >= K else 0.0 for v in range(view.num_nodes)]
        )
        run = ComputeRun(algorithm=self.name, model="FS", values=values)
        run.linear_scans = 1
        run.add_round(pull=np.arange(view.num_nodes))
        return run


def main() -> None:
    register_algorithm(DegreeThreshold())
    print(f"registered algorithms: {sorted(ALGORITHMS)}")

    # A small single-socket edge server instead of the paper's testbed.
    edge_server = MachineConfig(
        sockets=1,
        cores_per_socket=8,
        smt=2,
        llc_bytes_per_socket=16 * 1024 * 1024,
        llc_ways=16,
        dram_bandwidth_per_socket=64e9,
    )
    ctx = ExecutionContext(machine=edge_server)
    print(f"simulated machine: {edge_server.physical_cores} cores, "
          f"{edge_server.hardware_threads} threads")

    dataset = load_dataset("Talk", seed=5, size_factor=0.5)
    graph = ReferenceGraph(dataset.max_nodes, directed=dataset.directed)
    state = ALGORITHMS["DEGK"].make_state(dataset.max_nodes)
    deg_in = np.zeros(dataset.max_nodes, dtype=np.int64)
    deg_out = np.zeros(dataset.max_nodes, dtype=np.int64)

    for index, batch in enumerate(make_batches(dataset.edges, 1500, shuffle_seed=5)):
        for u, v, _ in graph.update_collect(batch):
            deg_out[u] += 1
            deg_in[v] += 1
        n = graph.num_nodes
        run = perform_alg(
            "DEGK",
            "INC",
            graph,
            state=state,
            affected=ALGORITHMS["DEGK"].affected_from_batch(batch, graph),
        )
        tables = CostTables(deg_in[:n], deg_out[:n], ctx.cost_model)
        pricing = price_compute_run(run, ("DAH",), tables, ctx)["DAH"]
        dense = int(state.values[:n].sum())
        print(f"batch {index}: {dense:5d} vertices with in-degree >= {K} "
              f"(INC compute {pricing.latency_seconds(edge_server) * 1e3:.3f} ms "
              f"on DAH, {run.iteration_count} round(s))")

    fs = perform_alg("DEGK", "FS", graph)
    assert np.array_equal(fs.values[: graph.num_nodes], state.values[: graph.num_nodes])
    print("FS and INC agree -- the extension plugs into both models.")
    ALGORITHMS.pop("DEGK")


if __name__ == "__main__":
    main()
