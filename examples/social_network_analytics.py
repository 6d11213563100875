"""Social-network analytics: choosing a data structure for your stream.

The scenario from the paper's introduction: a social network ingests
friendship/follow edges continuously and must answer analytics queries
(influencer ranking, community membership) with low latency.

This example streams two contrasting workloads through all four data
structures and shows the paper's central software-level finding: *the
best data structure depends on the per-batch degree distribution*.

- an organic-growth feed (short-tailed: everybody gains a few edges per
  batch) favors the shared adjacency list (AS);
- a viral-event feed (heavy-tailed: one celebrity account gains
  thousands of followers per batch) collapses AS behind its per-vertex
  lock and crowns degree-aware hashing (DAH).

Run:  python examples/social_network_analytics.py
"""

import numpy as np

from repro.datasets.synthetic import calibrate_alpha, power_law_edges
from repro.graph import ExecutionContext, make_structure
from repro.streaming import make_batches

NODES = 8000
EDGES = 30000
BATCH = 2500
STRUCTURES = ("AS", "AC", "Stinger", "DAH")


def organic_feed(seed: int):
    """Everyone gains followers slowly: a short-tailed stream."""
    alpha = calibrate_alpha(NODES, 3e-4)
    return power_law_edges(NODES, EDGES, alpha_out=alpha, alpha_in=alpha, seed=seed)


def viral_feed(seed: int):
    """A celebrity goes viral: 2% of all new edges point at one account."""
    alpha_in = calibrate_alpha(NODES, 0.02)
    alpha_out = calibrate_alpha(NODES, 3e-4)
    return power_law_edges(NODES, EDGES, alpha_out=alpha_out, alpha_in=alpha_in, seed=seed)


def stream_through(edges, name: str) -> float:
    """Total update latency (seconds) of the stream on one structure."""
    structure = make_structure(name, NODES, directed=True)
    ctx = ExecutionContext()
    total = 0.0
    for batch in make_batches(edges, BATCH, shuffle_seed=7):
        total += structure.update(batch, ctx).latency_seconds(ctx.machine)
    return total


def main() -> None:
    for label, feed in (("organic feed", organic_feed), ("viral feed", viral_feed)):
        edges = feed(seed=11)
        batch = make_batches(edges, BATCH, shuffle_seed=1)[0]
        max_in, max_out = batch.max_in_out_degree()
        print(f"\n== {label}: per-batch max in/out degree = {max_in}/{max_out}")
        latencies = {name: stream_through(edges, name) for name in STRUCTURES}
        best = min(latencies, key=latencies.get)
        for name in STRUCTURES:
            marker = "  <-- best" if name == best else ""
            print(f"   {name:8s} total update latency "
                  f"{latencies[name] * 1e3:8.3f} ms "
                  f"({latencies[name] / latencies[best]:5.2f}x){marker}")
        print(f"   => ingest this feed with {best}")


if __name__ == "__main__":
    main()
