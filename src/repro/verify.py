"""Output verifiers: is a run's value array its algorithm's answer?

GAP's rule: each kernel's output is checked by code that shares
nothing with any implementation of it.  This module imports numpy and
the standard library only -- nothing of ``repro.algorithms``,
``repro.compute``, ``repro.graph`` or ``repro.sim`` -- and reads a
graph only as its live edge columns ``(src, dst, weight)``, with both
orientations of an undirected edge.

BFS, SSSP, SSWP, CC and MC share one rule, :func:`check`:

- *fixpoint*: no live edge ``u -> v`` improves ``v``.  The edge offers
  ``value[u] + 1`` (BFS), ``value[u] + w`` (SSSP), ``min(value[u], w)``
  (SSWP) or ``value[u]`` (CC, MC); the minimising algorithms need
  ``value[v] <=`` the offer, the maximising ones ``>=``.  A CC (MC)
  label is also at most (at least) the vertex's own id;
- *reachability*: every reached vertex is reached from a root over
  *tight* edges, the ones whose offer equals ``value[v]``.  The root is
  the source, or any CC/MC vertex that carries its own id.

The fixpoint alone admits values that are too good: a cycle of equal
widths or labels, or of zero-weight SSSP edges, holds itself up with no
path from a root, and a directed CC label may be a neighbour's without
being an ancestor's id.  A value carried over tight edges from a root
is the value of a real path, so the two conditions pin the exact answer.

PR has no tight path.  :func:`check_pagerank` bounds how far one more
Jacobi step moves an FS run's ranks.
"""

from __future__ import annotations

import numpy as np


class VerificationError(ValueError):
    """A value array that is not its algorithm's answer."""


#: name -> (direction, an unreached vertex's value, the source's value);
#: CC and MC have no source and reach every vertex.
RULES = {
    "BFS": ("min", np.inf, 0.0),
    "SSSP": ("min", np.inf, 0.0),
    "SSWP": ("max", 0.0, np.inf),
    "CC": ("min", None, None),
    "MC": ("max", None, None),
}


def _offer(name, tail, weight):
    """What each edge offers its head, from its tail's value."""
    if name == "BFS":
        return tail + 1.0
    if name == "SSSP":
        return tail + weight
    if name == "SSWP":
        return np.minimum(tail, weight)
    return tail


def _closure(roots, src, dst, num_nodes):
    """The vertices reachable from the ``roots`` mask over ``src -> dst``."""
    order = np.argsort(src, kind="stable")
    heads = dst[order]
    starts = np.searchsorted(src[order], np.arange(num_nodes + 1))
    seen = roots.copy()
    frontier = np.flatnonzero(roots)
    while frontier.size:
        lo = starts[frontier]
        count = starts[frontier + 1] - lo
        slots = np.repeat(lo - np.cumsum(count) + count, count) + np.arange(count.sum())
        found = heads[slots]
        frontier = np.unique(found[~seen[found]])
        seen[frontier] = True
    return seen


def _columns(edges):
    src, dst, weight = edges
    return (
        np.asarray(src, dtype=np.int64),
        np.asarray(dst, dtype=np.int64),
        np.asarray(weight, dtype=np.float64),
    )


def check(name, values, edges, num_nodes, source=None):
    """Raise :class:`VerificationError` unless ``values[:num_nodes]`` is
    BFS's, SSSP's, SSWP's, CC's or MC's answer on ``edges``.

    ``source`` is the root of a single-source run; one at or past
    ``num_nodes`` reaches nobody.
    """
    direction, unreached, source_value = RULES[name]
    src, dst, weight = _columns(edges)
    values = np.asarray(values, dtype=np.float64)[:num_nodes]
    offer = _offer(name, values[src], weight)
    head = values[dst]
    better = offer < head if direction == "min" else offer > head
    # A NaN compares false both ways: it is neither tight nor a fixpoint.
    better |= np.isnan(offer) | np.isnan(head)
    if better.any():
        i = int(np.argmax(better))
        raise VerificationError(
            f"{name}: edge {src[i]} -> {dst[i]} (weight {float(weight[i])!r}) "
            f"offers {float(offer[i])!r} to a vertex holding {float(head[i])!r}"
        )
    if unreached is None:
        own = np.arange(num_nodes, dtype=np.float64)
        above = values > own if direction == "min" else values < own
        if above.any():
            v = int(np.argmax(above))
            raise VerificationError(
                f"{name}: vertex {v} holds {float(values[v])!r}, worse than its own id"
            )
        roots = values == own
        reached = np.ones(num_nodes, dtype=bool)
    else:
        roots = np.zeros(num_nodes, dtype=bool)
        if source is not None and source < num_nodes:
            if values[source] != source_value:
                raise VerificationError(
                    f"{name}: the source {source} holds {float(values[source])!r}, "
                    f"not {source_value!r}"
                )
            roots[source] = True
        reached = values != unreached
    tight = offer == head
    lost = reached & ~_closure(roots, src[tight], dst[tight], num_nodes)
    if lost.any():
        v = int(np.argmax(lost))
        raise VerificationError(
            f"{name}: vertex {v} holds {float(values[v])!r}, but no path of tight "
            "edges reaches it from a root"
        )


def check_pagerank(values, edges, num_nodes, damping, epsilon):
    """Raise :class:`VerificationError` unless ``values[:num_nodes]`` is
    an FS PageRank answer: one more Jacobi step of Table I's function
    moves the ranks by at most ``damping * num_nodes * epsilon`` in L1.

    That is the bound the FS stopping rule implies.  The run stopped once
    no rank moved by more than ``epsilon``, so its last step moved them
    by at most ``num_nodes * epsilon`` in L1; the next step scales that
    difference by ``damping`` after spreading each rank over its
    out-edges, which does not grow it.  The constants are the
    algorithm's, passed in.
    """
    if not num_nodes:
        return
    src, dst, _ = _columns(edges)
    ranks = np.asarray(values, dtype=np.float64)[:num_nodes]
    out_degree = np.bincount(src, minlength=num_nodes)
    pulled = np.bincount(dst, weights=ranks[src] / out_degree[src], minlength=num_nodes)
    step = (1.0 - damping) / num_nodes + damping * pulled
    residual = float(np.abs(step - ranks).sum())
    bound = damping * num_nodes * epsilon
    if not residual <= bound:
        raise VerificationError(
            f"PR: one more Jacobi step moves the ranks by {residual!r} in L1, "
            f"more than {bound!r}"
        )
