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

Cache replays are checked the same way: :func:`cache_replay_counts`
recomputes a cache hierarchy's counters from LRU stack distances
(Mattson et al., IBM Sys. J. 1970), with no LRU state at all.  An
access hits an LRU level iff fewer distinct lines of its set were
touched, in that level's input stream, since the previous access to
its line; the distance is a count of first touches in that window.
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


def stack_distances(groups, lines):
    """Each access's LRU stack distance within its group: how many
    distinct lines of the same group were accessed since the previous
    access to its line, or -1 on the first access to the line.

    ``groups`` and ``lines`` are integer columns in access order; an
    access's line is ``(group, line)``.  With the accesses ordered group
    by group (stable, so in access order within a group), a line's
    previous access ``a`` and the access ``i`` bound a window of its own
    group, and the distinct lines in it are the window's positions ``k``
    whose own previous access lies at or before ``a`` (or nowhere):
    ``#{k < i : prev[k] <= a} - (a + 1)``, since every ``k <= a``
    qualifies.  :func:`_dominance_counts` counts the first term for all
    windows at once.
    """
    groups = np.asarray(groups, dtype=np.int64)
    lines = np.asarray(lines, dtype=np.int64)
    n = len(lines)
    order = np.argsort(groups, kind="stable")
    # Previous position (in group order) of the same (group, line).
    by_line = np.lexsort((lines[order], groups[order]))
    group, line = groups[order][by_line], lines[order][by_line]
    same = np.zeros(n, dtype=bool)
    same[1:] = (group[1:] == group[:-1]) & (line[1:] == line[:-1])
    prev = np.full(n, -1, dtype=np.int64)
    prev[by_line[same]] = by_line[np.flatnonzero(same) - 1]
    reuse = np.flatnonzero(prev >= 0)
    sorted_distance = np.full(n, -1, dtype=np.int64)
    sorted_distance[reuse] = _dominance_counts(prev, reuse, prev[reuse]) - (
        prev[reuse] + 1
    )
    distance = np.empty(n, dtype=np.int64)
    distance[order] = sorted_distance
    return distance


def _dominance_counts(prev, at, bound):
    """``#{k < at[j] : prev[k] <= bound[j]}`` for every query ``j``.

    ``k < at`` splits by the highest bit where ``k`` and ``at`` differ:
    there ``at`` has a one and ``k`` a zero, and above it they agree, so
    ``k >> b == (at >> b) - 1``.  Per bit, one sorted array of
    ``(k >> b, prev[k])`` keys answers every query with two binary
    searches.
    """
    n = len(prev)
    width = n + 1  # prev + 1 lies in [0, n]
    counts = np.zeros(len(at), dtype=np.int64)
    positions = np.arange(n, dtype=np.int64)
    for b in range(max(n.bit_length(), 1)):
        split = ((at >> b) & 1).astype(bool)
        if not split.any():
            continue
        keys = np.sort((positions >> b) * width + prev + 1)
        base = ((at[split] >> b) - 1) * width
        counts[split] += np.searchsorted(
            keys, base + bound[split] + 1, side="right"
        ) - np.searchsorted(keys, base, side="left")
    return counts


def cache_replay_counts(
    calls, line_bytes, page_bytes, sockets, cores_per_socket, levels
):
    """The counters of a sequence of replays through one persistent
    hierarchy, one tuple per call: accesses, L1 hits and misses, L2 hits
    and misses, LLC hits and misses, local and remote memory accesses.

    ``calls`` are ``(addresses, task_ids, task_thread)`` triples: byte
    addresses, the task of each access, and each task's thread.
    ``levels`` is ``((sets, ways), ...)`` for the private L1 and L2 (one
    per core, ``thread % cores``) and the shared LLC (one per socket,
    ``core // cores_per_socket``).  A miss goes on to the next level;
    an LLC miss reads memory on page ``line // (page_bytes //
    line_bytes)``, homed on socket ``page % sockets``.
    """
    calls = [[np.asarray(column, dtype=np.int64) for column in c] for c in calls]
    empty = np.zeros(0, dtype=np.int64)
    line = np.concatenate([empty] + [addresses // line_bytes for addresses, _, _ in calls])
    core = np.concatenate(
        [empty] + [threads[tasks] for _, tasks, threads in calls]
    ) % (sockets * cores_per_socket)
    socket = core // cores_per_socket
    call = np.repeat(np.arange(len(calls)), [len(tasks) for _, tasks, _ in calls])

    def tally(mask):
        return np.bincount(call[mask], minlength=len(calls))

    # Each level sees what the level above it missed, in access order.
    reaching = np.ones(len(line), dtype=bool)
    columns = [tally(reaching)]
    for (sets, ways), cache in zip(levels, (core, core, socket)):
        at = np.flatnonzero(reaching)
        distance = stack_distances(
            cache[at] * sets + line[at] % sets, line[at] // sets
        )
        hit = np.zeros(len(line), dtype=bool)
        hit[at] = (distance >= 0) & (distance < ways)
        reaching &= ~hit
        columns += [tally(hit), tally(reaching)]
    home = line // (page_bytes // line_bytes) % sockets
    columns += [tally(reaching & (home == socket)), tally(reaching & (home != socket))]
    return [tuple(int(column[i]) for column in columns) for i in range(len(calls))]
