"""The output verifiers on hand-made answers.

Each wrong answer below holds on every edge and has a witness edge into
every reached vertex, so only the tight-path condition of
``repro.verify.check`` refuses it.  The suites that run the verifiers on
every compute run are ``tests/test_compute_kernels.py`` and
``tests/test_compute_ckernels.py::TestRunLog``.
"""

import numpy as np
import pytest

from repro import verify


def _edges(*rows):
    src, dst, weight = zip(*rows)
    return np.array(src), np.array(dst), np.array(weight, dtype=np.float64)


#: name, edges, right answer, wrong answer (from source 0 where it has one).
CASES = {
    # 1 <-> 2 hold each other up at width 5; the source offers only 3.
    "sswp-wide-cycle": (
        "SSWP",
        _edges((0, 1, 3.0), (1, 2, 5.0), (2, 1, 5.0)),
        [np.inf, 3.0, 3.0],
        [np.inf, 5.0, 5.0],
    ),
    # Vertex 0 is no ancestor of the cycle 1 <-> 2.
    "cc-label-of-a-non-ancestor": (
        "CC",
        _edges((1, 2, 1.0), (2, 1, 1.0)),
        [0.0, 1.0, 1.0],
        [0.0, 0.0, 0.0],
    ),
    "mc-label-of-a-non-ancestor": (
        "MC",
        _edges((0, 1, 1.0), (1, 0, 1.0)),
        [1.0, 1.0, 2.0],
        [2.0, 2.0, 2.0],
    ),
    # A zero-weight cycle settles below the one path into it.
    "sssp-zero-weight-cycle": (
        "SSSP",
        _edges((0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0)),
        [0.0, 1.0, 1.0],
        [0.0, 0.5, 0.5],
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_tight_paths_refuse_what_edges_and_witnesses_accept(case):
    name, edges, right, wrong = CASES[case]
    verify.check(name, right, edges, 3, source=0)
    with pytest.raises(verify.VerificationError, match="no path of tight edges"):
        verify.check(name, wrong, edges, 3, source=0)


def test_bfs_needs_its_source_and_a_fixpoint():
    edges = _edges((0, 1, 1.0), (1, 2, 1.0))
    verify.check("BFS", [0.0, 1.0, 2.0, 7.0], edges, 3, source=0)
    with pytest.raises(verify.VerificationError, match="the source 0 holds 1.0"):
        verify.check("BFS", [1.0, 2.0, 3.0], edges, 3, source=0)
    with pytest.raises(verify.VerificationError, match="edge 1 -> 2"):
        verify.check("BFS", [0.0, 1.0, np.inf], edges, 3, source=0)
    # A source the graph does not have yet reaches nobody.
    verify.check("BFS", [np.inf] * 3, edges, 3, source=5)


def test_pagerank_residual_bound():
    """The 3-cycle's fixpoint is 1/3 everywhere; 1e-6 off it moves more
    than ``damping * 3 * 1e-7`` under one more step."""
    edges = _edges((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0))
    ranks = np.full(3, 1 / 3)
    verify.check_pagerank(ranks, edges, 3, damping=0.85, epsilon=1e-7)
    ranks[0] += 1e-6
    with pytest.raises(verify.VerificationError, match="more than"):
        verify.check_pagerank(ranks, edges, 3, damping=0.85, epsilon=1e-7)
