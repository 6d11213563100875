"""Unit tests for per-structure compute pricing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compute.pricing import price_compute_run
from repro.compute.stats import ComputeRun, IterationStats
from repro.errors import StructureError
from repro.graph import STRUCTURES, ExecutionContext
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from tests.conftest import SMALL_MACHINE


def make_run(pull_iterations, push_iterations=(), linear_scans=0):
    run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
    for pull in pull_iterations:
        run.iterations.append(IterationStats.make(pull=pull))
    for push in push_iterations:
        run.iterations.append(IterationStats.make(push=push))
    run.linear_scans = linear_scans
    return run


def price_on(run, structure, deg_in, deg_out, ctx, **kwargs):
    """``run`` priced on the one ``structure``."""
    return price_compute_run(run, (structure,), deg_in, deg_out, ctx, **kwargs)[
        structure
    ]


@pytest.fixture
def ctx():
    return ExecutionContext(machine=SMALL_MACHINE, threads=4)


DEGREES = np.array([2, 8, 30, 1, 0], dtype=np.int64)


class TestPricing:
    def test_unknown_structure(self, ctx):
        with pytest.raises(StructureError):
            price_on(make_run([[0]]), "CSR", DEGREES, DEGREES, ctx)

    def test_bare_string_is_not_a_sequence_of_names(self, ctx):
        """"AS" must not be priced as the structures "A" and "S"."""
        with pytest.raises(StructureError, match="sequence of names"):
            price_compute_run(make_run([[0]]), "AS", DEGREES, DEGREES, ctx)

    def test_one_entry_per_requested_structure(self, ctx):
        pricings = price_compute_run(
            make_run([[0, 1]]), tuple(STRUCTURES), DEGREES, DEGREES, ctx
        )
        assert list(pricings) == list(STRUCTURES)
        for name, pricing in pricings.items():
            assert pricing.structure == name
            assert pricing.iteration_count == 1

    def test_empty_run_prices_only_scans(self, ctx):
        run = make_run([], linear_scans=2)
        pricing = price_on(run, "AS", DEGREES, DEGREES, ctx)
        expected = 2 * len(DEGREES) * ctx.cost_model.probe_element
        assert pricing.total_work_cycles == pytest.approx(expected)

    def test_latency_positive_for_work(self, ctx):
        run = make_run([[0, 1, 2]])
        pricing = price_on(run, "AS", DEGREES, DEGREES, ctx)
        assert pricing.latency_cycles > 0
        assert pricing.latency_seconds(SMALL_MACHINE) > 0

    def test_more_iterations_cost_more(self, ctx):
        one = price_on(make_run([[0, 1]]), "AS", DEGREES, DEGREES, ctx)
        two = price_on(
            make_run([[0, 1], [0, 1]]), "AS", DEGREES, DEGREES, ctx
        )
        assert two.latency_cycles > one.latency_cycles

    def test_dah_costs_more_than_as(self, ctx):
        run = make_run([[0, 1, 2, 3]])
        dah = price_on(run, "DAH", DEGREES, DEGREES, ctx)
        adjacency = price_on(run, "AS", DEGREES, DEGREES, ctx)
        assert dah.latency_cycles > adjacency.latency_cycles

    def test_pr_degree_queries_hit_dah_hardest(self, ctx):
        """Section V-B: the PR normalization is extra painful on DAH."""
        run = make_run([[2]])  # degree-30 vertex
        ratios = {}
        for structure in STRUCTURES:
            plain = price_on(run, structure, DEGREES, DEGREES, ctx)
            pr = price_on(
                run, structure, DEGREES, DEGREES, ctx, neighbor_degree_query=True
            )
            ratios[structure] = pr.latency_cycles / plain.latency_cycles
        assert ratios["DAH"] > ratios["AS"]
        assert ratios["DAH"] > ratios["Stinger"]

    def test_push_side_priced(self, ctx):
        quiet = price_on(make_run([[0]]), "AS", DEGREES, DEGREES, ctx)
        noisy = price_on(
            make_run([[0]], push_iterations=[[2]]), "AS", DEGREES, DEGREES, ctx
        )
        assert noisy.latency_cycles > quiet.latency_cycles

    def test_threads_reduce_latency(self):
        run = make_run([list(range(5)) * 20])
        slow = price_on(
            run, "AS", DEGREES, DEGREES,
            ExecutionContext(machine=SMALL_MACHINE, threads=1),
        )
        fast = price_on(
            run, "AS", DEGREES, DEGREES,
            ExecutionContext(machine=SMALL_MACHINE, threads=8),
        )
        assert fast.latency_cycles < slow.latency_cycles

    @pytest.mark.parametrize("structure", sorted(STRUCTURES))
    def test_work_scales_with_degree(self, ctx, structure):
        low = price_on(make_run([[3]]), structure, DEGREES, DEGREES, ctx)
        high = price_on(make_run([[2]]), structure, DEGREES, DEGREES, ctx)
        assert high.total_work_cycles > low.total_work_cycles


class TestVectorScalarConsistency:
    """The vectorized cost formulas must match the live structures."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_consistency(self, name):
        from repro.graph import EdgeBatch, make_structure
        from repro.sim.cost_model import DEFAULT_COST_MODEL

        structure = make_structure(name, 64)
        edges = [(0, v + 1) for v in range(30)] + [(1, 40), (2, 41), (2, 42)]
        structure.update(
            EdgeBatch.from_edges(edges), ExecutionContext(machine=SMALL_MACHINE)
        )
        degrees = np.array(
            [structure.out_degree(v) for v in range(4)], dtype=np.float64
        )
        vector = type(structure).vector_traversal_cost(degrees, DEFAULT_COST_MODEL)
        for v in range(4):
            assert structure.out_traversal_cost(v) == pytest.approx(vector[v]), (
                f"{name} vertex {v}"
            )


def test_contiguous_structures_share_one_traversal_cost():
    """The dedup key pricing relies on: AS, AC and BA are priced once."""
    cost_of = {name: cls.vector_traversal_cost for name, cls in STRUCTURES.items()}
    assert cost_of["AS"] is cost_of["AC"] is cost_of["BA"]
    assert cost_of["Stinger"] is not cost_of["AS"]
    assert cost_of["DAH"] is not cost_of["AS"]
    assert cost_of["DAH"] is not cost_of["Stinger"]


def reference_price(run, structure, deg_in, deg_out, ctx, neighbor_degree_query):
    """One structure, one iteration at a time: the formula being priced.

    ``price_compute_run`` must return these two floats bit for bit.
    """
    cost = ctx.cost_model
    threads = ctx.threads
    vector_cost = STRUCTURES[structure].vector_traversal_cost
    dq = cost.probe_element
    if structure == "DAH":
        dq = cost.degree_query + cost.hash_probe
    scale = cost.smt_work_scale if threads > ctx.machine.physical_cores else 1.0
    latency = work = 0.0
    for it in run.iterations:
        costs = []
        if len(it.pull_vertices):
            d_in = deg_in[it.pull_vertices]
            pull_costs = (
                cost.vertex_task_base
                + vector_cost(d_in, cost)
                + d_in * cost.neighbor_visit
                + cost.property_write
            )
            if neighbor_degree_query:
                pull_costs = pull_costs + d_in * dq
            costs.append(pull_costs)
        if len(it.push_vertices):
            d_out = deg_out[it.push_vertices]
            costs.append(vector_cost(d_out, cost) + d_out * cost.cas)
        if not costs:
            continue
        per_task = np.concatenate(costs)
        total = float(per_task.sum()) + cost.task_dispatch * len(per_task) / 64
        longest = float(per_task.max())
        makespan = (total / threads + (1.0 - 1.0 / threads) * longest) * scale
        extra = it.pushes * cost.queue_push
        latency += makespan + extra / threads
        work += total + extra
    scan_work = run.linear_scans * len(deg_in) * cost.probe_element
    return latency + scan_work / threads, work + scan_work


#: The default constants are whole numbers, so every sum of them is
#: exact in any order; these are not, so a reordered sum rounds apart.
RAGGED_COST_MODEL = CostModel(
    **{name: value * (1.0 + 1.0 / (3 + i))
       for i, (name, value) in enumerate(vars(DEFAULT_COST_MODEL).items())}
)

NUM_VERTICES = 48
_vertex_lists = st.lists(st.integers(0, NUM_VERTICES - 1), max_size=40)
#: fresh arrays / the previous iteration's array objects again / new
#: arrays of the previous lengths with other vertices / no work at all.
_iteration_specs = st.lists(
    st.tuples(
        st.sampled_from(["fresh", "same", "shifted", "empty"]),
        _vertex_lists,
        _vertex_lists,
        st.integers(0, 60),
    ),
    max_size=12,
)
#: Degrees on both sides of Stinger's 16-edge blocks and of DAH's
#: low/high-degree threshold.
_degrees = st.lists(
    st.integers(0, 300), min_size=NUM_VERTICES, max_size=NUM_VERTICES
)


def build_run(specs, linear_scans):
    run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
    run.linear_scans = linear_scans
    for kind, pull, push, pushes in specs:
        previous = run.iterations[-1] if run.iterations else None
        if kind == "empty":
            stats = IterationStats.make(pushes=pushes)
        elif kind == "fresh" or previous is None:
            stats = IterationStats.make(pull=pull, push=push, pushes=pushes)
        elif kind == "same":
            stats = IterationStats(
                previous.pull_vertices, previous.push_vertices, pushes=pushes
            )
        else:
            stats = IterationStats(
                (previous.pull_vertices + 1) % NUM_VERTICES,
                (previous.push_vertices + 1) % NUM_VERTICES,
                pushes=pushes,
            )
        run.iterations.append(stats)
    return run


class TestExactness:
    """Tables, shared passes and reuse change no bit of the result."""

    @given(
        specs=_iteration_specs,
        deg_in=_degrees,
        deg_out=_degrees,
        linear_scans=st.integers(0, 3),
        neighbor_degree_query=st.booleans(),
        threads=st.sampled_from([1, 3, 8, 9, 16]),
        cost_model=st.sampled_from([DEFAULT_COST_MODEL, RAGGED_COST_MODEL]),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_per_iteration_reference(
        self, specs, deg_in, deg_out, linear_scans, neighbor_degree_query,
        threads, cost_model,
    ):
        assert SMALL_MACHINE.physical_cores == 8  # threads straddle it
        ctx = ExecutionContext(
            machine=SMALL_MACHINE, threads=threads, cost_model=cost_model
        )
        deg_in = np.array(deg_in, dtype=np.int64)
        deg_out = np.array(deg_out, dtype=np.int64)
        run = build_run(specs, linear_scans)
        pricings = price_compute_run(
            run, tuple(STRUCTURES), deg_in, deg_out, ctx,
            neighbor_degree_query=neighbor_degree_query,
        )
        for structure in STRUCTURES:
            latency, work = reference_price(
                run, structure, deg_in, deg_out, ctx, neighbor_degree_query
            )
            assert pricings[structure].latency_cycles == latency, structure
            assert pricings[structure].total_work_cycles == work, structure

    def test_repeated_arrays_price_like_copies(self, ctx):
        """The same array objects again cost what equal copies cost."""
        everyone = np.arange(len(DEGREES))
        shared = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
        copied = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
        for pushes in (0, 3, 7):
            shared.iterations.append(
                IterationStats(everyone, everyone, pushes=pushes)
            )
            copied.iterations.append(
                IterationStats(everyone.copy(), everyone.copy(), pushes=pushes)
            )
        names = tuple(STRUCTURES)
        one = price_compute_run(shared, names, DEGREES, DEGREES, ctx)
        other = price_compute_run(copied, names, DEGREES, DEGREES, ctx)
        assert one == other
