"""Unit tests for per-structure compute pricing."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.compute import ckernels, pricing
from repro.compute.pricing import CostTables, price_compute_run
from repro.compute.stats import ComputeRun
from repro.errors import SimulationError, StructureError
from repro.graph import STRUCTURES, ExecutionContext
from repro.obs import METRICS
from repro.sim.cost_model import DEFAULT_COST_MODEL, CostModel
from tests.conftest import SMALL_MACHINE, ccompute_env


def make_run(pull_iterations, push_iterations=(), linear_scans=0):
    run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
    for pull in pull_iterations:
        run.add_round(pull=pull)
    for push in push_iterations:
        run.add_round(push=push)
    run.linear_scans = linear_scans
    return run


def price_on(run, structure, deg_in, deg_out, ctx, **kwargs):
    """``run`` priced on the one ``structure``."""
    tables = CostTables(deg_in, deg_out, ctx.cost_model)
    return price_compute_run(run, (structure,), tables, ctx, **kwargs)[structure]


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
            price_compute_run(
                make_run([[0]]), "AS", CostTables(DEGREES, DEGREES, ctx.cost_model), ctx
            )

    def test_one_entry_per_requested_structure(self, ctx):
        pricings = price_compute_run(
            make_run([[0, 1]]),
            tuple(STRUCTURES),
            CostTables(DEGREES, DEGREES, ctx.cost_model),
            ctx,
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
    """The vectorized cost formulas read only degrees: on an insert-only
    stream the store state each one stands for must follow from the
    degree, in both directions."""

    @pytest.mark.parametrize("name", sorted(STRUCTURES))
    def test_consistency(self, name):
        from repro.graph import EdgeBatch, make_structure
        from repro.graph.nativestore import BLOCK_CAPACITY, LOW_DEGREE_THRESHOLD

        structure = make_structure(name, 64)
        edges = [(0, v + 1) for v in range(30)] + [(1, 40), (2, 41), (2, 42)]
        structure.update(
            EdgeBatch.from_edges(edges), ExecutionContext(machine=SMALL_MACHINE)
        )
        for store in (structure._out, structure._in):
            for v in range(64):
                degree = store.degree(v)
                assert degree == len(store.neighbors(v)), f"{name} vertex {v}"
                if name == "Stinger":
                    assert store.block_count(v) == -(-degree // BLOCK_CAPACITY)
                if name == "DAH":
                    high = degree > LOW_DEGREE_THRESHOLD
                    assert store.is_high_degree(v) == high, f"vertex {v}"


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
#: new log entries / the previous round's log entries again / new
#: entries of the previous lengths with other vertices / the previous
#: entries with the pull and push lengths swapped / no work at all.
_iteration_specs = st.lists(
    st.tuples(
        st.sampled_from(["fresh", "same", "shifted", "resplit", "empty"]),
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
    """A record written column by column, rounds sharing log entries."""
    log = []
    rows = []
    for kind, pull, push, pushes in specs:
        offset, pulled, pushed = rows[-1][:3] if rows else (0, 0, 0)
        if kind == "empty":
            rows.append((len(log), 0, 0, 0, pushes))
        elif kind == "fresh" or not rows:
            rows.append((len(log), len(pull), len(push), 0, pushes))
            log += pull + push
        elif kind == "same":
            rows.append((offset, pulled, pushed, 0, pushes))
        elif kind == "resplit":
            rows.append((offset, pushed, pulled, 0, pushes))
        else:
            rows.append((len(log), pulled, pushed, 0, pushes))
            log += [(v + 1) % NUM_VERTICES for v in log[offset : offset + pulled + pushed]]
    run = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
    run.linear_scans = linear_scans
    run.set_log(
        np.array(log, dtype=np.int64), np.array(rows, dtype=np.int64).reshape(-1, 5)
    )
    return run


#: ``SAGA_BENCH_NO_CCOMPUTE`` settings: the native call, the numpy loop.
COMPILED, NUMPY_LOOP = None, "price_run"


def _verify_against_reference(setting):
    """Every structure's two floats, bit for bit, on one pricing path."""

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
    def check(
        specs, deg_in, deg_out, linear_scans, neighbor_degree_query, threads,
        cost_model,
    ):
        assert SMALL_MACHINE.physical_cores == 8  # threads straddle it
        ctx = ExecutionContext(
            machine=SMALL_MACHINE, threads=threads, cost_model=cost_model
        )
        deg_in = np.array(deg_in, dtype=np.int64)
        deg_out = np.array(deg_out, dtype=np.int64)
        run = build_run(specs, linear_scans)
        pricings = price_compute_run(
            run, tuple(STRUCTURES), CostTables(deg_in, deg_out, cost_model), ctx,
            neighbor_degree_query=neighbor_degree_query,
        )
        for structure in STRUCTURES:
            latency, work = reference_price(
                run, structure, deg_in, deg_out, ctx, neighbor_degree_query
            )
            assert pricings[structure].latency_cycles == latency, structure
            assert pricings[structure].total_work_cycles == work, structure

    with ccompute_env(setting):
        if setting is COMPILED and ckernels.get("price_run") is None:
            pytest.skip("compiled compute kernels unavailable")
        check()


class TestExactness:
    """Tables, shared passes, reuse and the native call change no bit of
    the result.  ``tests/test_compute_ckernels.py`` runs this class
    through the sanitized build of the compute library as well."""

    def test_equals_per_iteration_reference(self):
        """``saga_price_run`` against the plain per-iteration pricer, on
        a cost model whose sums round (``RAGGED_COST_MODEL``).

        Fails when the reuse test ignores ``offset`` (a "shifted" round
        is priced like the one before it) or the pull/push split (a
        "resplit" one), when ``extra / threads`` is hoisted out of the
        round loop (one division of the summed pushes rounds apart from
        a division per round), and when the gather reads push costs
        from the pull half of a table.
        """
        _verify_against_reference(COMPILED)

    def test_numpy_loop_equals_per_iteration_reference(self):
        """The same property for the loop ``saga_price_run`` is checked
        against and replaced by without a compiler
        (``SAGA_BENCH_NO_CCOMPUTE=price_run``); kills the same mutants
        of ``pricing._price_rounds``."""
        _verify_against_reference(NUMPY_LOOP)

    def test_repeated_arrays_price_like_copies(self):
        """Rounds pointing at the same log entries cost what rounds
        with their own equal copies cost."""
        ctx = ExecutionContext(machine=SMALL_MACHINE, threads=4)
        everyone = np.arange(len(DEGREES))
        shared = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
        copied = ComputeRun(algorithm="X", model="FS", values=np.zeros(1))
        rows = []
        for pushes in (0, 3, 7):
            rows.append((0, len(everyone), len(everyone), 0, pushes))
            copied.add_round(pull=everyone, push=everyone, pushes=pushes)
        shared.set_log(np.concatenate((everyone, everyone)), np.array(rows))
        names = tuple(STRUCTURES)
        tables = CostTables(DEGREES, DEGREES, ctx.cost_model)
        one = price_compute_run(shared, names, tables, ctx)
        other = price_compute_run(copied, names, tables, ctx)
        assert one == other

    @pytest.mark.parametrize("setting", [COMPILED, NUMPY_LOOP], ids=["compiled", "numpy"])
    def test_runs_without_tasks_and_one_sided_runs(self, setting):
        """The empty run, a run whose rounds are all empty (their
        pushes are not charged: nothing ran), a pull-only and a
        push-only run -- each equal to the per-iteration reference."""
        ctx = ExecutionContext(
            machine=SMALL_MACHINE, threads=3, cost_model=RAGGED_COST_MODEL
        )
        degrees = np.arange(NUM_VERTICES, dtype=np.int64)
        runs = {
            "empty": build_run([], 2),
            "all rounds empty": build_run([("empty", [], [], 9)] * 3, 1),
            "pull only": build_run([("fresh", [1, 5, 40], [], 2), ("same", [], [], 0)], 0),
            "push only": build_run([("fresh", [], [47, 0], 1), ("shifted", [], [], 4)], 0),
        }
        with ccompute_env(setting):
            for label, run in runs.items():
                priced = price_compute_run(
                    run, tuple(STRUCTURES),
                    CostTables(degrees, degrees, RAGGED_COST_MODEL), ctx,
                )
                for structure in STRUCTURES:
                    latency, work = reference_price(
                        run, structure, degrees, degrees, ctx, False
                    )
                    got = priced[structure]
                    assert (got.latency_cycles, got.total_work_cycles) == (
                        latency, work,
                    ), (label, structure)
        scans = RAGGED_COST_MODEL.probe_element * NUM_VERTICES
        assert priced["AS"].total_work_cycles > 0  # the push-only run did work
        for label, scan_count in (("empty", 2), ("all rounds empty", 1)):
            got = price_compute_run(
                runs[label], ("AS",),
                CostTables(degrees, degrees, RAGGED_COST_MODEL), ctx,
            )["AS"]
            assert got.total_work_cycles == scan_count * scans, label

    def test_pairwise_sum_matches_numpy(self):
        """``saga_pairwise_sum`` is ``ndarray.sum()``: every length 0-1 100
        and four beyond numpy's buffer size, non-integer values, on a
        contiguous vector and on the gather of one (through
        ``saga_price_run``, whose work output is the sum when nothing is
        charged per dispatch or push).

        Fails when the eight lanes are combined left to right instead of
        pairwise, when the split point of a long vector is ``n / 2`` not
        rounded down to a multiple of 8, and when the ``n % 8`` tail is
        folded into the lanes instead of added after their combination.
        """
        ck = ckernels.get("price_run")
        if ck is None:
            pytest.skip("compiled compute kernels unavailable")
        rng = np.random.default_rng(23)
        pool = rng.uniform(0.1, 1000.0, size=4001) / 3.0
        pointers = np.array([pool.ctypes.data], dtype=np.uintp)
        for n in list(range(1101)) + [4096, 8191, 8192, 20000]:
            terms = rng.uniform(0.1, 1000.0, size=n) / 7.0
            assert ck.pairwise_sum(terms) == float(terms.sum()), n
            if n == 0:
                continue
            ids = rng.integers(0, 2000, size=n)
            pulled = n // 3
            rounds = np.array([[0, pulled, n - pulled, 0, 0]], dtype=np.int64)
            _, (work,) = ck.price_run(ids, rounds, 2000, pointers, 1, 1.0, 0.0, 64, 0.0)
            tasks = ids.copy()
            tasks[pulled:] += 2000
            assert work == float(pool[tasks].sum()), n


def test_a_sum_unlike_numpys_costs_the_kernel_not_a_digest(monkeypatch):
    """A numpy whose reduction tree ``saga_pairwise_sum`` no longer is:
    ``price_run`` reports unavailable and the numpy loop prices (the
    other kernels stay compiled), and ``SAGA_BENCH_REQUIRE_CCOMPUTE``
    raises, naming numpy's version."""
    if not ckernels.loaded():
        pytest.skip("compiled compute kernels unavailable")
    ctx = ExecutionContext(machine=SMALL_MACHINE, threads=4)
    run = make_run([[0, 1, 2]], push_iterations=[[2, 4]])
    expected = price_on(run, "DAH", DEGREES, DEGREES, ctx)
    monkeypatch.setattr(ckernels, "_sums_like_numpy", lambda lib: False)
    try:
        ckernels.reset()
        assert ckernels.get("price_run") is None
        assert ckernels.get("inc_round") is not None
        assert price_on(run, "DAH", DEGREES, DEGREES, ctx) == expected
        monkeypatch.setenv(ckernels.REQUIRE_ENV, "1")
        ckernels.reset()
        with pytest.raises(RuntimeError, match=f"price_run.*numpy {np.__version__}"):
            ckernels.get("price_run")
    finally:
        monkeypatch.undo()
        ckernels.reset()


def test_vertices_outside_the_graph_are_refused(ctx):
    """A log naming a vertex the degree arrays do not have (or a
    negative one, which numpy would wrap) is an error before anything
    is priced, on both paths."""
    tables = CostTables(DEGREES, DEGREES, ctx.cost_model)
    for setting in (COMPILED, NUMPY_LOOP):
        with ccompute_env(setting):
            for bad in (len(DEGREES), -1):
                with pytest.raises(SimulationError, match="outside"):
                    price_compute_run(make_run([[0, bad]]), ("AS",), tables, ctx)
    with pytest.raises(SimulationError, match="another cost model"):
        price_compute_run(
            make_run([[0]]), ("AS",),
            CostTables(DEGREES, DEGREES, RAGGED_COST_MODEL), ctx,
        )
    with pytest.raises(SimulationError, match="vertex count"):
        CostTables(DEGREES, DEGREES[:-1], ctx.cost_model)


def test_a_batch_builds_each_distinct_table_once(monkeypatch):
    """The 12 algorithm x model runs of a batch share one ``CostTables``:
    6 table builds per batch on the full matrix (3 traversal costs, with
    and without PageRank's degree query), not 36, and one native call
    per priced run.

    Fails when the driver makes a ``CostTables`` per run (or per
    algorithm), and when a run crosses into C more than once.
    """
    from repro.datasets.catalog import load_dataset
    from repro.streaming.driver import StreamConfig, make_driver

    built = []
    build = pricing._cost_table
    monkeypatch.setattr(
        pricing, "_cost_table", lambda *args: built.append(args[:2]) or build(*args)
    )
    dataset = load_dataset("RMAT", seed=0, size_factor=0.02)
    METRICS.reset()
    METRICS.enable()
    try:
        result = make_driver(StreamConfig(batch_size=500)).run(dataset)
        crossings = METRICS.counter(
            "compute_kernel_calls_total",
            "native compute-kernel calls (ctypes crossings)",
            kernel="price_run",
        ).value
    finally:
        METRICS.disable()
        METRICS.reset()
    batches = result.batches_per_rep
    assert batches >= 3
    assert len(built) == 6 * batches
    assert len(set(built)) == 6
    if ckernels.get("price_run") is not None:
        assert crossings == 12 * batches
