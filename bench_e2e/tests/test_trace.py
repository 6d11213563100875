"""Span arithmetic and the install/uninstall of the wrappers."""

import numpy as np
import pytest

from bench_e2e import trace


def _columns(spans):
    layer, start, end, parent = zip(*spans)
    return (
        np.array([trace.LAYERS.index(name) for name in layer]),
        np.array(start, dtype=float),
        np.array(end, dtype=float),
        np.array(parent),
    )


def test_self_time_and_conservation_on_a_nested_trace():
    #  driver 0..10
    #    graph.update 1..4   (scheduler.run 2..3 inside)
    #    pricing.price 5..9  (scheduler.makespan 6..7 and 7..8 inside)
    table = trace.layer_table(
        *_columns(
            [
                ("driver", 0.0, 10.0, -1),
                ("graph.update", 1.0, 4.0, 0),
                ("scheduler.run", 2.0, 3.0, 1),
                ("pricing.price", 5.0, 9.0, 0),
                ("scheduler.makespan", 6.0, 7.0, 3),
                ("scheduler.makespan", 7.0, 8.0, 3),
            ]
        )
    )
    assert table["driver"] == {"total_s": 10.0, "self_s": 3.0, "calls": 1}
    assert table["graph.update"] == {"total_s": 3.0, "self_s": 2.0, "calls": 1}
    assert table["pricing.price"] == {"total_s": 4.0, "self_s": 2.0, "calls": 1}
    assert table["scheduler.makespan"] == {"total_s": 2.0, "self_s": 2.0, "calls": 2}
    assert table["cache.replay"] == {"total_s": 0.0, "self_s": 0.0, "calls": 0}
    # Self times of every layer plus the root's sum to the root's duration.
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(10.0)


def test_probe_pauses_are_taken_out_of_every_enclosing_span():
    #  driver 0..10 > pricing.price 2..8 > scheduler.makespan 3..6, with
    #  a 1 s pause inside makespan and a 2 s pause directly under the root.
    table = trace.layer_table(
        *_columns(
            [
                ("driver", 0.0, 10.0, -1),
                ("pricing.price", 2.0, 8.0, 0),
                ("scheduler.makespan", 3.0, 6.0, 1),
                (trace.PROBE, 4.0, 5.0, 2),
                (trace.PROBE, 8.0, 10.0, 0),
            ]
        )
    )
    assert table["driver"] == {"total_s": 7.0, "self_s": 2.0, "calls": 1}
    assert table["pricing.price"] == {"total_s": 5.0, "self_s": 3.0, "calls": 1}
    assert table["scheduler.makespan"] == {"total_s": 2.0, "self_s": 2.0, "calls": 1}
    assert table[trace.PROBE] == {"total_s": 0.0, "self_s": 0.0, "calls": 2}
    assert sum(row["self_s"] for row in table.values()) == pytest.approx(7.0)


def test_wrapper_records_parent_count_and_one_span_per_super_chain():
    tracer = trace.Tracer()
    point = trace.WrapPoint(
        "algorithms.inc", "unused", "algorithms.iterations", lambda _args, result: result
    )

    class Base:
        def run(self):
            return 5

    class Derived(Base):
        def run(self):
            return super().run()

    Base.run = tracer._wrap(Base.run, point)
    Derived.run = tracer._wrap(Derived.run, point)
    root = tracer.open(trace.ROOT)
    assert Derived().run() == 5
    tracer.close(root)

    layer, start, end, parent = tracer.columns()
    assert layer.tolist() == [0, trace.LAYERS.index("algorithms.inc")]
    assert parent.tolist() == [-1, 0]
    assert tracer.counts["algorithms.iterations"] == 5
    assert start[0] <= start[1] <= end[1] <= end[0]


def test_a_raising_call_still_closes_its_span():
    tracer = trace.Tracer()

    def boom():
        raise ValueError("x")

    wrapped = tracer._wrap(boom, trace.WrapPoint("cache.replay", "unused"))
    with pytest.raises(ValueError):
        wrapped()
    _layer, start, end, _parent = tracer.columns()
    assert end[0] >= start[0] > 0.0
    assert tracer._stack == [None]


def test_install_then_uninstall_leaves_every_attribute_identical():
    import repro.analysis.hardware_profile
    import repro.streaming.driver

    tracer = trace.Tracer()
    tracer.install()
    patched = list(tracer.patched)
    try:
        # Every wrap point resolved to at least one replaced attribute...
        assert {id(original) for _, _, original in patched}
        assert len(patched) >= len(trace.WRAP_POINTS)
        # ...including by-name references held by other repro modules and
        # the overrides on algorithm subclasses.
        assert hasattr(repro.streaming.driver.price_compute_run, "__wrapped_by_bench_e2e__")
        assert hasattr(
            repro.analysis.hardware_profile.price_compute_run, "__wrapped_by_bench_e2e__"
        )
        from repro.algorithms.pagerank import PageRank

        assert hasattr(vars(PageRank)["inc_run"], "__wrapped_by_bench_e2e__")
    finally:
        tracer.uninstall()
    for owner, attribute, original in patched:
        assert vars(owner)[attribute] is original
    assert not hasattr(repro.streaming.driver.price_compute_run, "__wrapped_by_bench_e2e__")
