"""The drivers' batch loops, pinned against each other.

One stream (Talk at 0.05, batch 400, BFS/PR/SSSP under FS and INC,
churn 0.25, candidate structures AS and DAH) through every path --
static and adaptive (free-running and with a forced plan that migrates
twice) -- with the metrics registry and the span tracer on, and a spy
on the auto-tuner's ``observe_compute``.  Everything the paths share
must come out equal; everything they differ in is asserted against an
independent restatement.  The hardware profile's cell
(INC only, no churn) runs the same stream through the same loop.

Each docstring names the seeded loop mutants its assertions were seen
to kill.
"""

from collections import Counter, namedtuple

import numpy as np
import pytest

from repro.datasets import load_dataset
from repro.obs import METRICS, TRACER
from repro.streaming import StreamConfig, StreamDriver
from repro.streaming.autotune import AdaptiveController, AdaptiveStreamDriver
from tests.conftest import native_env

STRUCTURES = ("AS", "DAH")
ALGORITHMS = ("BFS", "PR", "SSSP")
MODELS = ("FS", "INC")
BATCH_SIZE = 400
CHURN = 0.25
BATCHES = 6
#: Migrates at batches 2 and 4.
FORCED_PLAN = {0: "AS", 1: "AS", 2: "DAH", 3: "DAH", 4: "AS", 5: "AS"}

#: The series the driver loop (not the structures or kernels) owns.
DRIVER_FAMILIES = ("stream_", "autotune_")
DRIVER_SPANS = (
    "batching.make", "batching.gather", "reference.update", "reference.delete",
    "autotune.decide", "compute", "autotune.migrate",
)
#: The driver loop's spans every path opens, per run of the stream.
LOOP_SPANS = {
    "batching.make": 1, "batching.gather": BATCHES, "reference.update": BATCHES,
    "reference.delete": BATCHES, "compute": BATCHES,
}

Observed = namedtuple(
    "Observed", "result priced metrics spans compute_span_cycles lines driver"
)


def _dataset():
    return load_dataset("Talk", size_factor=0.05)


def _config(**overrides):
    fields = dict(
        batch_size=BATCH_SIZE,
        structures=STRUCTURES,
        algorithms=ALGORITHMS,
        models=MODELS,
        churn_fraction=CHURN,
    )
    fields.update(overrides)
    return StreamConfig(**fields)


def _adaptive_config():
    return _config(
        structures=("adaptive",),
        models=("adaptive",),
        candidate_structures=STRUCTURES,
        candidate_models=MODELS,
    )


def _span_cycles(name):
    """Simulated cycles the kept ``name`` spans were given."""
    return sum(event[5] for event in TRACER.events() if event[0] == name)


def _observe(driver, observability=True):
    """Run ``driver`` on the stream with every registry on (or off),
    recording each cell handed to the controller's ``observe_compute``."""
    lines = []
    priced = []
    driver.config.progress = lines.append
    observe_compute = AdaptiveController.observe_compute

    def spy(controller, *cell):
        priced.append(cell)
        observe_compute(controller, *cell)

    registries = (METRICS, TRACER)
    for registry in registries:
        registry.disable()
        registry.reset()
    if observability:
        METRICS.enable()
        TRACER.enable(keep_events=True)
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(AdaptiveController, "observe_compute", spy)
            result = driver.run(_dataset())
        return Observed(
            result=result,
            priced=priced,
            metrics=METRICS.snapshot(),
            spans=Counter(event[0] for event in TRACER.events()),
            compute_span_cycles=_span_cycles("compute"),
            lines=lines,
            driver=driver,
        )
    finally:
        for registry in registries:
            registry.disable()
            registry.reset()


@pytest.fixture(scope="module")
def paths():
    forced = AdaptiveStreamDriver(_adaptive_config())
    forced.forced_plan = dict(FORCED_PLAN)
    return {
        "static": _observe(StreamDriver(_config())),
        "free": _observe(AdaptiveStreamDriver(_adaptive_config())),
        "forced": _observe(forced),
    }


def _update_ops(attempted):
    """A batch's inserts plus the churn deletions its head gives."""
    return float(attempted + max(1, int(attempted * CHURN)))


def _decisions(observed):
    return observed.driver.decision_log["decisions"]


def _owned(names, prefixes):
    return {name for name in names if name.startswith(prefixes)}


class TestSharedHalf:
    """What no plane may change."""

    def test_every_candidate_cell_is_priced_on_every_path(self, paths):
        """6 batches x 3 algorithms x 2 models x 2 structures: the static
        record holds every cell, and the adaptive controller is handed
        every cell, in loop order, at the static run's seconds.

        Kills: the adaptive plane pricing only the live structure (36
        cells short).
        """
        static = paths["static"].result
        assert np.count_nonzero(static.compute_cycles) == 72
        expected = [
            (s, a, m, static.compute_latency(a, m, s)[0, b])
            for b in range(BATCHES)
            for a in ALGORITHMS
            for m in MODELS
            for s in STRUCTURES
        ]
        for name in ("free", "forced"):
            assert paths[name].priced == expected, name

    def test_every_plane_is_the_same_without_the_native_library(self, paths):
        """Static and adaptive (forced plan) with every phase on its
        Python reference (``SAGA_BENCH_NO_NATIVE=1``) record what the
        native runs recorded, array for array."""
        forced = AdaptiveStreamDriver(_adaptive_config())
        forced.forced_plan = dict(FORCED_PLAN)
        drivers = {
            "static": StreamDriver(_config()),
            "forced": forced,
        }
        with native_env("1"):
            for name, driver in drivers.items():
                meta, arrays = _observe(driver, observability=False).result.to_payload()
                native_meta, native_arrays = paths[name].result.to_payload()
                assert meta == native_meta, name
                assert arrays.keys() == native_arrays.keys(), name
                for key, array in arrays.items():
                    np.testing.assert_array_equal(array, native_arrays[key], err_msg=name)

    def test_stream_counters_equal_on_every_path(self, paths):
        for name, observed in paths.items():
            assert observed.metrics["stream_batches_total"] == {
                "dataset=Talk": float(BATCHES)
            }, name
            assert observed.metrics["stream_edges_inserted_total"] == {
                "dataset=Talk": 2232.0
            }, name

    def test_compute_span_carries_the_recorded_cycles(self, paths):
        """One ``compute`` span per batch, its cycles the recorded cells'.

        Kills: ``compute_span.add_cycles`` fed every candidate cell on
        the adaptive plane (the span would carry the 2 x 2 matrix, four
        times the chosen combination's cycles).
        """
        for name, observed in paths.items():
            assert observed.spans["compute"] == BATCHES, name
            assert observed.compute_span_cycles == pytest.approx(
                float(observed.result.compute_cycles.sum()), rel=1e-12
            ), name


class TestObservabilityPerPath:
    def test_driver_owned_metric_families(self, paths):
        stream = {
            "stream_batches_total",
            "stream_compute_latency_seconds",
            "stream_edges_inserted_total",
            "stream_update_latency_seconds",
        }
        autotune = {
            "autotune_actual_latency_seconds",
            "autotune_est_regret_seconds_total",
            "autotune_migrated_edges_total",
            "autotune_migration_latency_seconds",
            "autotune_predicted_latency_seconds",
            "autotune_switches_total",
        }
        expected = {
            "static": stream,
            "free": stream | autotune,
            "forced": stream | autotune,
        }
        for name, observed in paths.items():
            assert _owned(observed.metrics, DRIVER_FAMILIES) == expected[name], name

    def test_update_latency_series_per_path(self, paths):
        """Every plane observes insert and delete separately under the
        ingesting structure's name; the adaptive plane adds the whole
        update phase, migration included, under ``structure="adaptive"``."""
        family = paths["static"].metrics["stream_update_latency_seconds"]
        assert {key: series["count"] for key, series in family.items()} == {
            f"structure={s}": 2 * BATCHES for s in STRUCTURES
        }
        for name in ("free", "forced"):
            observed = paths[name]
            family = observed.metrics["stream_update_latency_seconds"]
            live = Counter(d["structure"] for d in _decisions(observed))
            assert {key: series["count"] for key, series in family.items()} == {
                "structure=adaptive": BATCHES,
                **{f"structure={s}": 2 * n for s, n in live.items()},
            }, name
            assert family["structure=adaptive"]["sum"] == pytest.approx(
                float(observed.result.update_latency("adaptive").sum()), rel=1e-12
            )
            compute = observed.metrics["stream_compute_latency_seconds"]
            assert set(compute) == {
                f"algorithm={a},model=adaptive,structure=adaptive"
                for a in ALGORITHMS
            }

    def test_driver_owned_spans(self, paths):
        spans = paths["static"].spans
        assert {s: spans[s] for s in DRIVER_SPANS if spans[s]} == LOOP_SPANS
        for name in ("free", "forced"):
            observed = paths[name]
            migrations = sum(
                1 for d in _decisions(observed) if d["migration_seconds"] > 0.0
            )
            assert {s: observed.spans[s] for s in DRIVER_SPANS} == {
                **LOOP_SPANS,
                "autotune.decide": BATCHES,
                "autotune.migrate": migrations,
            }, name
            switches = observed.metrics["autotune_switches_total"]
            assert sum(switches.values()) == migrations
        assert paths["forced"].spans["autotune.migrate"] == 2

    def test_progress_lines(self, paths):
        for name, observed in paths.items():
            result = observed.result
            suffixes = [""] * BATCHES
            if name in ("free", "forced"):
                suffixes = [
                    f" [{d['structure']}/{d['reason']}]"
                    for d in _decisions(observed)
                ]
            assert observed.lines == [
                f"Talk batch {b + 1}/{BATCHES}{suffixes[b]}: "
                f"|V|={result.num_nodes[0, b]} |E|={result.num_edges[0, b]}"
                for b in range(BATCHES)
            ], name


class TestAdaptivePlane:
    def test_update_rows_are_the_live_structures_static_rows(self, paths):
        """The controller's update sample of a batch is the live
        structure's static latency and never includes a migration, which
        is a sample of its own; the record includes it, by exactly the
        migration's cycles.

        Kills: migration cycles dropped from the record, migration
        cycles folded into the sample the controller fits from, the
        sample taken for a structure other than the live one.
        """
        static = paths["static"]
        attempted = static.result.edges_attempted[0]
        for name in ("free", "forced"):
            observed = paths[name]
            samples = iter(observed.driver.controller.samples)
            decisions = _decisions(observed)
            assert len(decisions) == BATCHES
            for decision in decisions:
                b, live = decision["batch"], decision["structure"]
                if decision["migration_seconds"] > 0.0:
                    structure, _, seconds = next(samples)
                    assert (structure, seconds) == (
                        live, decision["migration_seconds"]
                    ), (name, b)
                assert next(samples) == (
                    live,
                    _update_ops(attempted[b]),
                    static.result.update_latency(live)[0, b],
                ), (name, b)
                extra = (
                    observed.result.update_cycles[0, b, 0]
                    - static.result.update_cycles[0, b, STRUCTURES.index(live)]
                )
                if decision["migration_seconds"] == 0.0:
                    assert extra == 0.0, (name, b)
                else:
                    assert static.result.machine.cycles_to_seconds(
                        extra
                    ) == pytest.approx(decision["migration_seconds"], rel=1e-9)
            assert next(samples, None) is None, name
        migrating = [
            d["batch"] for d in _decisions(paths["forced"])
            if d["migration_seconds"] > 0.0
        ]
        assert migrating == [2, 4]

    def test_recorded_cells_are_the_chosen_combination(self, paths):
        static = paths["static"].result
        for name in ("free", "forced"):
            adaptive = paths[name].result
            assert adaptive.structures == ("adaptive",)
            assert adaptive.models == ("adaptive",)
            for decision in _decisions(paths[name]):
                b = decision["batch"]
                si = STRUCTURES.index(decision["structure"])
                for ai, algorithm in enumerate(ALGORITHMS):
                    mi = MODELS.index(decision["models"][algorithm])
                    assert (
                        adaptive.compute_cycles[0, b, ai, 0, 0]
                        == static.compute_cycles[0, b, ai, mi, si]
                    )
                    assert (
                        adaptive.compute_iterations[0, b, ai, 0]
                        == static.compute_iterations[0, b, ai, mi]
                    )

    def test_free_running_decisions(self, paths):
        """The controller saw every candidate cell, in loop order.

        Kills: ``observe_compute`` fed only the live structure (DAH's
        compute forecasts stay empty through the two AS batches, so
        batch 2 falls back to the cold-start INC for every algorithm),
        ``observe_update`` never called.
        """
        decisions = _decisions(paths["free"])
        assert [(d["structure"], d["reason"]) for d in decisions] == [
            ("AS", "start"), ("AS", "explore"), ("DAH", "explore"),
            ("DAH", "explore"), ("DAH", "stay"), ("DAH", "stay"),
        ]
        # Batch 2 is DAH's first live batch: its model picks can only
        # come from cells priced while AS was the live structure.
        assert [
            "".join(d["models"][a][0] for a in ALGORITHMS) for d in decisions
        ] == ["III", "FII", "FIF", "FII", "FIF", "FIF"]
        static = paths["static"].result
        for decision in decisions:
            chosen = sum(
                static.compute_latency(
                    a, decision["models"][a], decision["structure"]
                )[0, decision["batch"]]
                for a in ALGORITHMS
            )
            update = static.update_latency(decision["structure"])[
                0, decision["batch"]
            ]
            assert decision["actual_seconds"] == pytest.approx(
                update + chosen, rel=1e-12
            )
        assert paths["free"].driver.decision_log["summary"]["switches"] == 1

    def test_decisions_do_not_depend_on_observability(self, paths):
        """Kills: a controller observation made only while the metrics
        registry or the tracer is on."""
        quiet = AdaptiveStreamDriver(_adaptive_config())
        observed = _observe(quiet, observability=False)
        assert observed.metrics == {}
        assert observed.priced == paths["free"].priced
        assert quiet.controller.samples == paths["free"].driver.controller.samples
        assert _decisions(observed) == _decisions(paths["free"])
        assert np.array_equal(
            observed.result.update_cycles, paths["free"].result.update_cycles
        )
        assert np.array_equal(
            observed.result.compute_cycles, paths["free"].result.compute_cycles
        )


class TestDeletionCrossCheck:
    """The loop holds every plane's removed count to the reference
    graph's, as it always held the inserted count (new with the one
    loop: nothing checked a structure's deletions before)."""

    @pytest.mark.skipif(not __debug__, reason="the cross-check is an assert")
    @pytest.mark.parametrize("path", ["static", "adaptive"])
    def test_under_reported_removal_is_caught(self, monkeypatch, path):
        from repro.graph.base import GraphDataStructure

        honest = GraphDataStructure.delete

        def forgetful(self, batch, ctx=None):
            result = honest(self, batch, ctx)
            if self.name == "DAH" and result.edges_inserted:
                result.edges_inserted -= 1
            return result

        monkeypatch.setattr(GraphDataStructure, "delete", forgetful)
        if path == "static":
            driver = StreamDriver(_config())
        else:
            driver = AdaptiveStreamDriver(_adaptive_config())
            driver.forced_plan = {0: "DAH"}
        with pytest.raises(AssertionError, match="DAH removed .* reference graph removed"):
            driver.run(_dataset())


class TestHardwarePlane:
    """``profile_cell`` (Figs. 9-10) is the same loop over a fourth plane."""

    def test_profile_cell_is_one_pass_of_the_batch_loop(self, monkeypatch):
        """One ``_run_batches`` call walks every batch of the cell, with
        the driver's spans and stream series around the traced plane.

        Kills: a private batch loop in ``profile_cell`` (no call), the
        compute emission outside the loop's ``compute`` span, and the
        plane pricing the full machine differently from the loop (the
        span's cycles would not be the counters' compute seconds).
        """
        from repro.analysis.hardware_profile import HardwarePlane, HardwareProfiler
        from tests.conftest import SMALL_MACHINE

        walks = []
        loop = StreamDriver._run_batches

        def spy(driver, plane, source, result):
            walks.append(type(plane))
            return loop(driver, plane, source, result)

        monkeypatch.setattr(StreamDriver, "_run_batches", spy)
        profiler = HardwareProfiler(
            machine=SMALL_MACHINE, core_counts=(2, 4), algorithms=ALGORITHMS,
            batch_size=BATCH_SIZE, trace_cap=2_000,
        )
        for registry in (METRICS, TRACER):
            registry.disable()
            registry.reset()
        METRICS.enable()
        TRACER.enable(keep_events=True)
        try:
            cell = profiler.profile_cell("Talk", "DAH", 0.05)
            metrics = METRICS.snapshot()
            spans = Counter(event[0] for event in TRACER.events())
            compute_cycles = _span_cycles("compute")
        finally:
            for registry in (METRICS, TRACER):
                registry.disable()
                registry.reset()
        assert walks == [HardwarePlane]
        assert cell.batches == BATCHES
        # No churn on the hardware plane: nothing is deleted.
        assert {s: spans[s] for s in DRIVER_SPANS if spans[s]} == {
            key: calls for key, calls in LOOP_SPANS.items() if key != "reference.delete"
        }
        assert spans["compute.trace"] == BATCHES * len(ALGORITHMS)
        # No per-batch update latency series or sim timeline: the
        # plane's product is the cell's counters.
        assert _owned(metrics, DRIVER_FAMILIES) == {
            "stream_batches_total",
            "stream_compute_latency_seconds",
            "stream_edges_inserted_total",
        }
        edges = _dataset().edges
        unique = np.unique(np.stack([edges.src, edges.dst]), axis=1).shape[1]
        assert metrics["stream_edges_inserted_total"] == {"dataset=Talk": float(unique)}
        assert SMALL_MACHINE.cycles_to_seconds(compute_cycles) == pytest.approx(
            len(ALGORITHMS) * sum(c.seconds for c in cell.counters["compute"]),
            rel=1e-12,
        )
