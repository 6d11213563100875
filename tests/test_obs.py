"""Tests for the observability layer: tracer, metrics, exporters.

Covers the disabled-path cost contract (shared no-op span, no
collection), span nesting self-time attribution, the registry merge
used by parallel sweeps, golden-shape validation of the Chrome-trace
and Prometheus exporters, the layer table and its ``--profile``
printout, the
CLI ``--trace-out`` / ``--metrics-out`` wiring, and the acceptance
guarantees: simulated-timeline capture does not change results, and a
``jobs=2`` sweep's merged metrics equal a serial run's.
"""

import json
import math

import numpy as np
import pytest

from repro.algorithms import get_algorithm
from repro.cli import _profile_report, main
from repro.compute import ckernels
from repro.compute.stats import ROUND_COLUMNS
from repro.engine import StreamRequest, run_many, run_stream
from repro.graph import EdgeBatch, ReferenceGraph
from repro.obs import (
    METRICS,
    NULL_SPAN,
    TRACER,
    MetricsRegistry,
    SpanTracer,
    chrome_trace_events,
    prometheus_text,
)
from repro.obs.tracer import ROOT
from repro.streaming import StreamConfig, StreamDriver
from repro.datasets import load_dataset


def _rows(tracer):
    """The layer table as ``{name: (total_s, self_s, calls)}``."""
    return {name: (total, own, calls) for name, total, own, calls in tracer.table()}


@pytest.fixture(autouse=True)
def clean_globals():
    """Each test starts and ends with the global obs state off."""
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()
    yield
    TRACER.disable()
    TRACER.reset()
    METRICS.disable()
    METRICS.reset()


class TestDisabledPath:
    def test_disabled_span_is_shared_singleton(self):
        tracer = SpanTracer()
        assert tracer.span("a") is NULL_SPAN
        assert tracer.span("b", cat="x", args={"k": 1}) is NULL_SPAN

    def test_null_span_swallows_mutations(self):
        with NULL_SPAN as span:
            span.add_cycles(10.0)

    def test_disabled_tracer_collects_nothing(self):
        tracer = SpanTracer()
        with tracer.span("phase"):
            pass
        tracer.record_schedule_threads("track", [0], [0.0], [1.0])
        assert tracer.table() == []
        assert tracer.span_coverage_ratio() == 0.0
        assert tracer.events() == []
        assert tracer.sim_tracks() == {}

    def test_disabled_registry_shares_handles_but_guard_is_the_contract(self):
        registry = MetricsRegistry()
        assert not registry.enabled
        # Recording sites guard with `if METRICS.enabled:`; the global
        # instrumented paths must leave the registry empty when off.
        dataset = load_dataset("Talk", size_factor=0.05)
        StreamDriver(StreamConfig(batch_size=2000, structures=("DAH",),
                                  algorithms=("PR",))).run(dataset)
        assert METRICS.snapshot() == {}
        assert TRACER.events() == []


class TestSpanNesting:
    def test_self_time_excludes_children(self):
        # Drive push/pop with synthetic timestamps: real clocks would
        # make the exact self-time assertions brittle.
        tracer = SpanTracer()
        tracer.enable()
        outer = tracer.span("outer")
        tracer._push(outer)
        outer.start = 0.0
        inner = tracer.span("inner")
        tracer._push(inner)
        inner.start = 1.0
        tracer._pop(inner, 5.0)
        tracer._pop(outer, 10.0)
        rows = _rows(tracer)
        assert rows["inner"] == (4.0, 4.0, 1)
        assert rows["outer"] == (10.0, pytest.approx(6.0), 1)

    def test_reentered_phase_does_not_double_count(self):
        tracer = SpanTracer()
        tracer.enable()
        outer = tracer.span("phase")
        tracer._push(outer)
        outer.start = 0.0
        nested = tracer.span("phase")
        tracer._push(nested)
        nested.start = 2.0
        tracer._pop(nested, 6.0)
        tracer._pop(outer, 10.0)
        total, own, calls = _rows(tracer)["phase"]
        # The nested span's duration is already in the outer one's.
        assert total == pytest.approx(10.0)
        assert own == pytest.approx(10.0)
        assert calls == 2

    def test_cycles_attribution(self):
        tracer = SpanTracer()
        tracer.enable(keep_events=True)
        with tracer.span("scheduler.run") as span:
            span.add_cycles(100.0)
            span.add_cycles(50.0)
        ((name, _, _, _, _, cycles, _),) = tracer.events()
        assert (name, cycles) == ("scheduler.run", 150.0)

    def test_events_recorded_when_kept(self):
        tracer = SpanTracer()
        tracer.enable(keep_events=True)
        with tracer.span("a", cat="phase", args={"batch": 0}):
            pass
        (event,) = tracer.events()
        name, cat, tid, start, dur, cycles, args = event
        assert name == "a" and cat == "phase" and args == {"batch": 0}
        assert dur >= 0.0

    def test_event_cap_drops_not_grows(self):
        tracer = SpanTracer(max_events=2)
        tracer.enable(keep_events=True)
        for _ in range(5):
            with tracer.span("x"):
                pass
        assert len(tracer.events()) == 2
        assert tracer.dropped_events == 3


class TestRegistry:
    def test_counter_gauge_histogram(self):
        registry = MetricsRegistry()
        registry.counter("c", "help").inc()
        registry.counter("c", "help").inc(2)
        registry.gauge("g").set(7)
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        hist.observe(9.0)
        assert registry.value("c") == 3
        assert registry.value("g") == 7
        assert hist.cumulative() == [1, 2, 3]
        assert hist.sum == pytest.approx(11.0)

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("m")
        with pytest.raises(ValueError):
            registry.gauge("m")

    def test_labels_are_order_insensitive(self):
        registry = MetricsRegistry()
        registry.counter("c", a="1", b="2").inc()
        registry.counter("c", b="2", a="1").inc()
        assert registry.value("c", a="1", b="2") == 2

    def test_merge_across_simulated_workers(self):
        parent = MetricsRegistry()
        workers = []
        for w in range(3):
            worker = MetricsRegistry()
            worker.counter("tasks", "t", structure="DAH").inc(10 * (w + 1))
            worker.gauge("last").set(w)
            worker.histogram("lat", buckets=(1.0,)).observe(0.5 + w)
            workers.append(worker)
        for worker in workers:
            parent.merge_payload(worker.to_payload())
        assert parent.value("tasks", structure="DAH") == 60
        assert parent.value("last") == 2  # gauges take the incoming value
        hist = parent.histogram("lat", buckets=(1.0,))
        assert hist.count == 3
        assert hist.cumulative() == [1, 3]

    def test_merge_is_associative(self):
        def build(values):
            registry = MetricsRegistry()
            for v in values:
                registry.counter("c").inc(v)
                registry.histogram("h", buckets=(1.0, 2.0)).observe(v)
            return registry

        left = build([0.5, 1.5])
        left.merge_payload(build([2.5]).to_payload())
        right = build([2.5])
        right.merge_payload(build([0.5, 1.5]).to_payload())
        assert left.snapshot()["c"] == right.snapshot()["c"]
        assert (
            left.snapshot()["h"][""]["buckets"]
            == right.snapshot()["h"][""]["buckets"]
        )


class TestExporters:
    def _populated_tracer(self):
        tracer = SpanTracer()
        tracer.enable(keep_events=True, sim_timeline=True)
        tracer._epoch = 0.0  # synthetic timestamps below are absolute
        span = tracer.span("graph.update")
        tracer._push(span)
        span.start = 0.0
        tracer._pop(span, 0.25)
        span = tracer.span("scheduler.run")
        tracer._push(span)
        span.start = 0.25
        span.add_cycles(1000.0)
        tracer._pop(span, 0.5)
        tracer.record_schedule_threads(
            "Talk/DAH", [0, 1], [0.0, 0.0], [5.0, 7.0], ["update", "update"]
        )
        return tracer

    def test_chrome_trace_shape(self):
        events = chrome_trace_events(self._populated_tracer())
        meta = [e for e in events if e["ph"] == "M"]
        timed = [e for e in events if e["ph"] == "X"]
        assert {e["args"]["name"] for e in meta if e["name"] == "process_name"} \
            == {"wall clock", "sim Talk/DAH"}
        # Metadata first, timed events ts-monotonic after.
        assert events[: len(meta)] == meta
        ts = [e["ts"] for e in timed]
        assert ts == sorted(ts)
        schedule = next(e for e in timed if e["name"] == "scheduler.run")
        assert schedule["args"]["sim_cycles"] == 1000.0
        sim = [e for e in timed if e["pid"] >= 1000]
        assert {e["tid"] for e in sim} == {0, 1}
        assert all(e["cat"] == "sim" for e in sim)

    def test_chrome_trace_is_valid_deterministic_json(self):
        first = json.dumps(chrome_trace_events(self._populated_tracer()))
        second = json.dumps(chrome_trace_events(self._populated_tracer()))
        assert first == second
        assert json.loads(first)  # round-trips

    def test_prometheus_golden(self):
        registry = MetricsRegistry()
        registry.counter("c_total", "a counter", structure="DAH").inc(3)
        registry.gauge("g", "a gauge").set(1.5)
        registry.histogram("h_seconds", "a histogram", buckets=(0.1, 1.0)) \
            .observe(0.05)
        text = prometheus_text(registry)
        assert text == (
            "# HELP c_total a counter\n"
            "# TYPE c_total counter\n"
            'c_total{structure="DAH"} 3\n'
            "# HELP g a gauge\n"
            "# TYPE g gauge\n"
            "g 1.5\n"
            "# HELP h_seconds a histogram\n"
            "# TYPE h_seconds histogram\n"
            'h_seconds_bucket{le="0.1"} 1\n'
            'h_seconds_bucket{le="1.0"} 1\n'
            'h_seconds_bucket{le="+Inf"} 1\n'
            "h_seconds_sum 0.05\n"
            "h_seconds_count 1\n"
        )

    def test_prometheus_escapes_label_values(self):
        registry = MetricsRegistry()
        registry.counter("c", label='quo"te\nline').inc()
        text = prometheus_text(registry)
        assert '\\"' in text and "\\n" in text


class TestProfileReport:
    """The layer table, and ``--profile``'s printout of it."""

    @staticmethod
    def _span(tracer, name, start, end):
        span = tracer.span(name)
        tracer._push(span)
        span.start = start
        tracer._pop(span, end)

    def _rooted(self, tracer):
        """driver [0, 4] around compute [0, 3]; 1 s unattributed."""
        root = tracer.span(ROOT)
        tracer._push(root)
        root.start = 0.0
        self._span(tracer, "compute", 0.0, 3.0)
        tracer._pop(root, 4.0)

    def test_report_format_survives(self):
        tracer = SpanTracer()
        tracer.enable()
        self._rooted(tracer)
        lines = _profile_report(tracer).splitlines()
        assert lines == [
            "[profile] wall time by layer; self times sum to driver's total",
            "  layer                        total_s      self_s  share   calls",
            "  driver                      4.000000    1.000000  25.0%       1",
            "  compute                     3.000000    3.000000  75.0%       1",
            "  span_coverage_ratio 0.750",
        ]

    def test_empty_report(self):
        assert _profile_report(SpanTracer()) == "[profile] no spans ran"

    def test_nested_phases_self_time(self):
        tracer = SpanTracer()
        tracer.enable()
        outer = tracer.span("a")
        tracer._push(outer)
        outer.start = 0.0
        self._span(tracer, "b", 1.0, 3.0)
        tracer._pop(outer, 4.0)
        assert _rows(tracer) == {
            "a": (4.0, pytest.approx(2.0), 1), "b": (2.0, 2.0, 1)
        }
        lines = _profile_report(tracer).splitlines()
        assert sorted(line.split()[:3] for line in lines[2:4]) == [
            ["a", "4.000000", "2.000000"], ["b", "2.000000", "2.000000"]
        ]
        # Without a root span nothing is attributed to one.
        assert lines[-1] == "  span_coverage_ratio 0.000"

    def test_default_reads_the_global_tracer(self):
        TRACER.enable()
        self._span(TRACER, "scheduler.run", 0.0, 0.5)
        assert (
            "  scheduler.run               0.500000    0.500000 100.0%       1"
            in _profile_report()
        )

    def test_absorbed_worker_rows_add_up(self):
        """A ``--jobs`` worker's rows merge into the table field by field."""
        worker = SpanTracer()
        worker.enable()
        self._rooted(worker)
        parent = SpanTracer()
        parent.absorb(worker.to_payload())
        parent.absorb(worker.to_payload())
        assert _rows(parent) == {ROOT: (8.0, 2.0, 2), "compute": (6.0, 6.0, 2)}
        assert parent.span_coverage_ratio() == 0.75

    def test_profile_flag_prints_the_report(self, capsys):
        assert main(["stream", "--quick", "--no-cache", "--profile"]) == 0
        out = capsys.readouterr().out
        report = out.split("[profile] wall time by layer")[1]
        lines = report.splitlines()[2:]
        assert lines[-1].startswith("  span_coverage_ratio ")
        rows = {line.split()[0]: line.split() for line in lines[:-1]}
        assert list(rows)[0] == ROOT
        assert set(rows) >= {
            "datasets.build", "batching.make", "graph.update", "scheduler.run",
            "reference.update", "algorithms.fs", "algorithms.inc", "pricing.price",
        }
        # Conserved: the printed self times sum to the root's total.
        assert sum(float(row[2]) for row in rows.values()) == pytest.approx(
            float(rows[ROOT][1]), abs=1e-6 * len(rows)
        )
        assert not TRACER.enabled

    def test_check_profile_script_and_coverage_gauge(self, tmp_path, capsys):
        """CI's conservation check passes the printed table and fails a
        table whose self times no longer sum to the root; the metrics
        file exports the printed coverage."""
        import subprocess
        import sys as _sys
        from pathlib import Path

        prom = tmp_path / "m.prom"
        assert main([
            "stream", "--quick", "--no-cache", "--profile", "--metrics-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        (coverage,) = [
            line.split()[1] for line in out.splitlines()
            if line.startswith("  span_coverage_ratio ")
        ]
        (exported,) = [
            line.split()[1] for line in prom.read_text().splitlines()
            if line.startswith("span_coverage_ratio ")
        ]
        assert 0.0 < float(exported) < 1.0
        assert f"{float(exported):.3f}" == coverage
        script = Path(__file__).parent.parent / "scripts" / "check_profile.py"
        good, bad = tmp_path / "good.txt", tmp_path / "bad.txt"
        good.write_text(out)
        root_line = next(line for line in out.splitlines() if line.startswith("  driver "))
        fields = root_line.split()
        bad.write_text(out.replace(root_line, root_line.replace(fields[2], "9.999999")))
        result = subprocess.run(
            [_sys.executable, str(script), str(good)], capture_output=True, text=True
        )
        assert result.returncode == 0, result.stderr
        assert f"span_coverage_ratio {coverage}" in result.stdout
        result = subprocess.run(
            [_sys.executable, str(script), str(bad)], capture_output=True, text=True
        )
        assert result.returncode == 1 and "self times sum to" in result.stderr


class TestInstrumentedRun:
    CONFIG = dict(batch_size=1000, structures=("AS", "DAH"),
                  algorithms=("PR",), models=("FS", "INC"))

    def test_sim_timeline_capture_does_not_change_results(self):
        dataset = load_dataset("Talk", size_factor=0.1)
        baseline = StreamDriver(StreamConfig(**self.CONFIG)).run(dataset)
        TRACER.enable(keep_events=True, sim_timeline=True)
        METRICS.enable()
        observed = StreamDriver(StreamConfig(**self.CONFIG)).run(dataset)
        base_meta, base_arrays = baseline.to_payload()
        obs_meta, obs_arrays = observed.to_payload()
        assert base_meta == obs_meta
        for key in base_arrays:
            assert np.array_equal(base_arrays[key], obs_arrays[key]), key
        tracks = TRACER.sim_tracks()
        assert set(tracks) == {"Talk/AS", "Talk/DAH"}
        for rows in tracks.values():
            assert rows  # at least one scheduled slice per structure
            for _, label, start, dur in rows:
                assert label == "update" and start >= 0.0 and dur >= 0.0

    def test_batches_abut_on_the_sim_track(self):
        dataset = load_dataset("Talk", size_factor=0.1)
        TRACER.enable(sim_timeline=True)
        StreamDriver(StreamConfig(**self.CONFIG)).run(dataset)
        rows = TRACER.sim_tracks()["Talk/DAH"]
        # Slices from batch 2 start at (or after) batch 1's makespan,
        # never before: the per-track clock only moves forward.
        starts = [start for _, _, start, _ in rows]
        assert min(starts) == 0.0
        assert max(starts) > 0.0

    def test_metrics_counters_recorded(self):
        dataset = load_dataset("Talk", size_factor=0.1)
        METRICS.enable()
        StreamDriver(StreamConfig(**self.CONFIG)).run(dataset)
        snapshot = METRICS.snapshot()
        assert METRICS.value("stream_batches_total", dataset="Talk") > 0
        assert METRICS.value("sim_tasks_emitted_total", structure="DAH") > 0
        assert METRICS.value("sim_schedules_total", structure="AS") > 0
        assert "stream_update_latency_seconds" in snapshot
        assert "stream_compute_latency_seconds" in snapshot

    def test_hardware_profile_emitted_vs_replayed_accesses(self):
        """``sim_trace_accesses_total`` counts before the sampling cap."""
        from repro.analysis.hardware_profile import HardwareProfiler
        from tests.conftest import SMALL_MACHINE

        TRACER.enable()
        METRICS.enable()
        cell = HardwareProfiler(
            machine=SMALL_MACHINE, core_counts=(4,), algorithms=("BFS", "PR"),
            batch_size=500, trace_cap=2_000,
        ).profile_cell("Talk", "DAH", 0.05)
        emitted = {
            phase: METRICS.value("sim_trace_accesses_total", phase=phase)
            for phase in ("update", "compute")
        }
        replayed = METRICS.value("sim_cache_accesses_total")
        assert emitted["update"] > 0 and emitted["compute"] > 0
        # Three replays per batch, each of at most trace_cap accesses.
        assert replayed <= 3 * cell.batches * 2_000 < sum(emitted.values())
        # The driver loop's one compute span per batch; one emission per
        # algorithm inside it.
        calls = {name: rows[2] for name, rows in _rows(TRACER).items()}
        assert calls["reference.update"] == calls["compute"] == cell.batches
        assert calls["compute.trace"] == 2 * cell.batches

    @pytest.mark.parametrize("engine", ["native", "python"])
    def test_cache_replay_span_names_its_engine(self, engine):
        """One ``cache.replay`` span per phase replay -- one update and
        one per algorithm per batch -- each saying which implementation
        ran and how many accesses it was handed; the gauge agrees."""
        from repro.analysis.hardware_profile import HardwareProfiler
        from repro.sim import ckernel
        from tests.conftest import SMALL_MACHINE, native_env

        if engine == "native" and ckernel.get_kernel() is None:
            pytest.skip("no C compiler: sim library unavailable")
        TRACER.enable(keep_events=True)
        METRICS.enable()
        profiler = HardwareProfiler(
            machine=SMALL_MACHINE, core_counts=(4,), algorithms=("BFS", "PR"),
            batch_size=500, trace_cap=2_000,
        )
        with native_env("1" if engine == "python" else None):
            cell = profiler.profile_cell("Talk", "DAH", 0.05)
        spans = [e for e in TRACER.events() if e[0] == "cache.replay"]
        assert len(spans) == 3 * cell.batches
        assert {span[6]["engine"] for span in spans} == {engine}
        assert (
            sum(span[6]["accesses"] for span in spans)
            == METRICS.value("sim_cache_accesses_total")
            > 0
        )
        assert METRICS.value("native_loaded") == (engine == "native")

    def test_ingest_replay_span_and_growth_event_counter(self):
        """One ``ingest.replay`` per ``ingest.ckernel``; every vector
        allocation of the batch is one counted growth event."""
        from repro.graph import make_structure
        from repro.sim import cingest
        from tests.conftest import random_batch

        if cingest.get() is None:
            pytest.skip("compiled ingest kernels unavailable")
        TRACER.enable()
        METRICS.enable()
        structure = make_structure("AS", 64, directed=True)
        regions_before = structure.space.region_count
        structure.update(random_batch(64, 300, seed=2))
        rows = _rows(TRACER)
        assert rows["ingest.replay"][2] == rows["ingest.ckernel"][2] == 1
        assert rows["graph.update"][2] == rows["scheduler.run"][2] == 1
        assert (
            METRICS.value("ingest_growth_events_total", structure="AS")
            == structure.space.region_count - regions_before
            > 0
        )

    def test_traced_batch_says_which_path_wrote_its_trace(self, monkeypatch):
        """``ingest_trace_accesses_total`` ticks once per traced batch with
        the trace's length under the path that wrote it; a log that had
        to grow shows in ``ingest_trace_stalls_total``."""
        from repro.graph import ExecutionContext, make_structure, nativestore
        from repro.sim import cingest
        from repro.sim.trace import TraceRecorder
        from tests.conftest import native_env, random_batch

        if cingest.get() is None:
            pytest.skip("compiled ingest kernels unavailable")
        METRICS.enable()
        batch = random_batch(64, 300, seed=2)
        monkeypatch.setattr(nativestore, "INITIAL_LOG", 64)
        for setting, path in ((None, "kernel"), ("1", "per_edge")):
            with native_env(setting):
                structure = make_structure("DAH", 64, directed=True)
            structure.update(batch)  # untraced: no tick
            assert METRICS.total("ingest_trace_accesses_total") == 0
            trace = structure.delete(
                batch, ExecutionContext(recorder=TraceRecorder())
            ).trace
            assert (
                METRICS.value("ingest_trace_accesses_total", structure="DAH", path=path)
                == METRICS.total("ingest_trace_accesses_total")
                == len(trace)
                > 64
            )
            stalls = METRICS.value("ingest_trace_stalls_total", structure="DAH")
            assert (stalls > 0) == (path == "kernel")
            METRICS.reset()

    def test_parallel_sweep_metrics_equal_serial(self, tmp_path):
        # Two shuffles of one stream: two requests, two pooled cells (the
        # shuffle seeds the two repetitions of one request once had).
        requests = [
            StreamRequest(
                "Talk", StreamConfig(shuffle_seed=seed, **self.CONFIG),
                size_factor=0.1,
            )
            for seed in (0, 7919)
        ]
        METRICS.enable()
        serial = run_many(requests)
        serial_snapshot = METRICS.snapshot()
        METRICS.reset()
        parallel = run_many(requests, jobs=2)
        parallel_snapshot = METRICS.snapshot()
        for one, other in zip(serial, parallel):
            serial_meta, serial_arrays = one.to_payload()
            parallel_meta, parallel_arrays = other.to_payload()
            assert serial_meta == parallel_meta
            for key in serial_arrays:
                assert np.array_equal(serial_arrays[key], parallel_arrays[key])
        # Transport-only families exist only where that transport runs:
        # parallel workers map the stream directory the parent spilled,
        # a serial in-RAM run maps nothing.  Environment gauges describe
        # the process that ran.  Simulated metrics must agree.
        transport_only = {
            "stream_bytes_mapped",
            "native_loaded",
        }
        assert (
            set(serial_snapshot) - transport_only
            == set(parallel_snapshot) - transport_only
        )
        wall_time = {
            "sweep_cell_seconds",
            "compute_view_build_seconds",
            "compute_view_update_seconds",
        }
        for name, family in serial_snapshot.items():
            if name in wall_time or name in transport_only:
                continue  # wall time necessarily differs between runs
            for labels, value in family.items():
                other = parallel_snapshot[name][labels]
                if isinstance(value, dict):
                    # Histogram: counts merge exactly; float sums may
                    # differ in the last ulp (association order).
                    assert value["count"] == other["count"]
                    assert value["buckets"] == other["buckets"]
                    assert math.isclose(
                        value["sum"], other["sum"], rel_tol=1e-12
                    )
                else:
                    assert value == other, (name, labels)

    def test_parallel_hardware_sweep_metrics_equal_serial(self):
        """Pooled hardware cells ship their simulated counters back.

        Kills: ``profile_cells`` running its own pool without the sweep
        engine's worker reset/enable and merge (the parallel snapshot
        holds none of the three families), and a negative ``jobs``
        silently run serially.
        """
        from repro.analysis.hardware_profile import HardwareProfiler
        from repro.errors import ConfigError
        from tests.conftest import SMALL_MACHINE

        profiler = HardwareProfiler(
            machine=SMALL_MACHINE, core_counts=(4,), algorithms=("BFS", "PR"),
            batch_size=500, trace_cap=2_000,
        )
        specs = [("Talk", "DAH", 0.05), ("Wiki", "DAH", 0.05)]
        families = (
            "sim_trace_accesses_total",
            "ingest_trace_accesses_total",
            "sim_cache_accesses_total",
        )
        METRICS.enable()
        snapshots, payloads = [], []
        for jobs in (1, 2):
            METRICS.reset()
            cells = profiler.profile_cells(specs, jobs=jobs)
            payloads.append([cell.to_payload() for cell in cells])
            snapshot = METRICS.snapshot()
            snapshots.append({name: snapshot.get(name) for name in families})
        serial, parallel = snapshots
        assert all(serial[name] for name in families)
        assert set(serial["sim_trace_accesses_total"]) == {
            "phase=update", "phase=compute",
        }
        assert parallel == serial
        for ours, theirs in zip(*payloads):
            assert ours[0] == theirs[0]
            for name, column in ours[1].items():
                assert np.array_equal(column, theirs[1][name]), name
        with pytest.raises(ConfigError, match="jobs"):
            profiler.profile_cells(specs, jobs=-1)


class TestCli:
    def test_trace_and_metrics_out(self, tmp_path, capsys):
        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        assert main([
            "stream", "--dataset", "Talk", "--quick",
            "--trace-out", str(trace),
            "--metrics-out", str(prom),
        ]) == 0
        out = capsys.readouterr().out
        assert "[sweep]" in out
        payload = json.loads(trace.read_text())
        phases = {e["ph"] for e in payload["traceEvents"]}
        assert phases <= {"M", "X", "i"}
        assert any(e["pid"] >= 1000 for e in payload["traceEvents"])
        text = prom.read_text()
        assert "stream_update_latency_seconds_bucket" in text
        assert "# TYPE stream_batches_total counter" in text
        # The CLI turns the globals back off on exit.
        assert not TRACER.enabled and not METRICS.enabled

    def test_quick_flag_scales_down(self):
        from repro.cli import build_parser

        args = build_parser().parse_args(["stream", "--quick"])
        assert args.quick and args.size_factor == 1.0

    def test_validate_obs_script(self, tmp_path):
        import subprocess
        import sys as _sys
        from pathlib import Path

        trace = tmp_path / "t.json"
        prom = tmp_path / "m.prom"
        assert main([
            "stream", "--dataset", "Talk", "--quick",
            "--trace-out", str(trace), "--metrics-out", str(prom),
        ]) == 0
        script = Path(__file__).parent.parent / "scripts" / "validate_obs.py"
        result = subprocess.run(
            [_sys.executable, str(script), str(trace), str(prom)],
            capture_output=True, text=True,
        )
        assert result.returncode == 0, result.stderr

    def test_validate_obs_rejects_mass_in_inf(self, tmp_path, capsys):
        """Buckets in the wrong unit put the observations in +Inf."""
        import importlib.util
        from pathlib import Path

        from repro.obs import DEFAULT_COUNT_BUCKETS

        script = Path(__file__).parent.parent / "scripts" / "validate_obs.py"
        spec = importlib.util.spec_from_file_location("validate_obs", script)
        validate_obs = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(validate_obs)

        def dump(name, **histogram_args):
            registry = MetricsRegistry()
            for size in (0, 3, 900, 40_000):
                registry.histogram(
                    "frontier", "frontier size", model="INC", **histogram_args
                ).observe(float(size))
            path = tmp_path / name
            path.write_text(prometheus_text(registry))
            return path

        # Latency buckets stop at 10.0: two of four sizes are beyond it,
        # which is still at most half; a third tips it over.
        latency = dump("latency.prom")
        validate_obs.validate_prometheus(latency, required=())
        with open(latency, "a") as handle:
            handle.write(
                'frontier_bucket{model="FS",le="10.0"} 1\n'
                'frontier_bucket{model="FS",le="+Inf"} 3\n'
            )
        with pytest.raises(SystemExit):
            validate_obs.validate_prometheus(latency, required=())
        assert 'frontier{model="FS"} has 2 of 3' in capsys.readouterr().err
        # Count buckets hold every size a frontier can have.
        counts = dump("counts.prom", buckets=DEFAULT_COUNT_BUCKETS)
        validate_obs.validate_prometheus(counts, required=())
        assert 'le="+Inf"} 4' in counts.read_text()
        assert 'le="65536.0"} 4' in counts.read_text()

    def test_frontier_histogram_gets_one_observation_per_round(self):
        """The run kernels record a whole run in one call; the histogram
        must still see every round (every delta-stepping pass) of it, and
        every crossing is counted."""
        METRICS.enable()
        reference = ReferenceGraph(30, directed=True)
        batch = EdgeBatch.from_edges([(i + 1, i, 1.0) for i in range(29)])
        reference.update_collect(batch)
        runs = []
        for name in ("MC", "BFS", "SSSP"):
            algorithm = get_algorithm(name)
            runs.append(algorithm.fs_run(reference, source=29))
            runs.append(
                algorithm.inc_run(
                    reference, algorithm.make_state(30), np.arange(30), source=29
                )
            )
        families = {name: series for name, _, _, series in METRICS.families()}
        observed = {
            (labels["algorithm"], labels["model"]): histogram
            for labels, histogram in (
                (dict(labels), h) for labels, h in families["compute_frontier_size"]
            )
        }

        def frontier_sizes(run):
            """The round table's frontier column (INC pulls, FS pushes)."""
            column = "pulled" if run.model == "INC" else "pushed"
            return run.rounds[:, ROUND_COLUMNS.index(column)]

        # The Jacobi fixpoint pushes nothing: it has no frontier.
        frontier_runs = [run for run in runs if frontier_sizes(run).any()]
        for run in frontier_runs:
            histogram = observed[(run.algorithm, run.model)]
            assert len(run.iterations) > 1
            assert histogram.count == len(run.iterations), run.algorithm
            assert histogram.sum == frontier_sizes(run).sum(), run.algorithm
        assert {(r.algorithm, r.model) for r in frontier_runs} == {
            ("MC", "INC"), ("BFS", "INC"), ("BFS", "FS"), ("SSSP", "INC"), ("SSSP", "FS")
        }
        # One light and one heavy pass per vertex of the chain.
        assert observed[("SSSP", "FS")].count == 60
        if ckernels.get() is not None:
            # One native call per run: three INC runs, one FS relaxation,
            # one Jacobi fixpoint, one delta-stepping run.
            calls = "compute_kernel_calls_total"
            assert METRICS.value(calls, kernel="inc_run") == 3
            assert METRICS.value(calls, kernel="relax_run") == 1
            assert METRICS.value(calls, kernel="jacobi_run") == 1
            assert METRICS.value(calls, kernel="delta_run") == 1

    @pytest.mark.parametrize("engine", [None, "1"], ids=["compiled", "numpy"])
    def test_every_compute_run_opens_one_kernel_span(self, engine):
        """``compute.kernel`` once per run, FS and INC, all six algorithms
        -- the Jacobi fixpoint (CC, MC, PR under FS) used to open none."""
        from tests.conftest import native_env

        reference = ReferenceGraph(30, directed=True)
        reference.update_collect(
            EdgeBatch.from_edges([(i + 1, i, 1.0) for i in range(29)])
        )
        names = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")
        with native_env(engine):
            TRACER.enable()
            for name in names:
                algorithm = get_algorithm(name)
                algorithm.fs_run(reference, source=29)
                assert _rows(TRACER)["compute.kernel"][2] % 2 == 1, name
                algorithm.inc_run(
                    reference, algorithm.make_state(30), np.arange(30), source=29
                )
        assert _rows(TRACER)["compute.kernel"][2] == 2 * len(names)
        assert _rows(TRACER)["algorithms.fs"][2] == len(names)
        assert _rows(TRACER)["algorithms.inc"][2] == len(names)

    def test_frontier_histograms_use_count_buckets(self):
        """compute_frontier_size observes counts."""
        from repro.obs import DEFAULT_COUNT_BUCKETS

        METRICS.enable()
        config = StreamConfig(
            batch_size=500, structures=("AS",), algorithms=("BFS", "PR")
        )
        run_stream("RMAT", config, seed=0, size_factor=0.1, store=None)
        families = {
            name: series for name, _, _, series in METRICS.families()
            if name == "compute_frontier_size"
        }
        assert "compute_frontier_size" in families
        for name, series in families.items():
            for labels, histogram in series:
                assert histogram.buckets == DEFAULT_COUNT_BUCKETS, (name, labels)
                assert histogram.counts[-1] == 0, (name, labels)
