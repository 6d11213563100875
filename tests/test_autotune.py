"""Tests for the online auto-tuner (repro.streaming.autotune).

Covers the online least-squares update law (affine recovery, decay),
the controller policy at the tuner's constants (cold-start
exploration, hysteresis, cooldown, forced plans), the update-sample
file (a replay reproduces the fits, other schemas are refused), the
adaptive driver's differential contract against static runs, the
schedule-aware batching it rides on, and the CLI surface (warm start
through ``--model-in``, ``--model-out``).
"""

import json
import math

import numpy as np
import pytest

from repro.cli import main
from repro.datasets import load_dataset
from repro.errors import ConfigError, DatasetError
from repro.graph import EdgeBatch
from repro.streaming import (
    AdaptiveController,
    AdaptiveStreamDriver,
    StreamConfig,
    StreamDriver,
    batch_count,
    make_batches,
    make_driver,
)
from repro.streaming.autotune import (
    SAMPLES_SCHEMA,
    OnlineUpdateFit,
    adaptive_total_seconds,
    load_samples,
    oracle_total_seconds,
    save_samples,
    static_combo_totals,
)

STRUCTURES = ("AS", "AC", "Stinger", "DAH", "BA")


class TestOnlineUpdateFit:
    def test_unknown_without_observations(self):
        assert OnlineUpdateFit().predict(100.0) is None

    def test_recovers_affine_law(self):
        fit = OnlineUpdateFit()
        for ops in (100.0, 300.0, 700.0, 1500.0):
            fit.observe(ops, 2.0 + 0.01 * ops)
        assert fit.predict(1000.0) == pytest.approx(12.0, rel=1e-6)

    def test_single_sample_proportional(self):
        fit = OnlineUpdateFit()
        fit.observe(500.0, 5.0)
        assert fit.predict(1000.0) == pytest.approx(10.0)

    def test_decay_forgets_old_regimes(self):
        fit = OnlineUpdateFit()
        for ops in (100.0, 200.0):
            fit.observe(ops, 1.0 * ops)
        for ops in (100.0, 200.0, 150.0, 250.0):
            fit.observe(ops, 10.0 * ops)
        assert fit.predict(100.0) > 500.0


def _controller(warm=()):
    return AdaptiveController(
        structures=("AS", "DAH"),
        models=("FS", "INC"),
        algorithms=("BFS",),
        warm_samples=warm,
    )


def _teach(controller, cheap="AS", dear="DAH", factor=10.0):
    """Feed consistent observations making ``cheap`` clearly best."""
    for ops in (100.0, 200.0, 400.0):
        controller.observe_update(cheap, ops, 1e-6 * ops)
        controller.observe_update(dear, ops, factor * 1e-6 * ops)
        for model in ("FS", "INC"):
            controller.observe_compute(cheap, "BFS", model, 1e-6 * ops)
            controller.observe_compute(dear, "BFS", model, factor * 1e-6 * ops)


class TestControllerPolicy:
    def test_cold_start_builds_explore_plan(self):
        controller = _controller()
        assert controller._explore_plan == ["AS", "AS", "DAH", "DAH"]

    def test_exploration_sequence(self):
        controller = _controller()
        first = controller.decide(0, 10, 100, live=None, live_edges=0)
        assert first.reason == "start" and first.structure == "AS"
        later = [
            controller.decide(i, 10, 100, live=live, live_edges=100)
            for i, live in ((1, "AS"), (2, "AS"), (3, "DAH"))
        ]
        assert [(d.reason, d.structure) for d in later] == [
            ("explore", "AS"), ("explore", "DAH"), ("explore", "DAH")
        ]

    def test_stays_on_best(self):
        controller = _controller()
        controller._batches_seen = 99  # past exploration
        _teach(controller)
        decision = controller.decide(5, 100, 200, live="AS", live_edges=1000)
        assert decision.reason == "stay" and decision.structure == "AS"

    def test_switches_when_savings_beat_migration(self):
        controller = _controller()
        controller._batches_seen = 99
        _teach(controller)
        decision = controller.decide(5, 100, 200, live="DAH", live_edges=1000)
        assert decision.reason == "switch" and decision.structure == "AS"
        assert decision.migration_estimate_seconds > 0.0
        assert controller.switches == 1

    def test_holds_when_migration_too_dear(self):
        # Last batch of the stream, so a horizon of 1 batch: a tiny
        # per-batch gain cannot amortize migrating a large structure.
        controller = _controller()
        controller._batches_seen = 99
        _teach(controller, factor=1.05)
        decision = controller.decide(
            99, 100, 200, live="DAH", live_edges=10_000_000
        )
        assert decision.reason == "hold" and decision.structure == "DAH"

    def test_cooldown_blocks_thrashing(self):
        controller = _controller()
        controller._batches_seen = 99
        _teach(controller)
        controller._last_switch = 4
        decision = controller.decide(5, 100, 200, live="DAH", live_edges=100)
        assert decision.reason == "cooldown" and decision.structure == "DAH"
        later = controller.decide(6, 100, 200, live="DAH", live_edges=100)
        assert later.reason == "switch"

    def test_forced_plan_wins(self):
        controller = _controller()
        controller.forced_plan[0] = "DAH"
        decision = controller.decide(0, 10, 100, live=None, live_edges=0)
        assert decision.reason == "forced" and decision.structure == "DAH"

    def test_warm_model_skips_exploration(self):
        controller = _controller(warm=[("AS", 100.0, 1e-4), ("DAH", 100.0, 2e-4)])
        assert controller._explore_plan == []
        # One structure without a sample still needs the exploration.
        assert _controller(warm=[("AS", 100.0, 1e-4)])._explore_plan

    def test_compute_forecast_is_an_ewma_of_priced_seconds(self):
        controller = _controller()
        for seconds in (4.0, 2.0, 1.0):
            controller.observe_compute("AS", "BFS", "INC", seconds)
        # 4 -> 0.5 * 2 + 0.5 * 4 = 3 -> 0.5 * 1 + 0.5 * 3 = 2.
        assert controller.compute_forecast[("AS", "BFS", "INC")] == 2.0

    def test_per_algorithm_model_freedom(self):
        controller = _controller()
        controller._batches_seen = 99
        for ops in (100.0, 200.0, 400.0):
            controller.observe_update("AS", ops, 1e-6 * ops)
            controller.observe_update("DAH", ops, 1e-5 * ops)
            controller.observe_compute("AS", "BFS", "FS", 1e-7 * ops)
            controller.observe_compute("AS", "BFS", "INC", 1e-5 * ops)
            controller.observe_compute("DAH", "BFS", "FS", 1e-7 * ops)
            controller.observe_compute("DAH", "BFS", "INC", 1e-5 * ops)
        decision = controller.decide(5, 100, 200, live="AS", live_edges=100)
        assert decision.models == {"BFS": "FS"}

    def test_regret_accounting(self):
        controller = _controller()
        _teach(controller)
        decision = controller.decide(0, 10, 200, live=None, live_edges=0)
        entry = controller.complete_batch(
            decision,
            update_ops=200.0,
            update_seconds=5e-4,
            migration_seconds=0.0,
            compute_actual={
                ("AS", "BFS", "FS"): 1e-4,
                ("AS", "BFS", "INC"): 2e-4,
                ("DAH", "BFS", "FS"): 1e-3,
                ("DAH", "BFS", "INC"): 2e-3,
            },
        )
        assert entry["actual_seconds"] == pytest.approx(5e-4 + 1e-4)
        assert entry["est_regret_seconds"] >= 0.0
        summary = controller.summary()
        assert summary["batches"] == 1
        assert summary["actual_seconds"] == pytest.approx(6e-4)


class TestUpdateSampleFile:
    def test_replay_reproduces_the_fits_bit_for_bit(self, tmp_path):
        controller = _controller()
        for ops in (100.0, 250.0, 700.0):
            controller.observe_update("AS", ops, ops / 3e6)
            controller.observe_update("DAH", ops, ops / 7e5)
        controller.note_migration("AS", 1234, 0.1 / 3)
        path = tmp_path / "samples.json"
        save_samples(path, controller.samples)
        replayed = _controller(warm=load_samples(path))
        assert replayed.samples == controller.samples
        assert replayed.fits.keys() == controller.fits.keys()
        for structure, fit in controller.fits.items():
            assert vars(replayed.fits[structure]) == vars(fit), structure

    def test_another_schema_is_refused_by_name(self, tmp_path):
        path = tmp_path / "old.json"
        path.write_text(json.dumps({"schema": 1, "groups": []}))
        with pytest.raises(ConfigError, match="schema 1 unsupported"):
            load_samples(path)
        assert SAMPLES_SCHEMA != 1


class TestAdaptiveConfigValidation:
    def test_both_sentinels_required(self):
        with pytest.raises(ConfigError):
            StreamConfig(structures=("adaptive",), models=("FS",))
        with pytest.raises(ConfigError):
            StreamConfig(structures=("AS",), models=("adaptive",))

    def test_unknown_candidates_rejected(self):
        with pytest.raises(ConfigError):
            StreamConfig(
                structures=("adaptive",),
                models=("adaptive",),
                candidate_structures=("AS", "BTree"),
            )
        with pytest.raises(ConfigError):
            StreamConfig(
                structures=("adaptive",),
                models=("adaptive",),
                candidate_models=("FS", "APPROX"),
            )

    def test_static_config_rejects_candidate_fields(self):
        with pytest.raises(ConfigError):
            StreamConfig(structures=("AS",), candidate_structures=("AS",))

    def test_driver_requires_adaptive_config(self):
        with pytest.raises(ConfigError):
            AdaptiveStreamDriver(StreamConfig(structures=("AS",)))

    def test_make_driver_picks_the_driver_the_config_names(self):
        assert type(make_driver(StreamConfig())) is StreamDriver
        adaptive = StreamConfig(structures=("adaptive",), models=("adaptive",))
        assert type(make_driver(adaptive)) is AdaptiveStreamDriver

    def test_batch_schedule_validation(self):
        with pytest.raises(ConfigError):
            StreamConfig(batch_schedule=())
        with pytest.raises(ConfigError):
            StreamConfig(batch_schedule=(100, 0))


class TestBatchSchedule:
    def test_batch_count_cycles_schedule(self):
        assert batch_count(100, 10) == 10
        assert batch_count(100, 10, schedule=(30, 20)) == 4
        assert batch_count(105, 10, schedule=(30, 20)) == 5
        assert batch_count(0, 10, schedule=(30, 20)) == 0

    def test_size_of_and_getitem(self):
        edges = EdgeBatch.from_edges([(i, i + 1) for i in range(100)])
        batches = make_batches(
            edges, batch_size=10, shuffle=False, schedule=(30, 20)
        )
        assert len(batches) == 4
        assert [len(batches[i]) for i in range(len(batches))] == [30, 20, 30, 20]

    def test_schedule_tail_batch(self):
        edges = EdgeBatch.from_edges([(i, i + 1) for i in range(75)])
        batches = make_batches(
            edges, batch_size=10, shuffle=False, schedule=(30, 20)
        )
        assert [len(b) for b in batches] == [30, 20, 25]

    def test_schedule_preserves_multiset(self):
        edges = EdgeBatch.from_edges([(i, i + 1) for i in range(60)])
        batches = make_batches(edges, 10, shuffle_seed=3, schedule=(25, 10))
        seen = sorted(
            (int(s), int(d)) for b in batches for s, d in zip(b.src, b.dst)
        )
        assert seen == sorted((i, i + 1) for i in range(60))

    def test_invalid_schedule_rejected(self):
        edges = EdgeBatch.from_edges([(0, 1)])
        with pytest.raises(DatasetError):
            make_batches(edges, 10, schedule=(0,))


DATASET = "Talk"
SIZE_FACTOR = 0.1
BATCH_SIZE = 500


class TestAdaptiveDifferential:
    """The gating contract: adaptive == static on algorithm results."""

    @pytest.fixture(scope="class")
    def runs(self):
        dataset = load_dataset(DATASET, size_factor=SIZE_FACTOR)
        common = dict(
            batch_size=BATCH_SIZE,
            algorithms=("BFS", "PR"),
            churn_fraction=0.1,
        )
        static = StreamDriver(
            StreamConfig(
                structures=STRUCTURES, models=("FS", "INC"), **common
            )
        ).run(dataset)
        driver = AdaptiveStreamDriver(
            StreamConfig(
                structures=("adaptive",), models=("adaptive",), **common
            )
        )
        adaptive = driver.run(dataset)
        return static, adaptive, driver

    def test_algorithm_results_bit_identical(self, runs):
        static, adaptive, driver = runs
        assert np.array_equal(
            adaptive.edges_inserted, static.edges_inserted
        )
        for entry in driver.decision_log["decisions"]:
            batch = entry["batch"]
            s_idx = static.structures.index(entry["structure"])
            for a_idx, algorithm in enumerate(static.algorithms):
                m_idx = static.models.index(entry["models"][algorithm])
                assert (
                    adaptive.compute_cycles[0, batch, a_idx, 0, 0]
                    == static.compute_cycles[0, batch, a_idx, m_idx, s_idx]
                )
                assert (
                    adaptive.compute_iterations[0, batch, a_idx, 0]
                    == static.compute_iterations[0, batch, a_idx, m_idx]
                )

    def test_decision_log_covers_every_batch(self, runs):
        static, adaptive, driver = runs
        decisions = driver.decision_log["decisions"]
        assert len(decisions) == adaptive.batches_per_rep
        assert driver.decision_log["summary"]["batches"] == len(decisions)

    def test_totals_are_consistent(self, runs):
        static, adaptive, driver = runs
        total = adaptive_total_seconds(adaptive)
        logged = sum(
            e["actual_seconds"] + e["migration_seconds"]
            for e in driver.decision_log["decisions"]
        )
        assert total == pytest.approx(logged, rel=1e-9)
        combos = static_combo_totals(static)
        assert len(combos) == len(STRUCTURES) * 2
        oracle = oracle_total_seconds(static)
        assert oracle <= min(combos.values()) + 1e-12
        assert all(math.isfinite(v) and v > 0 for v in combos.values())


class TestAdaptiveCLI:
    def test_autotune_subcommand(self, capsys):
        code = main(
            [
                "autotune",
                "--dataset", "Talk",
                "--size-factor", "0.08",
                "--batch-size", "400",
                "--algorithms", "BFS",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "adaptive total" in out
        assert "structure" in out

    def test_autotune_with_schedule_and_compare(self, capsys):
        code = main(
            [
                "autotune",
                "--dataset", "Talk",
                "--size-factor", "0.08",
                "--batch-size", "400",
                "--batch-schedule", "300,600",
                "--algorithms", "BFS",
                "--compare",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "oracle" in out
        assert "vs median static" in out

    def test_model_out_is_written_once(self, tmp_path, capsys):
        model = tmp_path / "model.json"
        code = main(
            [
                "autotune",
                "--dataset", "Talk",
                "--size-factor", "0.05",
                "--batch-size", "400",
                "--algorithms", "BFS",
                "--report-out", str(tmp_path / "report.html"),
                "--model-out", str(model),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.count(f"[update samples written to {model}]") == 1
        assert load_samples(model)

    def test_warm_start_round_trip(self, tmp_path, capsys):
        """The update samples ``autotune --model-out`` saves teach every
        candidate's update law, so ``--model-in`` skips the cold-start
        exploration."""
        model = tmp_path / "model.json"
        cold = [
            "autotune",
            "--size-factor", "0.05",
            "--algorithms", "BFS",
            "--model-out", str(model),
        ]
        assert main(cold) == 0
        capsys.readouterr()
        code = main(
            [
                "autotune",
                "--size-factor", "0.05",
                "--algorithms", "BFS",
                "--model-in", str(model),
            ]
        )
        assert code == 0
        rows = [
            line.split()
            for line in capsys.readouterr().out.splitlines()
            if line.split() and line.split()[0].isdigit()
        ]
        assert rows[0][0] == "0" and rows[0][3] == "start"
        assert all(row[3] != "explore" for row in rows)
