"""Tests for the span-derived cost-model fitter (repro.obs.model).

The load-bearing guarantee: on the quick RMAT stream the per-group
affine fits ``T = setup + per_op * ops`` land within 15% median
relative error of the simulator for **every** (phase, structure,
algorithm, model) group, and the fitted model's predicted Table 3 --
the best (structure, model) per algorithm at the observed batch size --
matches what the simulation actually measured.  Plus the mechanical
contracts: degenerate fits, JSON persistence, schema refusal.
"""

import numpy as np
import pytest

from repro.engine import run_stream
from repro.errors import ConfigError
from repro.obs.features import FEATURES
from repro.obs.model import (
    MODEL_SCHEMA_VERSION,
    FittedCostModel,
    fit_cost_model,
    group_key,
)
from repro.streaming import StreamConfig

#: The quick fit workload: small enough for CI, rich enough that every
#: structure / algorithm / model group sees varied batches (churn makes
#: batch composition non-uniform, so ops actually varies per group).
DATASET = "RMAT"
SIZE_FACTOR = 0.25
BATCH_SIZE = 500
CHURN = 0.1

#: The acceptance bar for every fitted group.
MEDIAN_REL_ERR_BAR = 0.15


@pytest.fixture(scope="module")
def quick_fit():
    """One quick instrumented stream, shared by the module's tests."""
    FEATURES.reset()
    FEATURES.enable()
    try:
        config = StreamConfig(batch_size=BATCH_SIZE, churn_fraction=CHURN)
        result = run_stream(
            DATASET, config, seed=0, size_factor=SIZE_FACTOR, store=None
        )
        rows = FEATURES.rows()
    finally:
        FEATURES.disable()
        FEATURES.reset()
    model = fit_cost_model(
        rows,
        source={"dataset": DATASET, "batch_size": BATCH_SIZE},
    )
    return model, rows, result, config


def test_fit_covers_every_group(quick_fit):
    model, rows, _, config = quick_fit
    for structure in config.structures:
        assert ("update", structure, "", "") in model.groups
        for algorithm in config.algorithms:
            for cm in config.models:
                assert ("compute", structure, algorithm, cm) in model.groups
    # Nothing else leaked in.
    expected = len(config.structures) * (
        1 + len(config.algorithms) * len(config.models)
    )
    assert len(model.groups) == expected
    assert len(rows) > expected  # multiple batches per group


def test_every_group_fits_within_15_percent(quick_fit):
    model, _, _, _ = quick_fit
    worst = max(model.groups.values(), key=lambda g: g.median_rel_err)
    for fit in model.groups.values():
        assert fit.median_rel_err <= MEDIAN_REL_ERR_BAR, (
            f"{fit.key}: median rel err {fit.median_rel_err:.3f} "
            f"exceeds {MEDIAN_REL_ERR_BAR} (worst overall: {worst.key} "
            f"at {worst.median_rel_err:.3f})"
        )
        assert fit.samples >= 2
        assert np.isfinite(fit.setup) and np.isfinite(fit.per_op)


def test_predicted_table3_matches_observed(quick_fit):
    """The model's argmin per algorithm equals the simulated argmin."""
    model, _, result, config = quick_fit
    for algorithm in config.algorithms:
        observed_best = None
        for structure in config.structures:
            for cm in config.models:
                latency = float(
                    np.mean(result.batch_latency(algorithm, cm, structure)[0])
                )
                if observed_best is None or latency < observed_best[2]:
                    observed_best = (structure, cm, latency)
        # The fitted Table 3 cell: update + compute extrapolated to
        # the batch size, minimised over (structure, model).
        predicted, structure, cm = min(
            (
                model.groups[group_key("update", s)].predict_batch(BATCH_SIZE)
                + fit.predict_batch(BATCH_SIZE),
                s,
                m,
            )
            for (phase, s, alg, m), fit in model.groups.items()
            if phase == "compute" and alg == algorithm
        )
        assert (structure, cm) == observed_best[:2], (
            f"{algorithm}: model predicts {(structure, cm)}, "
            f"simulation measured {observed_best[:2]}"
        )
        # The predicted latency is in the observed ballpark too.
        assert predicted == pytest.approx(observed_best[2], rel=0.5)


def test_json_roundtrip(tmp_path, quick_fit):
    model, _, _, _ = quick_fit
    path = tmp_path / "cost_model.json"
    model.save(path)
    loaded = FittedCostModel.load(path)
    assert loaded.diagnostics() == model.diagnostics()
    assert loaded.source == model.source
    for key, fit in model.groups.items():
        assert loaded.groups[key].predict(1e6) == pytest.approx(fit.predict(1e6))


def test_schema_mismatch_refused():
    with pytest.raises(ConfigError):
        FittedCostModel.from_json({"schema": MODEL_SCHEMA_VERSION + 1, "groups": []})


def test_degenerate_groups():
    # One sample: skipped entirely (cannot separate setup from slope).
    single = fit_cost_model(
        [{"phase": "update", "structure": "AS", "t_seconds": 1.0,
          "ops": 10.0, "batch_edges": 10.0}]
    )
    assert not single.groups
    # Constant ops: all cost lands in setup, slope is zero.
    rows = [
        {"phase": "update", "structure": "AS", "t_seconds": t,
         "ops": 50.0, "batch_edges": 25.0}
        for t in (1.0, 3.0)
    ]
    flat = fit_cost_model(rows)
    fit = flat.groups[group_key("update", "AS")]
    assert fit.per_op == 0.0
    assert fit.setup == pytest.approx(2.0)
    assert fit.ops_per_edge == pytest.approx(2.0)


def test_exact_linear_data_recovered():
    rows = [
        {"phase": "compute", "structure": "AC", "algorithm": "PR",
         "model": "INC", "t_seconds": 0.5 + 2e-6 * ops, "ops": float(ops),
         "batch_edges": float(ops) / 4}
        for ops in (1000, 2000, 5000, 10000)
    ]
    model = fit_cost_model(rows)
    fit = model.groups[group_key("compute", "AC", "PR", "INC")]
    assert fit.setup == pytest.approx(0.5, rel=1e-6)
    assert fit.per_op == pytest.approx(2e-6, rel=1e-6)
    assert fit.median_rel_err < 1e-9
    assert fit.r2 == pytest.approx(1.0)
    # predict_batch extrapolates through ops_per_edge (= 4 ops/edge).
    assert fit.predict_batch(1000) == pytest.approx(0.5 + 2e-6 * 4000)


def test_schema_mismatch_message_says_how_to_refit():
    with pytest.raises(ConfigError, match="re-fit the model"):
        FittedCostModel.from_json(
            {"schema": MODEL_SCHEMA_VERSION + 1, "groups": []}
        )


def test_compute_rows_equal_a_gather_per_iteration(monkeypatch):
    """Rounds that share log entries (Jacobi FS) and the prefix-mass
    differences change no row."""
    from repro.streaming import driver

    ops_columns = ("pull_vertices", "push_vertices", "pull_degree", "push_degree")
    expected = []
    repeated = []
    decompose = driver._run_ops_decomposition

    def recording(runs, deg_in, deg_out, num_nodes, cost):
        counts = dict.fromkeys(ops_columns, 0)
        for run in runs:
            offsets = run.rounds[:, 0].tolist()
            repeated.append(len(set(offsets)) < len(offsets))
            for it in run.iterations:
                counts["pull_vertices"] += len(it.pull_vertices)
                counts["push_vertices"] += len(it.push_vertices)
                counts["pull_degree"] += int(deg_in[it.pull_vertices].sum())
                counts["push_degree"] += int(deg_out[it.push_vertices].sum())
        expected.append(counts)
        return decompose(runs, deg_in, deg_out, num_nodes, cost)

    monkeypatch.setattr(driver, "_run_ops_decomposition", recording)
    config = StreamConfig(
        batch_size=BATCH_SIZE, algorithms=("BFS", "CC", "PR"), churn_fraction=CHURN
    )
    FEATURES.reset()
    FEATURES.enable()
    try:
        run_stream(DATASET, config, seed=0, size_factor=0.1, store=None)
        rows = FEATURES.rows("compute")
    finally:
        FEATURES.disable()
        FEATURES.reset()
    # Both kinds of run were seen, and each decomposition fans out to
    # one feature row per structure.
    assert any(repeated) and not all(repeated)
    assert len(rows) == len(expected) * len(config.structures)
    for i, row in enumerate(rows):
        counts = expected[i // len(config.structures)]
        assert {name: row[name] for name in ops_columns} == counts
