"""All four workloads end to end at smoke size; no timing assertions."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from bench_e2e import run
from bench_e2e.workloads import WORKLOADS, expected_final_edges

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args):
    return subprocess.run(
        [sys.executable, "-m", "bench_e2e.run", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )


@pytest.fixture(scope="module")
def smoke_record():
    done = _bench("--smoke")
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads((ROOT / "bench_e2e" / "out" / "record.json").read_text())


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
    assert SPEC["paths"] == ["bench_e2e"]
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_smoke_runs_all_four_workloads_correctly(smoke_record):
    assert list(smoke_record["workloads"]) == list(WORKLOADS)
    assert all(smoke_record["env"][k] for k in ("ccompute_loaded", "cingest_loaded", "ckernel_loaded"))
    for report in smoke_record["workloads"].values():
        assert report["failed"] == 0 and report["attempted"] >= 2, report["problems"]
        # Exact by construction but for the clock reads around the probe pauses.
        assert report["conservation_gap_s"] < 1e-3
        for metric in SPEC["end_to_end"]:
            assert report["end_to_end"][metric["name"]]["value"] > 0


def test_every_listed_layer_metric_is_emitted_and_no_other(smoke_record):
    listed = [m["name"] for m in SPEC["per_layer"]]
    for report in smoke_record["workloads"].values():
        assert list(report["per_layer"]) == listed


def test_layers_separate_the_workloads(smoke_record):
    def calls(workload, layer):
        return smoke_record["workloads"][workload]["per_layer"][f"{layer}.calls"]["value"]

    for name in WORKLOADS:
        hardware = name == "hwprofile-talk"
        churn = name == "churn-htail"
        assert (calls(name, "cache.replay") > 0) == hardware
        assert (calls(name, "graph.trace_traversal") > 0) == hardware
        assert (calls(name, "scheduler.ladder") > 0) == hardware
        assert (calls(name, "graph.delete") > 0) == churn
        assert (calls(name, "algorithms.inc_delete") > 0) == churn
    mapped = smoke_record["workloads"]["scale-oocore"]["per_layer"]["datasets.bytes_mapped"]
    assert mapped["value"] > 0


def test_contract_line_for_one_workload():
    for trace, listed in (("0", SPEC["end_to_end"]), ("1", SPEC["per_layer"])):
        done = _bench("--workload", "churn-htail", "--seed", "3", "--smoke", "--trace", trace)
        assert done.returncode == 0, done.stdout + done.stderr
        line = json.loads(done.stdout.splitlines()[-1])
        assert sorted(line) == ["attempted", "correct", "failed", "metrics"]
        assert line["correct"] is True and line["failed"] == 0 and line["attempted"] >= 1
        assert list(line["metrics"]) == [m["name"] for m in listed]
        assert all(line["metrics"][m["name"]]["unit"] == m["unit"] for m in listed)


def test_seed_reaches_the_stream_and_nothing_else_does():
    first = run.run_worker("matrix-rmat", seed=0, smoke=True)
    again = run.run_worker("matrix-rmat", seed=0, smoke=True)
    other = run.run_worker("matrix-rmat", seed=7, smoke=True)
    assert first["sim_digest"] == again["sim_digest"]
    assert first["sim_digest"] != other["sim_digest"]


def test_host_times_are_scaled_by_each_runs_speed_factor():
    # The same run seen on a box at full speed and at half speed.
    fast = {
        "traced": False, "speed_factor": 1.0, "run_s": 2.0, "setup_s": 0.5, "edges": 1000,
        "batches": 2, "batch_ms": [900.0, 1100.0], "peak_rss_mb": 80.0, "sim_batch_ms": 0.25,
    }
    slow = dict(fast, speed_factor=0.5, run_s=4.0, setup_s=1.0, batch_ms=[1800.0, 2200.0])
    metrics = run.end_to_end([fast, slow])
    for name, value in (("edges_per_s", 500.0), ("run_s", 2.0), ("setup_s", 0.5)):
        row = metrics[name]
        assert row["value"] == row["min"] == row["max"] == pytest.approx(value)
    assert metrics["batch_p50_ms"] == {"value": 1000.0, "min": 900.0, "max": 1100.0, "n": 4}
    assert metrics["run_raw_s"]["max"] == 4.0 and metrics["box_speed"]["min"] == 0.5
    assert metrics["peak_rss_mb"]["value"] == 80.0 and metrics["sim_batch_ms"]["value"] == 0.25
    assert "batch_p90_ms" not in metrics  # 4 pooled samples


def test_without_a_batch_hook_latency_is_run_time_over_batches():
    cell = {
        "traced": False, "speed_factor": 1.0, "run_s": 3.0, "setup_s": 0.4, "edges": 600,
        "batches": 5, "batch_ms": [], "peak_rss_mb": 70.0, "sim_batch_ms": 0.1,
    }
    assert run.end_to_end([cell])["batch_p50_ms"]["value"] == pytest.approx(600.0)


def test_a_changed_result_fails_every_batch_of_that_run():
    good = run.run_worker("scale-oocore", seed=0, smoke=True)
    bad = dict(good, sim_digest="0" * 64)
    report = run.summarise("scale-oocore", [good, bad], compile_s=0.0)
    assert report["failed"] == bad["batches"] and report["attempted"] == 2 * good["batches"]
    assert "sim_digest" in report["problems"][0]


@pytest.mark.parametrize("churn", [0.0, 0.25])
def test_independent_edge_count_agrees_with_a_set_replay(churn):
    rng = np.random.default_rng(11)
    src, dst = rng.integers(0, 12, size=(2, 400))  # dense: many duplicates
    order = np.random.default_rng(5).permutation(400)
    live = set()
    for start in range(0, 400, 64):
        batch = [(int(src[i]), int(dst[i])) for i in order[start : start + 64]]
        live |= set(batch)
        if churn:
            live -= set(batch[: max(1, int(len(batch) * churn))])
    assert expected_final_edges(src, dst, 12, 64, 5, churn) == len(live)
