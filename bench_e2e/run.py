"""Run the benchmark: ``python3 -m bench_e2e.run [--workload NAME] [--seed N]``.

Closed loop, one client: every run is a fresh ``bench_e2e.worker``
process, started only after the previous one has exited.  Runs go in
rounds with the selected workloads interleaved inside each round, so a
slow period of a shared box hits all of them alike; rounds repeat until
``--seconds`` per workload are used up (at least ``MIN_ROUNDS``).
Timings are medians over the rounds, batch latencies are pooled.  With
``--trace 1`` each round also holds a traced run, from which the
per-layer table comes; end-to-end numbers always come from untraced runs.

With ``--workload`` the last line printed is the one-line JSON result
``BENCHMARK.json`` describes.  Exit code 0 means every output check
passed, 1 that one failed (the result is still printed), 2 that the
program could not be run as the benchmark requires (nothing is printed).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from bench_e2e import stats
from bench_e2e.workloads import WORKLOADS

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_ROUNDS = 3

#: Metrics printed beside the gated ones but absent from BENCHMARK.json:
#: ``run_s`` is edges_per_s upside down; ``run_raw_s`` and ``box_speed``
#: are what the clock and the probe read before scaling; ``batch_p90_ms``
#: exists only where the pooled sample supports it; ``fail_ratio`` is 0
#: on a correct run, and the contract's ``attempted``/``failed`` carry it.
INFORMATIONAL_UNITS = {
    "run_s": "s",
    "run_raw_s": "s",
    "box_speed": "ratio",
    "batch_p90_ms": "ms",
    "fail_ratio": "ratio",
}


#: Per-layer timings taken before the entry point is called.
SETUP_LAYERS = ("import.repro_s", "cbuild.load_s", "cbuild.compile_s")


class WorkerFailed(Exception):
    """A worker exited non-zero: the program did not run, nothing to report."""


def run_worker(name: str, seed: int = 0, trace: bool = False, smoke: bool = False) -> dict:
    """One fresh process; returns the record it printed."""
    command = [sys.executable, "-m", "bench_e2e.worker", name, "--seed", str(seed)]
    command += ["--trace"] * trace + ["--smoke"] * smoke
    command += ["--spawned-at", repr(time.monotonic())]
    done = subprocess.run(command, cwd=ROOT_DIR, capture_output=True, text=True)
    if done.returncode != 0:
        raise WorkerFailed(f"{' '.join(command)} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def measure(
    names: List[str], seed: int, seconds: float, trace: bool, smoke: bool
) -> Dict[str, List[dict]]:
    """Interleaved rounds over ``names`` until the time is used up."""
    records: Dict[str, List[dict]] = {name: [] for name in names}
    budget = seconds * len(names)
    began = time.monotonic()
    rounds = 0
    longest_round = 0.0
    while True:
        round_began = time.monotonic()
        for name in names:
            for traced in (False, True) if trace else (False,):
                records[name].append(run_worker(name, seed, traced, smoke))
        rounds += 1
        longest_round = max(longest_round, time.monotonic() - round_began)
        if smoke:
            break
        # Stop when another round would not fit in the budget.
        used = time.monotonic() - began
        if rounds >= MIN_ROUNDS and used + longest_round > budget:
            break
    return records


def end_to_end(records: List[dict]) -> Dict[str, dict]:
    """End-to-end metrics of one workload from its untraced runs.

    Host times are scaled by each run's ``speed_factor`` (see
    ``bench_e2e/probe.py``); ``run_raw_s`` and ``box_speed`` show what
    the clock and the probe actually read.
    """
    runs = [r for r in records if not r["traced"]]
    run_s = [r["run_s"] * r["speed_factor"] for r in runs]
    pooled = [ms * r["speed_factor"] for r in runs for ms in r["batch_ms"]]
    if not pooled:
        # profile_cell has no per-batch hook: host time per batch is the
        # cell's run time over its batch count, one sample per run.
        pooled = [s * 1e3 / r["batches"] for s, r in zip(run_s, runs)]
    metrics = {
        "edges_per_s": stats.summary([r["edges"] / s for s, r in zip(run_s, runs)]),
        "batch_p50_ms": stats.summary(pooled),
        "setup_s": stats.summary([r["setup_s"] * r["speed_factor"] for r in runs]),
        "peak_rss_mb": stats.summary([r["peak_rss_mb"] for r in runs]),
        "sim_batch_ms": stats.summary([r["sim_batch_ms"] for r in runs]),
        "run_s": stats.summary(run_s),
        "run_raw_s": stats.summary([r["run_s"] for r in runs]),
        "box_speed": stats.summary([r["speed_factor"] for r in runs]),
    }
    p90 = stats.percentile(pooled, 90.0)
    if p90 is not None:
        metrics["batch_p90_ms"] = {**stats.summary(pooled), "value": p90}
    return metrics


def layer_metrics(record: dict, untraced_run_s: float, compile_s: float) -> Dict[str, float]:
    """Per-layer metrics of one traced run, by their BENCHMARK.json names."""
    factor = record["speed_factor"]
    table = dict(record["layers"])
    root = table.pop("driver")
    run_s = record["run_s"] * factor
    metrics = {
        "import.repro_s": record["import_s"] * factor,
        "cbuild.load_s": record["kernel_load_s"] * factor,
        "cbuild.compile_s": compile_s,
        "datasets.bytes_mapped": record["bytes_mapped"],
    }
    for layer, row in table.items():
        metrics[f"{layer}_s"] = row["total_s"] * factor
        metrics[f"{layer}.calls"] = row["calls"]
    metrics["graph.ingest_self_s"] = table["graph.update"]["self_s"] * factor
    metrics["pricing.self_s"] = table["pricing.price"]["self_s"] * factor
    metrics.update(record["counts"])
    metrics["results.bytes"] = record["result_bytes"]
    metrics["run.traced_s"] = run_s
    metrics["driver.self_s"] = root["self_s"] * factor
    metrics["driver.self_share"] = root["self_s"] / record["run_s"]
    metrics["trace.overhead_ratio"] = run_s / untraced_run_s
    metrics["trace.spans"] = record["spans"]
    return metrics


def summarise(name: str, records: List[dict], compile_s: float) -> dict:
    """Everything reported for one workload, checks included."""
    first = records[0]
    failed = 0
    problems = []
    for index, record in enumerate(records):
        checks = list(record["failed_checks"])
        # Round 1 is the reference; a traced run that differs from it
        # means the wrappers perturbed the simulation.
        if record["sim_digest"] != first["sim_digest"]:
            checks.append(f"sim_digest {record['sim_digest'][:12]} != round 1's")
        if checks:
            failed += record["batches"]
            problems += [f"run {index}{' (traced)' if record['traced'] else ''}: {c}" for c in checks]
    attempted = sum(r["batches"] for r in records)
    report = {
        "workload": name,
        "why": WORKLOADS[name].why,
        "params": first["params"],
        "seed": first["seed"],
        "edges": first["edges"],
        "batches": first["batches"],
        "sim_digest": first["sim_digest"],
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end(records),
        # Raw, unscaled, per run: what the medians above were taken from.
        "runs": [{k: v for k, v in r.items() if k not in ("env", "params")} for r in records],
    }
    report["end_to_end"]["fail_ratio"] = {"value": failed / attempted, "n": attempted}
    traced = [r for r in records if r["traced"]]
    if traced:
        untraced_run_s = report["end_to_end"]["run_s"]["value"]
        per_run = [layer_metrics(r, untraced_run_s, compile_s) for r in traced]
        report["per_layer"] = {
            metric: stats.summary([run[metric] for run in per_run]) for metric in per_run[0]
        }
        report["conservation_gap_s"] = max(r["conservation_gap_s"] for r in traced)
    return report


# ---------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------


def _units(spec: dict) -> Dict[str, str]:
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    return {**INFORMATIONAL_UNITS, **listed}


def print_report(report: dict, units: Dict[str, str]) -> None:
    print(
        f"\n== {report['workload']}  seed {report['seed']}  {report['edges']} edges in "
        f"{report['batches']} batches  sim_digest {report['sim_digest'][:16]}"
    )
    print(f"   {report['why']}")
    layers = report.get("per_layer", {})
    rows = {**report["end_to_end"], **layers}
    print(f"   {'metric':<28}{'unit':<8}{'n':>5}{'median':>14}{'min':>14}{'max':>14}   of traced run")
    idle = []
    for metric, row in rows.items():
        if metric in layers and row["max"] == 0:
            idle.append(metric)
            continue
        span = f"{row['min']:>14.6g}{row['max']:>14.6g}" if "min" in row else " " * 28
        share = ""
        if metric in layers and units[metric] == "s" and metric not in SETUP_LAYERS:
            share = f"{row['value'] / layers['run.traced_s']['value']:>8.1%}"
        print(f"   {metric:<28}{units[metric]:<8}{row['n']:>5}{row['value']:>14.6g}{span}{share}")
    if idle:
        print(f"   zero on this workload: {' '.join(idle)}")
    if "batch_p90_ms" not in report["end_to_end"]:
        n = report["end_to_end"]["batch_p50_ms"]["n"]
        print(f"   batch_p90_ms refused: {n} pooled samples, 100 needed")
    for problem in report["problems"]:
        print(f"   FAILED {problem}")


def contract_line(report: dict, spec: dict, trace: bool) -> str:
    """The one-line result BENCHMARK.json promises for one workload."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    measured = report["per_layer"] if trace else report["end_to_end"]
    return json.dumps(
        {
            "correct": report["failed"] == 0,
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": {
                m["name"]: {"value": measured[m["name"]]["value"], "unit": m["unit"]}
                for m in listed
            },
        }
    )


def git_sha() -> Optional[str]:
    """HEAD of the checkout, or None where there is no git or no repository."""
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT_DIR, capture_output=True, text=True
        )
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


# ---------------------------------------------------------------------
# Self-agreement
# ---------------------------------------------------------------------


def selfcheck(sets: List[Dict[str, dict]], spec: dict) -> bool:
    """Do two sets of runs of the same code agree within the bounds?

    Timings may differ by their bound; the simulated metric, the digest
    and every count must repeat exactly.
    """
    agreed = True
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    units = _units(spec)
    for name in sets[0]:
        a, b = sets[0][name], sets[1][name]
        print(f"\n== {name}: set 2 against set 1")
        exact = {"sim_digest": (a["sim_digest"], b["sim_digest"])}
        exact["fail_ratio"] = (a["failed"], b["failed"])
        for metric, (bound, better) in bounds.items():
            before, after = a["end_to_end"][metric]["value"], b["end_to_end"][metric]["value"]
            if metric == "sim_batch_ms":
                exact[metric] = (before, after)
                continue
            worse = stats.worsening(before, after, better)
            ok = abs(worse) <= bound
            agreed &= ok
            print(
                f"   {metric:<28}{before:>14.6g}{after:>14.6g}  {worse:+8.2%} "
                f"(bound {bound:.0%}) {'ok' if ok else 'DISAGREE'}"
            )
        for metric, row in a["per_layer"].items():
            if units[metric] in ("count", "bytes"):
                exact[metric] = (row["value"], b["per_layer"][metric]["value"])
        differing = {m: pair for m, pair in exact.items() if pair[0] != pair[1]}
        agreed &= not differing
        print(f"   {len(exact) - len(differing)} of {len(exact)} exact values repeat")
        for metric, (before, after) in differing.items():
            print(f"   {metric:<28}{before!s:>14}{after!s:>14}  DISAGREE (must repeat exactly)")
    return agreed


def main(argv=None) -> int:
    spec = json.loads((ROOT_DIR / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=0, help="develop on 0; 7 is held out")
    parser.add_argument(
        "--seconds", type=float, default=spec["run_seconds"],
        help="measuring time per workload",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tenth-size, one traced round")
    parser.add_argument("--selfcheck", action="store_true", help="two sets, compared")
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(WORKLOADS)
    trace = bool(args.trace) or args.smoke or args.selfcheck

    try:
        # Untimed warm-up: compiles the three kernels once per checkout.
        warmup = run_worker("warmup")
        compile_s = warmup["kernel_load_s"]
        sets = []
        for _ in range(2 if args.selfcheck else 1):
            records = measure(names, args.seed, args.seconds, trace, args.smoke)
            sets.append({n: summarise(n, records[n], compile_s) for n in names})
    except WorkerFailed as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2

    units = _units(spec)
    reports = sets[-1]
    for report in reports.values():
        print_report(report, units)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "record.json").write_text(
        json.dumps({"git_sha": git_sha(), "env": warmup["env"], "workloads": reports}, indent=1)
    )
    correct = all(r["failed"] == 0 for s in sets for r in s.values())
    if args.selfcheck:
        correct &= selfcheck(sets, spec)
        print(f"\nselfcheck: {'agree' if correct else 'DISAGREE'}")
    if args.workload:
        print(contract_line(reports[args.workload], spec, bool(args.trace)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
