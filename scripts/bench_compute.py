"""Microbenchmark: vectorized compute kernels vs the legacy engines.

Replays the quick-mode RMAT stream -- batched inserts with churn-style
deletions -- through the compute phase only (the reference graph and
the driver's incidence buffer are maintained outside the timers), and
times every algorithm under both compute models on both paths:

- the legacy path (``SAGA_BENCH_LEGACY_COMPUTE=1``): per-vertex Python
  loops (Algorithm 1 queue engine, frontier relaxation, delta-stepping);
- the kernel path (default): an incrementally-maintained CSR view per
  batch (:mod:`repro.compute.csrstore`) plus the frontier kernels of
  :mod:`repro.compute.kernels`, compiled to C when a compiler is
  available (``SAGA_BENCH_NO_CCOMPUTE=1`` pins the numpy twins; the
  written payload records which ran under ``ckernel_loaded``).

Both paths are checked bit-identical while being timed (value-array
bytes and every per-iteration operation count are folded into a digest
per algorithm x model), then per-algorithm times and speedups are
written to ``BENCH_compute.json``.  Each path runs ``--repeat`` cold
repetitions (fresh graph, fresh states) alternating with the other,
and the minimum per path is reported.

The kernel path's per-batch CSR build is shared by all algorithm x
model runs, exactly as the streaming driver shares it; its time is
reported separately and amortized evenly across the algorithms when
computing per-algorithm speedups.

Usage::

    PYTHONPATH=src python scripts/bench_compute.py
    PYTHONPATH=src python scripts/bench_compute.py --min-speedup 2.0

``--min-speedup`` makes the script exit non-zero when fewer than four
algorithms reach the threshold (the repo's acceptance bar is 2x on at
least four of the six); by default the script only reports.  A
developer tool, not part of the library.
"""

import argparse
import hashlib
import json
import os
import platform
import sys
import time

import numpy as np

from repro.algorithms import get_algorithm
from repro.bench.harness import (
    DEFAULT_HISTORY,
    alternating_runs,
    append_history,
    batches_of,
    record_from_bench_json,
)
from repro.compute import ckernels
from repro.compute.kernels import LEGACY_COMPUTE_ENV, view_scope
from repro.datasets import load_dataset
from repro.graph import ReferenceGraph
from repro.obs import METRICS

#: The quick-mode compute workload (same stream as bench_kernels).
DATASET = "RMAT"
SIZE_FACTOR = 0.5
BATCH_SIZE = 1250
CHURN_FRACTION = 0.2
ALGORITHM_NAMES = ("BFS", "CC", "MC", "PR", "SSSP", "SSWP")
MODELS = ("FS", "INC")


def _feed(digest, run) -> None:
    """Fold everything bit-identity covers into ``digest``."""
    digest.update(run.values.tobytes())
    digest.update(np.int64(run.linear_scans).tobytes())
    digest.update(b"1" if run.converged else b"0")
    for it in run.iterations:
        digest.update(it.pull_vertices.tobytes())
        digest.update(it.push_vertices.tobytes())
        digest.update(np.int64(it.pushes).tobytes())
        digest.update(np.int64(it.cas_ops).tobytes())


def _native_calls() -> int:
    """Native compute-kernel calls so far (0 while metrics are off)."""
    return int(METRICS.total("compute_kernel_calls_total"))


def run_path(batches, max_nodes, directed, source, legacy):
    """Replay the stream's compute phase on one path.

    Returns per-(algorithm, model) seconds, the shared per-batch view
    build time, per-(algorithm, model) digests of every run's values
    and operation counts, and per-(algorithm, model) crossing counts:
    runs, rounds, and -- when metrics are enabled -- native kernel
    calls (``compute_kernel_calls_total``).
    """
    if legacy:
        os.environ[LEGACY_COMPUTE_ENV] = "1"
    else:
        os.environ.pop(LEGACY_COMPUTE_ENV, None)
    reference = ReferenceGraph(max_nodes, directed=directed)
    states = {
        name: get_algorithm(name).make_state(max_nodes)
        for name in ALGORITHM_NAMES
    }
    seconds = {(a, m): 0.0 for a in ALGORITHM_NAMES for m in MODELS}
    digests = {
        (a, m): hashlib.sha256() for a in ALGORITHM_NAMES for m in MODELS
    }
    crossings = {
        (a, m): {"runs": 0, "rounds": 0, "native_calls": 0}
        for a in ALGORITHM_NAMES
        for m in MODELS
    }
    view_seconds = 0.0
    for batch in batches:
        reference.update_collect(batch)
        victims = batch.slice(0, max(1, int(len(batch) * CHURN_FRACTION)))
        removed = reference.delete_collect(victims)
        # The live graph folds the batch's kept rows into its CSR pair
        # on this first read; both paths read that one adjacency.
        started = time.perf_counter()
        compute_view = reference.compute_view()
        view_seconds += time.perf_counter() - started
        with view_scope(reference, compute_view):
            for alg_name in ALGORITHM_NAMES:
                algorithm = get_algorithm(alg_name)
                calls_before = _native_calls()
                started = time.perf_counter()
                fs_run = algorithm.fs_run(reference, source=source)
                seconds[(alg_name, "FS")] += time.perf_counter() - started
                calls_between = _native_calls()
                started = time.perf_counter()
                affected = algorithm.affected_from_batch(batch, reference)
                runs = [
                    algorithm.inc_run(
                        reference, states[alg_name], affected, source=source
                    )
                ]
                if removed:
                    runs.append(
                        algorithm.inc_delete_run(
                            reference, states[alg_name], removed, source=source
                        )
                    )
                seconds[(alg_name, "INC")] += time.perf_counter() - started
                calls_after = _native_calls()
                _feed(digests[(alg_name, "FS")], fs_run)
                for run in runs:
                    _feed(digests[(alg_name, "INC")], run)
                for model, model_runs, calls in (
                    ("FS", [fs_run], calls_between - calls_before),
                    ("INC", runs, calls_after - calls_between),
                ):
                    row = crossings[(alg_name, model)]
                    row["runs"] += len(model_runs)
                    row["rounds"] += sum(
                        run.frontier_rounds or run.iteration_count
                        for run in model_runs
                    )
                    row["native_calls"] += calls
    return {
        "seconds": seconds,
        "view_seconds": view_seconds,
        "digests": {key: digest.hexdigest() for key, digest in digests.items()},
        "crossings": crossings,
    }


def bench(batches, max_nodes, directed, source, repeat):
    """Both paths, ``repeat`` cold alternating repetitions, min-of each."""
    runs = alternating_runs(
        {
            "legacy": lambda: run_path(
                batches, max_nodes, directed, source, legacy=True
            ),
            "kernel": lambda: run_path(
                batches, max_nodes, directed, source, legacy=False
            ),
        },
        repeat,
    )
    legacy_runs, kernel_runs = runs["legacy"], runs["kernel"]
    for runs, label in ((legacy_runs, "legacy"), (kernel_runs, "kernel")):
        for run in runs:
            if run["digests"] != runs[0]["digests"]:
                raise SystemExit(f"{label} repetitions diverge (non-deterministic)")
    if legacy_runs[0]["digests"] != kernel_runs[0]["digests"]:
        bad = [
            f"{alg}/{model}"
            for (alg, model), digest in kernel_runs[0]["digests"].items()
            if legacy_runs[0]["digests"][(alg, model)] != digest
        ]
        raise SystemExit(f"kernel results diverge from legacy: {sorted(bad)}")

    def best(runs):
        seconds = {
            key: min(run["seconds"][key] for run in runs)
            for key in runs[0]["seconds"]
        }
        return seconds, min(run["view_seconds"] for run in runs)

    legacy_seconds, _ = best(legacy_runs)
    kernel_seconds, view_seconds = best(kernel_runs)
    view_share = view_seconds / len(ALGORITHM_NAMES)
    rows = []
    for alg_name in ALGORITHM_NAMES:
        legacy_total = sum(legacy_seconds[(alg_name, m)] for m in MODELS)
        kernel_total = (
            sum(kernel_seconds[(alg_name, m)] for m in MODELS) + view_share
        )
        speedup = legacy_total / kernel_total if kernel_total else 0.0
        row = {
            "algorithm": alg_name,
            "legacy_seconds": round(legacy_total, 4),
            "kernel_seconds": round(kernel_total, 4),
            "speedup": round(speedup, 2),
            "models": {
                model: {
                    "legacy_seconds": round(legacy_seconds[(alg_name, model)], 4),
                    "kernel_seconds": round(kernel_seconds[(alg_name, model)], 4),
                }
                for model in MODELS
            },
        }
        rows.append(row)
        print(
            f"{alg_name:5s} legacy {legacy_total:6.2f}s  "
            f"kernel {kernel_total:6.2f}s  "
            f"speedup {speedup:5.2f}x  bit-identical"
        )
    return rows, legacy_seconds, kernel_seconds, view_seconds


def collect_metrics(batches, max_nodes, directed, source):
    """Metrics snapshot of one kernel-path pass over the workload.

    Runs separately from the timed repetitions (those execute with
    observability disabled); the snapshot documents the workload --
    including the ``compute_frontier_size`` histogram the kernels
    observe per algorithm and model.  Also returns the pass's
    per-(algorithm, model) crossing counts, native calls included.
    """
    os.environ.pop(LEGACY_COMPUTE_ENV, None)
    was_enabled = METRICS.enabled
    METRICS.reset()
    METRICS.enable()
    try:
        crossings = run_path(batches, max_nodes, directed, source, legacy=False)[
            "crossings"
        ]
        return METRICS.snapshot(), crossings
    finally:
        METRICS.enabled = was_enabled
        METRICS.reset()


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--output", default="BENCH_compute.json", help="result file path"
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=0.0,
        help="fail (exit 1) unless at least four algorithms reach this factor",
    )
    parser.add_argument(
        "--repeat",
        type=int,
        default=3,
        help="cold repetitions per path; the minimum time is reported",
    )
    parser.add_argument(
        "--history",
        default=DEFAULT_HISTORY,
        help="append a history record here ('' disables)",
    )
    args = parser.parse_args(argv)

    dataset = load_dataset(DATASET, seed=0, size_factor=SIZE_FACTOR)
    batches = batches_of(dataset, BATCH_SIZE)
    source = int(np.bincount(dataset.edges.src).argmax())
    print(
        f"{DATASET} x{SIZE_FACTOR}: {len(dataset.edges)} edges, "
        f"{len(batches)} batches of {BATCH_SIZE}, "
        f"churn {CHURN_FRACTION}, source {source}"
    )
    rows, legacy_seconds, kernel_seconds, view_seconds = bench(
        batches, dataset.max_nodes, dataset.directed, source, args.repeat
    )
    metrics, crossings = collect_metrics(
        batches, dataset.max_nodes, dataset.directed, source
    )
    for row in rows:
        for model, cell in row["models"].items():
            counts = crossings[(row["algorithm"], model)]
            cell["runs"] = counts["runs"]
            cell["rounds_per_run"] = round(counts["rounds"] / counts["runs"], 2)
            cell["native_calls_per_run"] = round(
                counts["native_calls"] / counts["runs"], 2
            )
    legacy_total = sum(legacy_seconds.values())
    kernel_total = sum(kernel_seconds.values()) + view_seconds
    overall = legacy_total / kernel_total if kernel_total else 0.0
    print(
        f"overall  legacy {legacy_total:.2f}s  kernel {kernel_total:.2f}s "
        f"(incl. {view_seconds:.2f}s shared CSR builds)  "
        f"speedup {overall:.2f}x"
    )
    payload = {
        "workload": {
            "dataset": DATASET,
            "size_factor": SIZE_FACTOR,
            "batch_size": BATCH_SIZE,
            "churn_fraction": CHURN_FRACTION,
            "edges": len(dataset.edges),
            "batches": len(batches),
            "source": source,
            "repeat": args.repeat,
        },
        "python": platform.python_version(),
        "ckernel_loaded": ckernels.loaded(),
        "compute_threads": ckernels.compute_threads(),
        "algorithms": rows,
        "metrics": metrics,
        "legacy_seconds": round(legacy_total, 4),
        "kernel_seconds": round(kernel_total, 4),
        "view_seconds": round(view_seconds, 4),
        "speedup": round(overall, 2),
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if args.history:
        record = record_from_bench_json(payload, bench="compute")
        append_history(record, args.history)
        print(f"appended history record to {args.history}")
    if args.min_speedup:
        reached = sum(1 for row in rows if row["speedup"] >= args.min_speedup)
        if reached < 4:
            print(
                f"FAIL: only {reached} of {len(rows)} algorithms reach "
                f"{args.min_speedup}x",
                file=sys.stderr,
            )
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
