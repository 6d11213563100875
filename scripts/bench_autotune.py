"""Auto-tuner benchmark: adaptive vs every static (structure, model).

Drives the online auto-tuner through a *regime-shifting* stream -- a
``batch_schedule`` that alternates long runs of small batches with
bursts of large ones, crossing the Table 3 operating points where the
best (structure, model) flips -- and grades it three ways:

- against **every static combination** (the full structures x models
  matrix, each run start-to-finish on one choice);
- against the **per-batch oracle** (clairvoyant: every batch takes the
  cheapest structure with per-algorithm compute-model freedom, and
  pays no migration);
- for **bit-identity**: every per-batch compute latency and iteration
  count the adaptive run records must equal the static run of the
  combination it chose for that batch, and the inserted-edge counts
  must match exactly -- live migration must never perturb algorithm
  results.

The tuner warm-starts by replaying the update samples of a full-matrix
run on a *different* shuffle of the same generator (no peeking at the
graded stream).
Gates: adaptive must beat the median static combination and land
within ``--oracle-slack`` (default 15%) of the oracle; either miss or
any bit-identity break exits nonzero.  Writes ``BENCH_autotune.json``.

Usage::

    PYTHONPATH=src python scripts/bench_autotune.py
    PYTHONPATH=src python scripts/bench_autotune.py --size-factor 0.25

A developer/CI tool, not part of the library.  The gating
``bench-autotune`` CI job runs it and requires every simulated field of
the fresh file to equal the committed ``BENCH_autotune.json``; the wall
fields are informational.
"""

import argparse
import json
import platform
import sys
import time

import numpy as np

from repro.datasets import load_dataset
from repro.streaming import StreamConfig, StreamDriver
from repro.streaming.autotune import (
    AdaptiveStreamDriver,
    adaptive_total_seconds,
    oracle_total_seconds,
    static_combo_totals,
    update_samples,
)

DATASET = "RMAT"
SIZE_FACTOR = 0.5
CHURN_FRACTION = 0.2
STRUCTURES = ("AS", "AC", "Stinger", "DAH", "BA")
ALGORITHMS = ("BFS", "PR")
MODELS = ("FS", "INC")

#: The graded stream: 40 small batches (where AC-style adjacency wins
#: and BFS recompute is cheap), then 8 large ones (where AS pulls
#: ahead), cycled over the stream so the regime flips more than once.
SCHEDULE = (200,) * 40 + (6000,) * 8

#: The warm-up stream cycles three sizes so every structure's update
#: samples spread enough in ops for a well-conditioned affine fit.
WARMUP_SCHEDULE = (500, 2000, 8000)
WARMUP_SEED_OFFSET = 1


def stream_config(schedule, shuffle_seed, adaptive):
    common = dict(
        batch_size=schedule[0],
        batch_schedule=tuple(schedule),
        algorithms=ALGORITHMS,
        repetitions=1,
        churn_fraction=CHURN_FRACTION,
        shuffle_seed=shuffle_seed,
    )
    if adaptive:
        return StreamConfig(
            structures=("adaptive",),
            models=("adaptive",),
            candidate_structures=STRUCTURES,
            candidate_models=MODELS,
            **common,
        )
    return StreamConfig(structures=STRUCTURES, models=MODELS, **common)


def warm_samples(dataset_name, seed, size_factor):
    """Full-matrix run on a different shuffle; its update samples."""
    warmup = load_dataset(dataset_name, seed=seed, size_factor=size_factor)
    config = stream_config(
        WARMUP_SCHEDULE, seed + WARMUP_SEED_OFFSET, adaptive=False
    )
    return update_samples(StreamDriver(config).run(warmup), CHURN_FRACTION)


def verify_bit_identity(adaptive, static, decisions):
    """Adaptive per-batch records == static run of the chosen combo."""
    if not np.array_equal(adaptive.edges_inserted, static.edges_inserted):
        raise SystemExit(
            "FAIL: adaptive inserted-edge counts diverge from static"
        )
    if not np.array_equal(adaptive.edges_attempted, static.edges_attempted):
        raise SystemExit("FAIL: adaptive batch sizes diverge from static")
    checked = 0
    for entry in decisions:
        rep, batch = int(entry["rep"]), int(entry["batch"])
        s_idx = static.structures.index(entry["structure"])
        for a_idx, algorithm in enumerate(static.algorithms):
            m_idx = static.models.index(entry["models"][algorithm])
            mine = adaptive.compute_cycles[rep, batch, a_idx, 0, 0]
            theirs = static.compute_cycles[rep, batch, a_idx, m_idx, s_idx]
            if mine != theirs:
                raise SystemExit(
                    f"FAIL: compute cycles diverge at rep {rep} batch "
                    f"{batch} {algorithm} on {entry['structure']}/"
                    f"{entry['models'][algorithm]}: {mine} != {theirs}"
                )
            it_mine = adaptive.compute_iterations[rep, batch, a_idx, 0]
            it_theirs = static.compute_iterations[rep, batch, a_idx, m_idx]
            if it_mine != it_theirs:
                raise SystemExit(
                    f"FAIL: iteration counts diverge at rep {rep} batch "
                    f"{batch} {algorithm}: {it_mine} != {it_theirs}"
                )
            checked += 1
    print(
        f"verified: {checked} per-batch algorithm records bit-identical "
        "to the chosen static combinations"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", default="BENCH_autotune.json",
                        help="result file path")
    parser.add_argument("--dataset", default=DATASET)
    parser.add_argument("--size-factor", type=float, default=SIZE_FACTOR)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--oracle-slack",
        type=float,
        default=0.15,
        help="max fractional excess over the per-batch oracle",
    )
    args = parser.parse_args(argv)

    started = time.perf_counter()
    samples = warm_samples(args.dataset, args.seed, args.size_factor)
    warmup_seconds = time.perf_counter() - started
    print(
        f"warm start: {len(samples)} update samples from the warm-up "
        f"shuffle in {warmup_seconds:.1f}s wall"
    )

    dataset = load_dataset(
        args.dataset, seed=args.seed, size_factor=args.size_factor
    )

    started = time.perf_counter()
    static = StreamDriver(
        stream_config(SCHEDULE, args.seed, adaptive=False)
    ).run(dataset)
    static_seconds = time.perf_counter() - started
    combos = static_combo_totals(static)
    oracle = oracle_total_seconds(static)

    driver = AdaptiveStreamDriver(stream_config(SCHEDULE, args.seed, adaptive=True))
    driver.warm_samples = samples
    started = time.perf_counter()
    adaptive = driver.run(dataset)
    adaptive_seconds = time.perf_counter() - started
    summary = driver.decision_log["summary"]

    verify_bit_identity(adaptive, static, driver.decision_log["decisions"])

    adaptive_total = adaptive_total_seconds(adaptive)
    ranked = sorted(combos.items(), key=lambda item: item[1])
    median_total = ranked[len(ranked) // 2][1]
    best_name, best_total = ranked[0]
    vs_median = adaptive_total / median_total if median_total else 0.0
    vs_oracle = adaptive_total / oracle if oracle else 0.0

    print(
        f"{args.dataset}: {summary['batches']} batches over schedule "
        f"{SCHEDULE[0]}x{SCHEDULE.count(SCHEDULE[0])}"
        f"/{SCHEDULE[-1]}x{SCHEDULE.count(SCHEDULE[-1])}, "
        f"{summary['switches']} migrations"
    )
    for (structure, model), total in ranked:
        print(f"  static {structure:>7}/{model:<3} {total * 1e3:10.3f} ms")
    print(f"  oracle (per-batch)  {oracle * 1e3:10.3f} ms")
    print(
        f"  adaptive            {adaptive_total * 1e3:10.3f} ms "
        f"({vs_median:.3f}x median static, {vs_oracle:.3f}x oracle)"
    )

    failures = []
    if adaptive_total >= median_total:
        failures.append(
            f"adaptive {adaptive_total:.6f}s did not beat the median "
            f"static combination ({median_total:.6f}s)"
        )
    if adaptive_total > oracle * (1.0 + args.oracle_slack):
        failures.append(
            f"adaptive {adaptive_total:.6f}s exceeds the oracle "
            f"({oracle:.6f}s) by more than {args.oracle_slack:.0%}"
        )

    payload = {
        "workload": {
            "dataset": args.dataset,
            "size_factor": args.size_factor,
            "seed": args.seed,
            "schedule": list(SCHEDULE),
            "warmup_schedule": list(WARMUP_SCHEDULE),
            "churn_fraction": CHURN_FRACTION,
            "structures": list(STRUCTURES),
            "algorithms": list(ALGORITHMS),
            "models": list(MODELS),
        },
        "python": platform.python_version(),
        "warmup_wall_seconds": round(warmup_seconds, 2),
        "static_wall_seconds": round(static_seconds, 2),
        "adaptive_wall_seconds": round(adaptive_seconds, 2),
        "adaptive_sim_seconds": adaptive_total,
        "oracle_sim_seconds": oracle,
        "median_static_sim_seconds": median_total,
        "best_static_sim_seconds": best_total,
        "best_static_combo": f"{best_name[0]}/{best_name[1]}",
        "adaptive_vs_median_static": round(vs_median, 4),
        "adaptive_vs_oracle": round(vs_oracle, 4),
        "migration_sim_seconds": summary["migration_seconds"],
        "est_regret_sim_seconds": summary["est_regret_seconds"],
        "switches": int(summary["switches"]),
        "batches": int(summary["batches"]),
        "static_combos": {
            f"{structure}/{model}": total
            for (structure, model), total in ranked
        },
        "verified": {"bit_identical": True},
        "passed": not failures,
    }
    with open(args.output, "w") as handle:
        json.dump(payload, handle, indent=2)
        handle.write("\n")
    print(f"wrote {args.output}")
    if failures:
        for failure in failures:
            print(f"FAIL: {failure}")
        return 1
    print("PASS: adaptive beat the median static and tracked the oracle")
    return 0


if __name__ == "__main__":
    sys.exit(main())
