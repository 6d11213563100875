"""One run of one workload in a fresh process.

``python -m bench_e2e.worker <workload> --seed N [--trace] [--smoke]``
prints one JSON record as its last line of output.  Structures, address
space and peak RSS are therefore per run, and ``setup_s`` is what a user
pays before the first batch: interpreter start, ``import repro``, the
``dlopen`` of the three cached kernel objects, dataset generation.

Exit codes: 0 with a record (which may list failed output checks), 2
without one when the environment is not the one the benchmark measures
(``repro`` not importable, a compiled kernel missing).  Any other
failure is an uncaught exception.
"""

from __future__ import annotations

import time

_IMPORTED_AT = time.monotonic()

import argparse
import json
import os
import resource
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from bench_e2e import workloads as wl
from bench_e2e.probe import EDGE_UNITS, INTERVAL_S, BoxSpeedProbe

ROOT_DIR = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
ENV_PREFIX = "SAGA_BENCH_"


def scrub_environment() -> None:
    """Pin the tier under test; a silent numpy fallback is another tier."""
    for name in [name for name in os.environ if name.startswith(ENV_PREFIX)]:
        del os.environ[name]
    os.environ["SAGA_BENCH_REQUIRE_CCOMPUTE"] = "1"
    os.environ["SAGA_BENCH_REQUIRE_CINGEST"] = "1"
    os.environ["SAGA_BENCH_COMPUTE_THREADS"] = "1"
    os.environ["SAGA_BENCH_CKERNEL_DIR"] = str(OUT_DIR / "ckernels")
    # The compiler's scratch files stay inside the checkout too.
    os.environ["TMPDIR"] = str(OUT_DIR)


def load_kernels() -> dict:
    """First load of the three compiled kernels (compiles on a cold cache)."""
    from repro.compute import ckernels
    from repro.sim import cingest, ckernel

    return {
        "ccompute_loaded": ckernels.loaded(),
        "cingest_loaded": cingest.loaded(),
        "ckernel_loaded": ckernel.get_kernel() is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=[*wl.WORKLOADS, "warmup"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument(
        "--spawned-at", type=float, default=_IMPORTED_AT,
        help="time.monotonic() of the parent just before it started this process",
    )
    args = parser.parse_args(argv)

    scrub_environment()
    OUT_DIR.mkdir(exist_ok=True)
    sys.path.insert(0, str(ROOT_DIR / "src"))
    clock = time.perf_counter
    t_import = clock()
    try:
        import repro.analysis.hardware_profile  # noqa: F401  (pulls every subpackage the runs use)
        import repro.streaming.driver  # noqa: F401
    except ImportError as exc:
        print(f"bench_e2e: cannot import repro: {exc}", file=sys.stderr)
        return 2
    t_kernels = clock()
    try:
        kernels = load_kernels()
    except RuntimeError as exc:
        print(f"bench_e2e: {exc}", file=sys.stderr)
        return 2
    t_loaded = clock()
    if not all(kernels.values()):
        print(f"bench_e2e: compiled kernels missing: {kernels}", file=sys.stderr)
        return 2
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "traced": args.trace,
        "import_s": t_kernels - t_import,
        "kernel_load_s": t_loaded - t_kernels,
        "env": env_record(kernels),
    }
    if args.workload == "warmup":
        print(json.dumps(record))
        return 0

    workload = wl.WORKLOADS[args.workload]
    probe = BoxSpeedProbe()
    tracer = None
    if args.trace:
        from bench_e2e.trace import PROBE, ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    #: (enter, exit) of every pause the probe's timer made in the run.
    pauses = []

    def tick(_signum, _frame) -> None:
        enter = clock()
        span = tracer.open(PROBE) if tracer is not None else None
        probe.sample()
        if tracer is not None:
            tracer.close(span)
        pauses.append((enter, clock()))

    def running(start: float, end: float) -> float:
        """Seconds of ``[start, end]`` in which the program, not the probe, ran."""
        return (end - start) - sum(b - a for a, b in pauses if start <= a and b <= end)

    stamps = []
    tmp = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT_DIR))
    try:
        dataset = None
        if workload.kind == "stream":
            dataset = wl.generate(workload, args.seed, args.smoke, tmp)
        ready = time.monotonic()

        probe.sample(EDGE_UNITS)
        signal.signal(signal.SIGALRM, tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            run_start = clock()
            if tracer is not None:
                root = tracer.open(ROOT)
            outcome = wl.execute(
                workload, dataset, args.seed, args.smoke, tmp, lambda _msg: stamps.append(clock())
            )
            if tracer is not None:
                tracer.close(root)
            run_end = clock()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
        peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        probe.sample(EDGE_UNITS)
        if tracer is not None:
            tracer.uninstall()

        if dataset is None:
            dataset = wl.generate(workload, args.seed, args.smoke, tmp)
        failures = wl.failed_checks(workload, dataset, args.seed, outcome)
        if workload.kind == "stream" and len(stamps) != outcome.batches:
            failures.append(f"{len(stamps)} progress callbacks for {outcome.batches} batches")
        run_s = running(run_start, run_end)
        record.update(
            params=workload.params,
            speed_factor=probe.speed_factor(),
            setup_s=ready - args.spawned_at,
            run_s=run_s,
            edges=len(dataset.edges),
            batches=outcome.batches,
            batch_ms=[running(a, b) * 1e3 for a, b in zip([run_start, *stamps], stamps)],
            peak_rss_mb=peak_rss_kb / 1024.0,
            sim_batch_ms=wl.sim_batch_ms(workload, outcome.result),
            sim_digest=wl.sim_digest(outcome.result),
            bytes_mapped=wl.bytes_mapped(dataset),
            result_bytes=outcome.result_path.stat().st_size,
            failed_checks=failures,
        )
        if tracer is not None:
            record.update(traced_record(tracer, args, run_start, run_s))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps(record))
    return 0


def env_record(kernels: dict) -> dict:
    import platform

    import numpy

    return {
        **kernels,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "compute_threads": os.environ["SAGA_BENCH_COMPUTE_THREADS"],
    }


def traced_record(tracer, args, run_start: float, run_s: float) -> dict:
    """The layer table of this run; also writes its ``spans-<workload>.json``."""
    from bench_e2e.trace import PROBE, ROOT, layer_table

    layer, start, end, parent = tracer.columns()
    table = layer_table(layer, start, end, parent)
    tracer.write(
        OUT_DIR / f"spans-{args.workload}.json",
        run_id=f"{args.workload}/seed{args.seed}/pid{os.getpid()}",
        origin=run_start,
    )
    # Pauses are the timer's, not the program's: they count for nothing
    # in the table and their number varies from run to run.
    pauses = table.pop(PROBE)["calls"]
    return {
        "layers": table,
        "counts": tracer.counts,
        "spans": len(tracer.spans) - pauses,
        # Self times inside the root sum to the root's running time by
        # construction; what can differ is that time as the spans and as
        # the worker's own clock reads saw it.
        "conservation_gap_s": abs(table[ROOT]["total_s"] - run_s),
    }


if __name__ == "__main__":
    sys.exit(main())
