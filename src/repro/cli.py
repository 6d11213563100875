"""Command-line interface: regenerate the paper's artifacts.

Usage::

    python -m repro table1|table2|table3|table4|fig6|fig7|fig8|fig9|fig10
    python -m repro all --output benchmarks/output
    python -m repro stream --dataset Talk --structure DAH --algorithm PR
    python -m repro scale --edges 5000000 --mmap-dir /tmp/rmat
    python -m repro autotune --compare --model-out samples.json
    python -m repro table3 --cache-dir ~/.cache/saga --jobs 4

``--output DIR`` also writes each artifact into DIR under the file name
it is committed with (``table3`` -> ``table3_best_combination.txt``);
``all`` writes all 16 files of ``benchmarks/output/``: the nine paper
artifacts, the conformance report and the six ``ext_*`` studies.
``--quick`` runs the two sweeps at reduced scale (seconds instead of
tens of seconds); the ``ext_*`` studies have one size only.

Every subcommand but ``scale`` shares the experiment-engine flags:
``--cache-dir`` points the content-addressed RunStore at a directory (a
second identical invocation then regenerates every artifact from
cache, bit-identically, without simulating), ``--no-cache`` disables
the cache even when ``SAGA_BENCH_CACHE_DIR`` is set, ``--jobs N`` fans
sweep cells over N worker processes, and ``--profile`` prints the
layer table (``graph.update``, ``scheduler.run``, ``cache.replay``, ...)
whose self times sum to the ``driver`` span around the command.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.datasets import dataset_names
from repro.datasets.rmat import DEFAULT_RMAT_CHUNK
from repro.engine import default_store, run_stream
from repro.obs import METRICS, TRACER, SpanTracer
from repro.obs.tracer import ROOT
from repro.streaming import StreamConfig

#: The paper's artifacts, one subcommand each.
ALL_ARTIFACTS = (
    "table1", "table2", "table3", "table4", "fig6", "fig7", "fig8", "fig9", "fig10"
)


class _Session:
    """Lazily computes and caches the expensive sweeps."""

    def __init__(self, quick: bool, store=None, jobs: Optional[int] = None) -> None:
        self.quick = quick
        self.store = store
        self.jobs = jobs
        self._software = None
        self._hardware = None

    @property
    def software(self):
        if self._software is None:
            from repro.analysis.software_profile import paper_software_profile

            self._software = paper_software_profile(self.quick, self.store, self.jobs)
        return self._software

    @property
    def hardware(self):
        if self._hardware is None:
            from repro.analysis.hardware_profile import paper_hardware_profile

            self._hardware = paper_hardware_profile(self.quick, self.store, self.jobs)
        return self._hardware


def _session_from_args(args: argparse.Namespace) -> _Session:
    return _Session(
        quick=args.quick,
        store=default_store(args.cache_dir, no_cache=args.no_cache),
        jobs=args.jobs,
    )


def _artifacts(session: _Session) -> Dict[str, Tuple[str, Callable[[], str]]]:
    """Every artifact ``repro all`` writes: name -> (file stem, renderer).

    The first nine are the paper's and have their own subcommand; the
    file stems are the names committed under ``benchmarks/output/``.
    """
    from repro.analysis import extensions as ext
    from repro.analysis import report
    from repro.analysis.conformance import conformance_report, render_conformance
    from repro.analysis.degrees import degree_table
    from repro.analysis.memory_report import render_memory_report
    from repro.analysis.sensitivity import render_sensitivity
    from repro.analysis.tlp import render_tlp

    def software(render):
        return lambda: render(session.software)

    def hardware(render):
        return lambda: render(session.hardware)

    return {
        "table1": ("table1_algorithms", report.render_table1),
        "table2": ("table2_datasets", report.render_table2),
        "table3": ("table3_best_combination", software(report.render_table3)),
        "table4": ("table4_max_degree", lambda: report.render_table4(degree_table())),
        "fig6": ("fig6_data_structures", software(report.render_fig6)),
        "fig7": ("fig7_compute_model", software(report.render_fig7)),
        "fig8": ("fig8_update_share", software(report.render_fig8)),
        "fig9": ("fig9_scaling_bandwidth", hardware(report.render_fig9)),
        "fig10": ("fig10_caches", hardware(report.render_fig10)),
        "conformance": (
            "conformance",
            lambda: render_conformance(
                conformance_report(session.software, session.hardware)
            ),
        ),
        "ext_tlp_diagnosis": (
            "ext_tlp_diagnosis",
            lambda: render_tlp(ext.tlp_diagnosis()),
        ),
        "ext_memory_footprint": (
            "ext_memory_footprint",
            lambda: render_memory_report(ext.memory_footprint()),
        ),
        "ext_batch_size_sensitivity": (
            "ext_batch_size_sensitivity",
            lambda: render_sensitivity(ext.batch_size_sensitivity()),
        ),
        "ext_deletion_churn": (
            "ext_deletion_churn",
            lambda: ext.render_deletion_churn(ext.run_deletion_churn()),
        ),
        "ext_snapshot_store": (
            "ext_snapshot_store",
            lambda: ext.render_snapshot_store(ext.run_snapshot_store()),
        ),
        "ext_fifth_structure": (
            "ext_fifth_structure",
            lambda: ext.render_fifth_structure(ext.run_fifth_structure()),
        ),
    }


def _cmd_artifacts(args: argparse.Namespace) -> int:
    session = _session_from_args(args)
    artifacts = _artifacts(session)
    names = list(artifacts) if args.artifact == "all" else [args.artifact]
    output_dir: Optional[Path] = Path(args.output) if args.output else None
    if output_dir is not None:
        output_dir.mkdir(parents=True, exist_ok=True)
    for name in names:
        stem, render = artifacts[name]
        started = time.time()
        text = render()
        print(text)
        print(f"[{name}: {time.time() - started:.1f}s]\n")
        if output_dir is not None:
            (output_dir / f"{stem}.txt").write_text(text + "\n")
    if getattr(args, "csv", None):
        from repro.analysis.export import (
            export_hardware_profile,
            export_software_profile,
        )

        csv_dir = Path(args.csv)
        csv_dir.mkdir(parents=True, exist_ok=True)
        if session._software is not None:
            print(export_software_profile(session.software, csv_dir / "software.csv"))
        if session._hardware is not None:
            print(export_hardware_profile(session.hardware, csv_dir / "hardware.csv"))
    if session.store is not None:
        print(
            f"[cache {session.store.root}: {session.store.hits} hits, "
            f"{session.store.misses} misses]"
        )
    return 0


def _cmd_conformance(args: argparse.Namespace) -> int:
    from repro.analysis.conformance import conformance_report, render_conformance

    session = _session_from_args(args)
    results = conformance_report(
        software=session.software, hardware=session.hardware
    )
    print(render_conformance(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_stream(args: argparse.Namespace) -> int:
    size_factor = args.size_factor
    if args.quick and size_factor == 1.0:
        size_factor = 0.1
    config = StreamConfig(
        batch_size=args.batch_size,
        structures=(args.structure,),
        algorithms=(args.algorithm,),
        models=("FS", "INC"),
        progress=print if args.verbose else None,
    )
    result = run_stream(
        args.dataset,
        config,
        seed=args.seed,
        size_factor=size_factor,
        store=default_store(args.cache_dir, no_cache=args.no_cache),
        jobs=args.jobs,
    )
    update = result.update_latency(args.structure)[0]
    print(f"{args.dataset} on {args.structure}, {args.algorithm}: "
          f"{result.batches_per_rep} batches")
    print(f"{'batch':>5s} {'update(ms)':>11s} {'INC(ms)':>9s} {'FS(ms)':>9s}")
    inc = result.compute_latency(args.algorithm, "INC", args.structure)[0]
    fs = result.compute_latency(args.algorithm, "FS", args.structure)[0]
    for index in range(result.batches_per_rep):
        print(f"{index:>5d} {update[index] * 1e3:>11.3f} "
              f"{inc[index] * 1e3:>9.3f} {fs[index] * 1e3:>9.3f}")
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    import resource

    from repro.datasets import make_rmat_dataset
    from repro.streaming import StreamDriver

    started = time.time()
    dataset = make_rmat_dataset(
        scale=args.scale,
        num_edges=args.edges,
        seed=args.seed,
        mmap_dir=args.mmap_dir,
        chunk_edges=args.chunk_edges,
    )
    generated = time.time() - started
    transport = f"mmap:{args.mmap_dir}" if args.mmap_dir else "RAM"
    print(f"{dataset.spec.name}: {len(dataset.edges):,} edges "
          f"({transport}) generated in {generated:.1f}s")

    config = StreamConfig(
        batch_size=args.batch_size,
        structures=(args.structure,),
        algorithms=(args.algorithm,),
        models=("INC",),
    )
    started = time.time()
    result = StreamDriver(config).run(dataset)
    simulated = time.time() - started
    throughput = result.sustainable_throughput(args.algorithm, "INC", args.structure)
    rate = len(dataset.edges) / simulated if simulated > 0 else 0.0
    # The process's peak so far (Linux reports KiB).  It varies from run
    # to run, so it stays off the last line, which is the deterministic
    # result.
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"{args.structure}/{args.algorithm} INC: "
          f"{result.batches_per_rep} batches of {args.batch_size:,} "
          f"simulated in {simulated:.1f}s wall ({rate:,.0f} edges/s, "
          f"peak RSS {peak_mb:,.0f} MB)")
    print(f"sustained simulated ingest: {throughput:,.0f} edges/s")
    return 0


def _cmd_autotune(args: argparse.Namespace) -> int:
    """Run a (regime-shifting) stream under the online auto-tuner.

    Uncached by design: the tuner learns online, so a cache replay
    would skip exactly the adaptation being demonstrated.
    ``--compare`` also runs the full static matrix on the same stream
    and grades the adaptive total against every static combination and
    the per-batch oracle.
    """
    from repro.datasets import load_dataset
    from repro.streaming import StreamDriver
    from repro.streaming.autotune import (
        AdaptiveStreamDriver,
        adaptive_total_seconds,
        load_samples,
        oracle_total_seconds,
        save_samples,
        static_combo_totals,
    )
    from repro.streaming.driver import ALL_STRUCTURES

    schedule = None
    if args.batch_schedule:
        schedule = tuple(
            int(size) for size in args.batch_schedule.split(",") if size.strip()
        )
    algorithms = tuple(
        name.strip() for name in args.algorithms.split(",") if name.strip()
    )
    dataset = load_dataset(
        args.dataset, seed=args.seed, size_factor=args.size_factor
    )
    config = StreamConfig(
        batch_size=args.batch_size,
        structures=("adaptive",),
        models=("adaptive",),
        algorithms=algorithms,
        churn_fraction=args.churn_fraction,
        batch_schedule=schedule,
    )
    driver = AdaptiveStreamDriver(config)
    if args.model_in:
        driver.warm_samples = load_samples(args.model_in)
    result = driver.run(dataset)
    adaptive_seconds = adaptive_total_seconds(result)
    decisions = driver.decision_log["decisions"]
    summary = driver.decision_log["summary"]
    print(f"{args.dataset} adaptive over {result.batches_per_rep} batches "
          f"({len(algorithms)} algorithms)")
    print(f"{'batch':>5s} {'edges':>7s} {'structure':>9s} {'reason':>8s} "
          f"{'pred(ms)':>9s} {'actual(ms)':>11s}")
    attempted = result.edges_attempted[0]
    for entry in decisions:
        print(f"{entry['batch']:>5d} {attempted[entry['batch']]:>7d} "
              f"{entry['structure']:>9s} {entry['reason']:>8s} "
              f"{entry['predicted_seconds'] * 1e3:>9.3f} "
              f"{entry['actual_seconds'] * 1e3:>11.3f}")
    print(f"adaptive total: {adaptive_seconds * 1e3:.3f} ms simulated "
          f"({summary['switches']} switches, migration "
          f"{summary['migration_seconds'] * 1e3:.3f} ms, est regret "
          f"{summary['est_regret_seconds'] * 1e3:.3f} ms)")
    if args.model_out:
        save_samples(args.model_out, driver.controller.samples)
        print(f"[update samples written to {args.model_out}]")
    if not args.compare:
        return 0
    static_config = StreamConfig(
        batch_size=args.batch_size,
        structures=ALL_STRUCTURES,
        algorithms=algorithms,
        models=("FS", "INC"),
        churn_fraction=args.churn_fraction,
        batch_schedule=schedule,
    )
    static = StreamDriver(static_config).run(dataset)
    totals = static_combo_totals(static)
    oracle = oracle_total_seconds(static)
    print(f"{'combination':>14s} {'total(ms)':>10s} {'vs adaptive':>12s}")
    for (structure, model), seconds in sorted(totals.items(), key=lambda kv: kv[1]):
        ratio = seconds / adaptive_seconds if adaptive_seconds > 0 else 0.0
        print(f"{structure + '/' + model:>14s} {seconds * 1e3:>10.3f} "
              f"{ratio:>11.2f}x")
    ranked = sorted(totals.values())
    median_static = ranked[len(ranked) // 2]
    print(f"{'oracle':>14s} {oracle * 1e3:>10.3f} "
          f"{oracle / adaptive_seconds if adaptive_seconds > 0 else 0.0:>11.2f}x")
    print(f"adaptive vs median static: "
          f"{adaptive_seconds / median_static:.3f}x, vs oracle: "
          f"{adaptive_seconds / oracle if oracle > 0 else 0.0:.3f}x")
    return 0


def _write_run_report(args: argparse.Namespace, path: str) -> str:
    """Assemble the HTML report from whatever this run observed."""
    from repro.obs.report import write_report
    from repro.streaming import autotune

    meta = {"command": args.command}
    for key in (
        "dataset",
        "structure",
        "algorithm",
        "algorithms",
        "batch_size",
        "size_factor",
        "jobs",
    ):
        value = getattr(args, key, None)
        if value is not None:
            meta[key.replace("_", " ")] = value
    return write_report(
        path,
        title=f"SAGA-Bench run report: {args.command}",
        meta=meta,
        tracer=TRACER,
        metrics=METRICS,
        autotune=autotune.LAST_DECISION_LOG,
    )


def _profile_report(tracer: SpanTracer = TRACER) -> str:
    """The ``--profile`` printout: the tracer's layer table as text."""
    rows = tracer.table()
    if not rows:
        return "[profile] no spans ran"
    whole = sum(own for _, _, own, _ in rows) or 1.0
    lines = [
        f"[profile] wall time by layer; self times sum to {ROOT}'s total",
        f"  {'layer':<24s} {'total_s':>11s} {'self_s':>11s} {'share':>6s} {'calls':>7s}",
    ]
    for name, total, own, calls in rows:
        lines.append(
            f"  {name:<24s} {total:>11.6f} {own:>11.6f} "
            f"{100.0 * own / whole:>5.1f}% {calls:>7d}"
        )
    lines.append(f"  span_coverage_ratio {tracer.span_coverage_ratio():.3f}")
    return "\n".join(lines)


def _add_engine_args(parser: argparse.ArgumentParser) -> None:
    """The experiment-engine flags shared by every subcommand."""
    parser.add_argument(
        "--cache-dir",
        default=None,
        help="RunStore directory: cache sweep results on disk "
             "(default: $SAGA_BENCH_CACHE_DIR if set)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the RunStore even if SAGA_BENCH_CACHE_DIR is set",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="run sweep cells across N worker processes",
    )
    parser.add_argument(
        "--profile",
        action="store_true",
        help="print the layer table (graph.update, scheduler.run, ...) whose "
             "self times sum to the driver span after the run; cells executed "
             "in --jobs worker processes report back and are merged in",
    )
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="FILE",
        help="write a Chrome trace_event JSON file (Perfetto-loadable): "
             "wall-clock span tree plus the simulated per-thread task "
             "timeline of every scheduled batch",
    )
    parser.add_argument(
        "--metrics-out",
        default=None,
        metavar="FILE",
        help="write run metrics (batch latency histograms, scheduler and "
             "cache counters, sweep cell stats) in Prometheus text format",
    )
    parser.add_argument(
        "--report-out",
        default=None,
        metavar="FILE",
        help="write a self-contained HTML run report of this run alone "
             "(wall time by layer, sweep cells, auto-tuner decisions); "
             "enables tracing and metrics",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SAGA-Bench reproduction: regenerate the paper's artifacts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ALL_ARTIFACTS + ("all",):
        artifact = sub.add_parser(name, help=f"regenerate {name}")
        artifact.set_defaults(func=_cmd_artifacts, artifact=name)
        artifact.add_argument("--quick", action="store_true",
                              help="reduced-scale sweep (development)")
        artifact.add_argument("--output", help="also write artifacts to DIR")
        artifact.add_argument(
            "--csv",
            help="also export the computed sweeps as CSV files to DIR",
        )
        _add_engine_args(artifact)

    conformance = sub.add_parser(
        "conformance",
        help="check every paper claim against fresh sweeps (exit 1 on any FAIL)",
    )
    conformance.set_defaults(func=_cmd_conformance)
    conformance.add_argument("--quick", action="store_true")
    _add_engine_args(conformance)

    stream = sub.add_parser("stream", help="stream one dataset and print latencies")
    stream.set_defaults(func=_cmd_stream)
    stream.add_argument("--dataset", choices=dataset_names(), default="Talk")
    stream.add_argument("--structure", choices=("AS", "AC", "Stinger", "DAH", "BA"),
                        default="DAH")
    stream.add_argument("--algorithm",
                        choices=("BFS", "CC", "MC", "PR", "SSSP", "SSWP"),
                        default="PR")
    stream.add_argument("--batch-size", type=int, default=2500)
    stream.add_argument("--seed", type=int, default=0)
    stream.add_argument("--size-factor", type=float, default=1.0)
    stream.add_argument(
        "--quick",
        action="store_true",
        help="reduced-scale stream (size factor 0.1 unless --size-factor "
             "is given explicitly)",
    )
    stream.add_argument("--verbose", action="store_true")
    _add_engine_args(stream)

    scale = sub.add_parser(
        "scale",
        help="stream a large generated RMAT graph out-of-core and report "
             "sustained edges/second",
    )
    scale.set_defaults(func=_cmd_scale)
    scale.add_argument("--scale", type=int, default=20,
                       help="RMAT scale (2^scale vertices)")
    scale.add_argument("--edges", type=int, default=5_000_000,
                       help="number of stream edges to generate")
    scale.add_argument("--batch-size", type=int, default=500_000)
    scale.add_argument("--structure", choices=("AS", "AC", "Stinger", "DAH", "BA"),
                       default="AS")
    scale.add_argument("--algorithm",
                       choices=("BFS", "CC", "MC", "PR", "SSSP", "SSWP"),
                       default="PR")
    scale.add_argument("--seed", type=int, default=0)
    scale.add_argument(
        "--mmap-dir",
        default=None,
        metavar="DIR",
        help="generate the stream chunk-by-chunk into memory-mapped "
             "column files under DIR instead of RAM; a directory holding "
             "a matching stream is reused without regenerating",
    )
    scale.add_argument(
        "--chunk-edges",
        type=int,
        default=DEFAULT_RMAT_CHUNK,
        help="generation chunk size (edges held in RAM at once)",
    )

    autotune = sub.add_parser(
        "autotune",
        help="run a (regime-shifting) stream under the online auto-tuner "
             "and print its per-batch decisions; --compare grades it "
             "against every static combination and the per-batch oracle",
    )
    autotune.set_defaults(func=_cmd_autotune)
    autotune.add_argument("--dataset", choices=dataset_names(), default="RMAT")
    autotune.add_argument("--batch-size", type=int, default=1000)
    autotune.add_argument(
        "--batch-schedule",
        default=None,
        metavar="N,N,...",
        help="cycled per-batch sizes overriding --batch-size (a "
             "regime-shifting stream, e.g. 500,500,4000,4000)",
    )
    autotune.add_argument(
        "--algorithms",
        default="BFS,PR",
        help="comma-separated compute algorithms to run (default BFS,PR)",
    )
    autotune.add_argument("--seed", type=int, default=0)
    autotune.add_argument("--size-factor", type=float, default=0.25)
    autotune.add_argument("--churn-fraction", type=float, default=0.0)
    autotune.add_argument(
        "--model-in",
        default=None,
        metavar="FILE",
        help="warm-start the auto-tuner by replaying the update samples "
             "an earlier autotune --model-out saved",
    )
    autotune.add_argument(
        "--model-out",
        default=None,
        metavar="FILE",
        help="save every update sample the tuner fitted from, warm start "
             "included (the file --model-in replays)",
    )
    autotune.add_argument(
        "--compare",
        action="store_true",
        help="also run the full static matrix on the same stream and "
             "print every combination's total and the oracle",
    )
    _add_engine_args(autotune)

    return parser


def _sweep_summary() -> Optional[str]:
    """One-line cell accounting from the metrics registry, or None."""
    from repro.obs.report import sweep_cells

    computed, cached, per_dataset = sweep_cells(METRICS)
    if not (computed or cached):
        return None
    wall = sum(seconds for _, _, seconds in per_dataset)
    line = (
        f"[sweep] {computed} cells computed in {wall:.2f}s wall, "
        f"{cached} requests served from cache"
    )
    hits = int(METRICS.total("engine_cache_hits_total"))
    misses = int(METRICS.total("engine_cache_misses_total"))
    if hits or misses:
        line += f" (store: {hits} hits, {misses} misses)"
    return line


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    profiling = getattr(args, "profile", False)
    trace_out = getattr(args, "trace_out", None)
    metrics_out = getattr(args, "metrics_out", None)
    report_out = getattr(args, "report_out", None)
    tracing = bool(profiling or trace_out or metrics_out or report_out)
    if tracing:
        TRACER.reset()
        TRACER.enable(
            keep_events=bool(trace_out),
            sim_timeline=bool(trace_out),
        )
    if metrics_out or report_out:
        METRICS.reset()
        METRICS.enable()
    try:
        with TRACER.span(ROOT):
            return args.func(args)
    finally:
        if profiling:
            print(_profile_report())
        if trace_out or metrics_out:
            from repro.obs.export import write_chrome_trace, write_prometheus
        if trace_out:
            print(f"[trace written to {write_chrome_trace(TRACER, trace_out)}]")
        if metrics_out:
            coverage = TRACER.span_coverage_ratio()
            METRICS.gauge("span_coverage_ratio", "wall time share in a named span").set(coverage)
            summary = _sweep_summary()
            if summary:
                print(summary)
            print(f"[metrics written to {write_prometheus(METRICS, metrics_out)}]")
        if report_out:
            print(f"[report written to {_write_run_report(args, report_out)}]")
        if metrics_out or report_out:
            METRICS.disable()
        if tracing:
            TRACER.disable()


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
