"""Bench history tool: replay snapshots, detect regressions, self-test.

Subcommands::

    replay BENCH_a.json [BENCH_b.json ...] [--history PATH]
        Distill committed ``BENCH_*.json`` snapshots into history
        records (git SHA, workload fingerprint, flattened timings) and
        append them to the history file.

    check [--history PATH] [--json OUT] [--strict]
        Run the regression detector over the history and print every
        verdict.  Exit 1 on regressions only under ``--strict`` (the
        CI job is non-gating and omits it).

    self-test [--history PATH] [--factor 2.0]
        Prove the detector on the actual history: a bit-identical
        rerun of each group's latest record must stay quiet, an
        injected --factor slowdown must be flagged.  Exits 1 when the
        proof fails.

A developer/CI tool, not part of the library.
"""

import argparse
import json
import sys

from repro.bench.harness import (
    DEFAULT_HISTORY,
    append_history,
    load_history,
    record_from_bench_json,
)
from repro.obs.baseline import (
    DEFAULT_ABS_FLOOR,
    DEFAULT_REL_THRESHOLD,
    DEFAULT_WINDOW,
    detect_regressions,
    self_test,
    verdicts_to_json,
)


def _bench_name(path: str) -> str:
    """``BENCH_scale.json`` -> ``scale`` (stem otherwise)."""
    stem = path.rsplit("/", 1)[-1]
    if stem.endswith(".json"):
        stem = stem[: -len(".json")]
    if stem.startswith("BENCH_"):
        stem = stem[len("BENCH_") :]
    return stem


def _add_detector_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--rel-threshold",
        type=float,
        default=DEFAULT_REL_THRESHOLD,
        help="relative slowdown that counts as a regression",
    )
    parser.add_argument(
        "--abs-floor",
        type=float,
        default=DEFAULT_ABS_FLOOR,
        help="minimum absolute excess in seconds",
    )
    parser.add_argument(
        "--window",
        type=int,
        default=DEFAULT_WINDOW,
        help="trailing records forming the median baseline",
    )


def cmd_replay(args) -> int:
    for path in args.snapshots:
        with open(path) as handle:
            payload = json.load(handle)
        record = record_from_bench_json(payload, bench=_bench_name(path))
        append_history(record, args.history)
        print(
            f"{path}: appended bench={record['bench']} "
            f"fingerprint={record['fingerprint']} "
            f"({len(record['timings'])} timings) -> {args.history}"
        )
    return 0


def cmd_check(args) -> int:
    history = load_history(args.history)
    verdicts = detect_regressions(
        history,
        rel_threshold=args.rel_threshold,
        abs_floor=args.abs_floor,
        window=args.window,
    )
    report = verdicts_to_json(verdicts)
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json}")
    if not verdicts:
        print(f"OK: no regressions across {len(history)} history record(s)")
        return 0
    for verdict in verdicts:
        print(f"REGRESSION: {verdict.describe()}")
    return 1 if args.strict else 0


def cmd_self_test(args) -> int:
    history = load_history(args.history)
    ok, message = self_test(
        history,
        factor=args.factor,
        rel_threshold=args.rel_threshold,
        abs_floor=args.abs_floor,
        window=args.window,
    )
    print(("OK: " if ok else "FAIL: ") + message)
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    replay = sub.add_parser("replay", help="append BENCH_*.json snapshots")
    replay.add_argument("snapshots", nargs="+", help="BENCH_*.json files")
    replay.add_argument("--history", default=DEFAULT_HISTORY)
    replay.set_defaults(func=cmd_replay)

    check = sub.add_parser("check", help="run the regression detector")
    check.add_argument("--history", default=DEFAULT_HISTORY)
    check.add_argument("--json", default=None, help="write verdicts here")
    check.add_argument(
        "--strict", action="store_true", help="exit 1 on regressions"
    )
    _add_detector_args(check)
    check.set_defaults(func=cmd_check)

    selftest = sub.add_parser(
        "self-test", help="prove quiet-rerun / loud-slowdown on this history"
    )
    selftest.add_argument("--history", default=DEFAULT_HISTORY)
    selftest.add_argument("--factor", type=float, default=2.0)
    _add_detector_args(selftest)
    selftest.set_defaults(func=cmd_self_test)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
