"""Validate observability outputs: Chrome trace JSON + Prometheus text.

The CI smoke steps run the CLI with ``--trace-out`` / ``--metrics-out``
and then this script, over four execution paths::

    # in-process
    PYTHONPATH=src python -m repro stream --dataset Talk --quick \
        --trace-out /tmp/t.json --metrics-out /tmp/m.prom
    PYTHONPATH=src python scripts/validate_obs.py /tmp/t.json /tmp/m.prom

    # multiprocess sweep (worker payloads merged into the parent)
    PYTHONPATH=src python -m repro table3 --quick --jobs 2 ...
    PYTHONPATH=src python scripts/validate_obs.py \
        --require stream_update_latency_seconds \
        --require sweep_cell_seconds /tmp/t.json /tmp/m.prom

    # one architecture-profile figure: every batch traced, no sim timeline
    PYTHONPATH=src python -m repro fig9 --quick --no-cache ...
    PYTHONPATH=src python scripts/validate_obs.py --no-sim \
        --require ingest_trace_accesses_total \
        --require ingest_trace_stalls_total /tmp/t.json /tmp/m.prom

    # the same figure's cells over the sweep engine's pool (worker
    # payloads merged into the parent)
    PYTHONPATH=src python -m repro fig9 --quick --no-cache --jobs 2 ...
    PYTHONPATH=src python scripts/validate_obs.py --no-sim \
        --require sim_trace_accesses_total \
        --require ingest_trace_accesses_total /tmp/t.json /tmp/m.prom

Checks:

- the trace is valid JSON whose ``traceEvents`` use only known phase
  types (``B``/``E``/``X``/``M``/``i``), every timed event has
  non-negative ``ts``/``dur``, the timed stream is ``ts``-monotonic,
  and (unless ``--no-sim``) at least one simulated-timeline track is
  present alongside the wall-clock lane;
- the Prometheus dump parses line by line, every family has both a
  ``# HELP`` and a ``# TYPE`` header with non-empty text, sample
  values are finite, no histogram series has more than half of its
  observations beyond its largest finite bucket (buckets in the wrong
  unit), and every ``--require``'d family is present.

Stdlib only; exits non-zero with a message on the first violation.
"""

import argparse
import json
import math
import re
import sys

TIMED_PHASES = {"B", "E", "X", "i"}
ALLOWED_PHASES = TIMED_PHASES | {"M"}

SAMPLE_RE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+$"
)
# family, labels without ``le`` (always the last label), ``le``, count
BUCKET_RE = re.compile(r'^(.+)_bucket\{(.*?),?le="([^"]*)"\} ([^ ]+)$')


def fail(message):
    print(f"validate_obs: FAIL: {message}", file=sys.stderr)
    raise SystemExit(1)


def validate_trace(path, require_sim=True):
    with open(path) as handle:
        payload = json.load(handle)
    events = payload.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail(f"{path}: no traceEvents")
    last_ts = None
    wall_events = sim_events = 0
    for event in events:
        ph = event.get("ph")
        if ph not in ALLOWED_PHASES:
            fail(f"{path}: unknown phase {ph!r} in {event}")
        if ph == "M":
            continue
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            fail(f"{path}: bad ts in {event}")
        if event.get("dur", 0) < 0:
            fail(f"{path}: negative dur in {event}")
        if last_ts is not None and ts < last_ts:
            fail(f"{path}: non-monotonic ts ({ts} after {last_ts})")
        last_ts = ts
        if event.get("pid", 0) >= 1000:
            sim_events += 1
        else:
            wall_events += 1
    if wall_events == 0:
        fail(f"{path}: no wall-clock events")
    if require_sim and sim_events == 0:
        fail(f"{path}: no simulated-timeline events")
    print(
        f"validate_obs: {path}: {wall_events} wall + {sim_events} sim "
        f"events, monotonic"
    )


def validate_prometheus(path, required=("stream_update_latency_seconds",)):
    with open(path) as handle:
        lines = handle.read().splitlines()
    if not lines:
        fail(f"{path}: empty")
    helped = set()
    typed = set()
    sampled = set()
    # {(family, labels without le): [observations, within finite buckets]}
    histograms = {}
    for number, line in enumerate(lines, 1):
        if not line:
            continue
        if line.startswith("# HELP ") or line.startswith("# TYPE "):
            parts = line.split(" ", 3)
            if len(parts) < 4 or not parts[2] or not parts[3].strip():
                fail(f"{path}:{number}: malformed comment line {line!r}")
            (helped if parts[1] == "HELP" else typed).add(parts[2])
            continue
        if not SAMPLE_RE.match(line):
            fail(f"{path}:{number}: malformed sample line {line!r}")
        value = line.rsplit(" ", 1)[1]
        try:
            parsed = float(value)
        except ValueError:
            fail(f"{path}:{number}: bad value {value!r}")
        if not math.isfinite(parsed):
            fail(f"{path}:{number}: non-finite value {value!r}")
        name = line.split("{", 1)[0].split(" ", 1)[0]
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in typed:
                name = name[: -len(suffix)]
                break
        sampled.add(name)
        bucket = BUCKET_RE.match(line)
        if bucket is not None and bucket.group(1) in typed:
            family, labels, le, count = bucket.groups()
            series = histograms.setdefault((family, labels), [0.0, 0.0])
            # Buckets are cumulative: +Inf holds every observation, the
            # largest finite bucket those that fit the bucket range.
            if le == "+Inf":
                series[0] = float(count)
            else:
                series[1] = max(series[1], float(count))
    for (name, labels), (observations, finite) in sorted(histograms.items()):
        if observations - finite > observations / 2:
            fail(
                f"{path}: histogram {name}{{{labels}}} has "
                f"{observations - finite:g} of {observations:g} observations "
                f"in +Inf: its buckets do not cover the values observed"
            )
    for name in sorted(sampled):
        if name not in helped:
            fail(f"{path}: family {name} has samples but no # HELP line")
        if name not in typed:
            fail(f"{path}: family {name} has samples but no # TYPE line")
    for name in required:
        if name not in sampled:
            fail(f"{path}: metric {name} missing")
    print(
        f"validate_obs: {path}: {len(lines)} lines, {len(sampled)} "
        f"families, HELP+TYPE on every family"
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="Chrome trace_event JSON file")
    parser.add_argument("metrics", help="Prometheus text dump")
    parser.add_argument(
        "--no-sim",
        action="store_true",
        help="do not require simulated-timeline events (the Fig 9 "
             "architecture-profile runs record none)",
    )
    parser.add_argument(
        "--require",
        action="append",
        default=None,
        metavar="METRIC",
        help="metric family that must be present (repeatable; default "
             "stream_update_latency_seconds)",
    )
    args = parser.parse_args(argv)
    validate_trace(args.trace, require_sim=not args.no_sim)
    required = tuple(args.require or ("stream_update_latency_seconds",))
    validate_prometheus(args.metrics, required=required)
    print("validate_obs: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
