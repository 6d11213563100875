"""History records for the wall-clock benchmark scripts.

A ``scripts/bench_*.py`` run writes a one-off ``BENCH_*.json`` snapshot
with no memory across runs.  This module gives benches a memory: every
run can be distilled into a schema'd *history record* (git SHA,
timestamp, workload fingerprint, the flattened min-of-N timings,
environment facts) and appended to ``BENCH_history.jsonl``, which the
regression detector in :mod:`repro.obs.baseline` reads.

Design rules:

- records are one JSON object per line (append-only, merge-friendly in
  version control, no rewriting on append);
- the *workload fingerprint* hashes only what defines the measured
  work (dataset, sizes, batch/churn parameters), never the measured
  times -- history comparisons are only meaningful within a
  fingerprint;
- timings are a flat ``dotted.path -> seconds`` mapping distilled from
  the bench's own JSON payload, so the detector needs no per-bench
  knowledge.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Bump when the record layout changes; the detector skips records
#: from other schemas rather than misreading them.
HISTORY_SCHEMA_VERSION = 1

#: Default history file at the repo root, next to the BENCH_*.json
#: snapshots it summarizes.
DEFAULT_HISTORY = "BENCH_history.jsonl"

#: Top-level bench-payload keys that describe the environment a number
#: was measured in (copied verbatim into the history record).
_ENV_KEYS = ("python", "ckernel_loaded", "cingest_loaded")


# ----------------------------------------------------------------------
# History records
# ----------------------------------------------------------------------


def git_sha() -> str:
    """The current commit, or ``"unknown"`` outside a git checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
            check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def workload_fingerprint(workload: Dict[str, object]) -> str:
    """Stable digest of what defines the measured work."""
    blob = json.dumps(workload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def make_record(
    bench: str,
    workload: Dict[str, object],
    timings: Dict[str, float],
    env: Optional[Dict[str, object]] = None,
    sha: Optional[str] = None,
    ts: Optional[float] = None,
) -> dict:
    """One schema'd history record (see module docstring)."""
    return {
        "schema": HISTORY_SCHEMA_VERSION,
        "bench": bench,
        "sha": sha if sha is not None else git_sha(),
        "ts": float(ts) if ts is not None else time.time(),
        "fingerprint": workload_fingerprint(workload),
        "workload": dict(workload),
        "timings": {key: float(value) for key, value in timings.items()},
        "env": dict(env or {}),
    }


def _flatten_timings(node, prefix: str, out: Dict[str, float]) -> None:
    """Collect numeric ``*seconds`` leaves as ``dotted.path -> value``.

    Rows inside lists are labeled by their identifying field
    (``structure``/``algorithm``) when they carry one, by index
    otherwise; metric snapshots are skipped -- they describe the
    workload, not its timing.
    """
    if isinstance(node, dict):
        for key in sorted(node):
            if key == "metrics":
                continue
            value = node[key]
            path = f"{prefix}{key}"
            if isinstance(value, bool):
                continue
            if isinstance(value, (int, float)) and key.endswith("seconds"):
                out[path] = float(value)
            elif isinstance(value, (dict, list)):
                _flatten_timings(value, path + ".", out)
    elif isinstance(node, list):
        for index, item in enumerate(node):
            label = str(index)
            if isinstance(item, dict):
                for id_key in ("structure", "algorithm", "model"):
                    if isinstance(item.get(id_key), str):
                        label = item[id_key]
                        break
            _flatten_timings(item, f"{prefix}{label}.", out)


def record_from_bench_json(
    payload: Dict[str, object],
    bench: str,
    sha: Optional[str] = None,
    ts: Optional[float] = None,
) -> dict:
    """Distill a ``BENCH_*.json`` payload into a history record."""
    timings: Dict[str, float] = {}
    _flatten_timings(payload, "", timings)
    env = {key: payload[key] for key in _ENV_KEYS if key in payload}
    workload = payload.get("workload")
    return make_record(
        bench,
        workload if isinstance(workload, dict) else {},
        timings,
        env=env,
        sha=sha,
        ts=ts,
    )


def append_history(record: dict, path=DEFAULT_HISTORY) -> None:
    """Append one record as a line of JSON (creates the file)."""
    with open(path, "a") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")


def load_history(path=DEFAULT_HISTORY) -> List[dict]:
    """Every current-schema record, in file (append) order.

    Missing files read as empty history; lines from other schema
    versions or corrupt lines are skipped, so an old history file can
    never wedge the detector.
    """
    history_path = Path(path)
    if not history_path.exists():
        return []
    records = []
    for line in history_path.read_text().splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if (
            isinstance(record, dict)
            and record.get("schema") == HISTORY_SCHEMA_VERSION
        ):
            records.append(record)
    return records
