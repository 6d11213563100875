"""Wall-clock benchmark history records (see ``harness``)."""

from repro.bench.harness import (
    HISTORY_SCHEMA_VERSION,
    append_history,
    git_sha,
    load_history,
    make_record,
    record_from_bench_json,
    workload_fingerprint,
)

__all__ = [
    "HISTORY_SCHEMA_VERSION",
    "append_history",
    "git_sha",
    "load_history",
    "make_record",
    "record_from_bench_json",
    "workload_fingerprint",
]
