"""Content-addressed on-disk cache of experiment results.

A :class:`RunStore` maps a fingerprint (see
:mod:`repro.engine.fingerprint`) to one ``.npz`` file holding the
result's columnar arrays plus a JSON metadata record.  Because the
simulation is deterministic, a hit is bit-identical to re-running the
sweep, so repeated artifact generation (CLI invocations, benchmark
sessions, conformance checks) skips the expensive simulation entirely.

Writes are atomic (temp file + ``os.replace``) so a store shared
between parallel workers or interrupted runs never holds a torn entry.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Callable, Dict, Optional, TypeVar

import numpy as np

from repro.errors import ConfigError
from repro.obs.metrics import METRICS
from repro.obs.tracer import TRACER

#: Environment variable naming a default cache directory; honored by
#: the CLI and the benchmark harness when no explicit path is given.
CACHE_DIR_ENV = "SAGA_BENCH_CACHE_DIR"

T = TypeVar("T")


class RunStore:
    """A directory of fingerprint-keyed ``.npz`` result files."""

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0

    def path(self, key: str) -> Path:
        """Path of the entry for ``key`` (whether or not it exists)."""
        if not key or any(c not in "0123456789abcdef" for c in key):
            raise ConfigError(f"malformed cache key {key!r}")
        return self.root / f"{key}.npz"

    # -- generic array payloads ----------------------------------------

    @TRACER.layer("results.encode")
    def save_arrays(
        self, key: str, meta: dict, arrays: Dict[str, np.ndarray]
    ) -> Path:
        """Atomically persist one ``meta + arrays`` payload under ``key``."""
        if "__meta__" in arrays:
            raise ConfigError("'__meta__' is a reserved array name")
        final = self.path(key)
        tmp = final.with_name(f".{key}.{os.getpid()}.tmp.npz")
        with open(tmp, "wb") as handle:
            np.savez_compressed(
                handle,
                __meta__=np.asarray(json.dumps(meta, sort_keys=True)),
                **arrays,
            )
        os.replace(tmp, final)
        if METRICS.enabled:
            METRICS.counter(
                "engine_cache_writes_total", "RunStore entries written"
            ).inc()
        return final

    def load(
        self, key: str, decode: Callable[[dict, Dict[str, np.ndarray]], T]
    ) -> Optional[T]:
        """``decode(meta, arrays)`` of the entry under ``key``, or None.

        An absent entry, an unreadable one (truncated file, foreign
        format) and one ``decode`` refuses (raises anything: another
        schema, a missing field) all count as misses rather than
        raising: the cache must never be able to make a run fail that
        would succeed without it.  Only a decoded entry is a hit.
        """
        path = self.path(key)
        try:
            with np.load(path, allow_pickle=False) as data:
                meta = json.loads(str(data["__meta__"]))
                arrays = {
                    name: data[name] for name in data.files if name != "__meta__"
                }
            value = decode(meta, arrays)
        except Exception:
            self.misses += 1
            if METRICS.enabled:
                METRICS.counter(
                    "engine_cache_misses_total", "RunStore lookups that simulated"
                ).inc()
            return None
        self.hits += 1
        if METRICS.enabled:
            METRICS.counter(
                "engine_cache_hits_total", "RunStore lookups served from disk"
            ).inc()
        return value


def default_store(cache_dir=None, no_cache: bool = False) -> Optional[RunStore]:
    """Resolve the store from an explicit path or :data:`CACHE_DIR_ENV`.

    Returns None (caching disabled) when ``no_cache`` is set or neither
    an explicit directory nor the environment variable provides one.
    """
    if no_cache:
        return None
    if cache_dir is None:
        cache_dir = os.environ.get(CACHE_DIR_ENV) or None
    return RunStore(cache_dir) if cache_dir else None
