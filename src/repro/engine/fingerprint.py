"""Stable content fingerprints for experiment runs.

Every cacheable unit of work (a streaming sweep over one dataset, one
hardware-profiling cell) is keyed by the SHA-256 of a canonical JSON
description of *everything that determines its output*: the dataset
generator spec and seed, the :class:`~repro.streaming.driver.StreamConfig`
(including its :class:`~repro.sim.cost_model.CostModel` and
:class:`~repro.sim.machine.MachineConfig`), and the result schema
version.  Because the simulation is deterministic (DESIGN.md decision
#2), equal fingerprints imply bit-identical results — which is what
lets the :class:`~repro.engine.store.RunStore` substitute a cached
result for a fresh run.

Changing any constant of the cost model, any field of the machine, the
batch size, the shuffle seed, or the schema version changes the
fingerprint and therefore misses the cache.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any, Mapping

from repro.datasets.catalog import DATASETS
from repro.errors import ConfigError
from repro.streaming.driver import StreamConfig
from repro.streaming.results import RESULT_SCHEMA_VERSION

#: Version of the *keying* scheme itself.  Bump when the meaning of a
#: fingerprint changes (e.g. a new field starts to matter); combined
#: with :data:`RESULT_SCHEMA_VERSION` so either bump invalidates.
#: v2: columnar task kernels became the default emission/scheduling
#: path.  Results are bit-identical to v1 by design, but the guarantee
#: is now enforced by a different code path, so cached v1 entries are
#: deliberately retired rather than trusted across the rewrite.
#: v3: ``source`` and ``autotune`` left StreamConfig and the key.
#: v4: ``repetitions`` left StreamConfig; every other field but
#: ``progress`` is keyed, also at its default.
KEY_SCHEMA_VERSION = 4


def canonical(value: Any) -> Any:
    """Reduce ``value`` to JSON-serializable primitives, recursively.

    Dataclasses become ``{class-name, field dict}`` so that two
    different config types with coincidentally equal fields cannot
    collide.  Callables are rejected: they have no stable content
    identity, so anything carrying one must be described explicitly
    (see :func:`describe_stream_config`, which drops ``progress``).
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            "fields": {
                f.name: canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, Mapping):
        return {str(k): canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [canonical(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if callable(value):
        raise ConfigError(
            f"cannot fingerprint callable {value!r}; describe it explicitly"
        )
    raise ConfigError(f"cannot fingerprint value of type {type(value).__name__}")


def fingerprint(payload: Mapping[str, Any]) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``payload``."""
    body = json.dumps(
        canonical(dict(payload)), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def describe_stream_config(config: StreamConfig) -> dict:
    """Content description of a :class:`StreamConfig`: every field but
    ``progress``.

    The ``progress`` callback is presentation, not content: it cannot
    change any simulated number, so it is excluded from the key.  The
    root (the hottest source) and the tuner's constants are fixed:
    changing either bumps :data:`KEY_SCHEMA_VERSION`, not a field.

    Transport (in-RAM vs mmap) never appears here: the edge content
    is identical either way, so both share cache entries.
    """
    return {
        field.name: canonical(getattr(config, field.name))
        for field in dataclasses.fields(config)
        if field.name != "progress"
    }


def describe_dataset(name: str, seed: int, size_factor: float) -> dict:
    """Content description of one generated dataset stream."""
    spec = DATASETS.get(name)
    if spec is None:
        raise ConfigError(f"unknown dataset {name!r}")
    return {
        "spec": canonical(spec),
        "seed": seed,
        "size_factor": size_factor,
    }


def stream_run_key(
    dataset: str, config: StreamConfig, seed: int = 0, size_factor: float = 1.0
) -> str:
    """Cache key of one dataset's streaming sweep under ``config``."""
    return fingerprint(
        {
            "kind": "stream-result",
            "key_schema": KEY_SCHEMA_VERSION,
            "result_schema": RESULT_SCHEMA_VERSION,
            "dataset": describe_dataset(dataset, seed, size_factor),
            "config": describe_stream_config(config),
        }
    )
