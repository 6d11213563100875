"""The experiment engine shared by every artifact harness.

- :mod:`repro.engine.fingerprint` -- stable content keys over (dataset
  spec, stream config, cost model, machine, schema version);
- :mod:`repro.engine.store` -- the content-addressed ``.npz``
  :class:`RunStore` cache;
- :mod:`repro.engine.sweep` -- cached, optionally process-parallel
  sweeps over dataset streams (the stream sweeps and the Fig. 9/10
  cells) with deterministic merge order.
"""

from repro.engine.fingerprint import (
    KEY_SCHEMA_VERSION,
    describe_dataset,
    describe_stream_config,
    fingerprint,
    stream_run_key,
)
from repro.engine.store import CACHE_DIR_ENV, RunStore, default_store
from repro.engine.sweep import StreamRequest, run_many, run_stream

__all__ = [
    "CACHE_DIR_ENV",
    "KEY_SCHEMA_VERSION",
    "RunStore",
    "StreamRequest",
    "default_store",
    "describe_dataset",
    "describe_stream_config",
    "fingerprint",
    "run_many",
    "run_stream",
    "stream_run_key",
]
