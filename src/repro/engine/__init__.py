"""The experiment engine shared by every artifact harness.

- :mod:`repro.engine.fingerprint` -- stable content keys over (dataset
  spec, stream config, cost model, machine, schema version);
- :mod:`repro.engine.store` -- the content-addressed ``.npz``
  :class:`RunStore` cache;
- :mod:`repro.engine.sweep` -- cached, optionally process-parallel
  sweeps over dataset streams (the stream sweeps and the Fig. 9/10
  cells) with deterministic merge order.
"""

from repro import lazy_exports

_EXPORTS = {
    "RunStore": "store",
    "default_store": "store",
    "StreamRequest": "sweep",
    "run_many": "sweep",
    "run_stream": "sweep",
    "stream_run_key": "fingerprint",
}
__getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
__all__ = list(_EXPORTS)
