"""Shared build-and-load helper for optional ctypes C kernels.

Three modules compile C sources at runtime, one shared object each --
the simulator's scheduler event loop and cache replay
(:mod:`repro.sim.ckernel`), the batch-ingest kernels
(:mod:`repro.sim.cingest`) and the compute kernels
(:mod:`repro.compute.ckernels`).  All follow the same contract, so the
mechanics live here once:

- the shared object is cached under a filename containing the sha256 of
  the source, the compiler flags, and the compiler's identity string
  (``cc --version``), in ``SAGA_BENCH_CKERNEL_DIR`` or the system temp
  dir, so the compiler runs at most once per source revision per
  machine -- and a toolchain upgrade can never serve a stale object;
- the build goes to a private temp name and is moved into place with
  ``os.replace`` (atomic), so concurrent builders never load a
  half-written object;
- ``-ffp-contract=off`` forbids fused multiply-adds, keeping every IEEE
  float64 intermediate bit-identical to the Python/numpy twin.

Callers handle failures themselves (no compiler, broken toolchain):
:func:`load_library` raises and the caller decides between silent
numpy fallback and a hard error.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

#: Environment variable overriding the build cache directory (shared
#: with the scheduler kernel of PR 2).
CACHE_DIR_ENV = "SAGA_BENCH_CKERNEL_DIR"

#: Compiler invocation shared by every kernel build.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_COMPILER_IDENTITY: str | None = None


def cache_dir() -> str:
    """The directory compiled objects are cached in (created on demand)."""
    path = os.environ.get(CACHE_DIR_ENV)
    if not path:
        path = os.path.join(tempfile.gettempdir(), "saga_bench_ckernel")
    os.makedirs(path, exist_ok=True)
    return path


def compiler_identity() -> str:
    """First line of ``cc --version``, cached per process.

    Folded into the cache digest so upgrading the toolchain invalidates
    every previously compiled object.  An unavailable compiler yields a
    sentinel; the subsequent compile then fails with the real error.
    """
    global _COMPILER_IDENTITY
    if _COMPILER_IDENTITY is None:
        try:
            probe = subprocess.run(
                ["cc", "--version"], check=True, capture_output=True, text=True
            )
            _COMPILER_IDENTITY = probe.stdout.splitlines()[0].strip()
        except Exception:
            _COMPILER_IDENTITY = "cc-unavailable"
    return _COMPILER_IDENTITY


def source_digest(source: str, extra_flags: tuple[str, ...] = ()) -> str:
    """Cache digest: source text + flags + compiler identity."""
    fingerprint = "\0".join(
        [compiler_identity(), " ".join(CFLAGS + tuple(extra_flags)), source]
    )
    return hashlib.sha256(fingerprint.encode()).hexdigest()[:16]


def load_library(
    source: str, stem: str, extra_flags: tuple[str, ...] = ()
) -> ctypes.CDLL:
    """Compile ``source`` (or reuse the cached object) and dlopen it.

    ``stem`` names the cached artifact (``<stem>_<hash>.so``) and
    ``extra_flags`` extends :data:`CFLAGS` (e.g. ``("-pthread", "-lm")``
    for the threaded compute kernels).  Raises on any failure -- missing
    compiler, compile error, unloadable object; callers choose the
    fallback policy.
    """
    digest = source_digest(source, tuple(extra_flags))
    so_path = os.path.join(cache_dir(), f"{stem}_{digest}.so")
    if not os.path.exists(so_path):
        c_path = so_path[:-3] + ".c"
        with open(c_path, "w") as handle:
            handle.write(source)
        tmp_path = f"{so_path}.tmp{os.getpid()}"
        # Libraries among the extra flags must follow the object that
        # needs them (``--as-needed`` linkers drop them otherwise).
        subprocess.run(
            ["cc", *CFLAGS, "-o", tmp_path, c_path, *extra_flags],
            check=True,
            capture_output=True,
        )
        os.replace(tmp_path, so_path)
    return ctypes.CDLL(so_path)
