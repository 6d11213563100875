"""Shared build-and-load helper for optional ctypes C kernels.

Three modules compile C sources at runtime, one shared object each --
the simulator's scheduler event loop and cache replay
(:mod:`repro.sim.ckernel`), the batch-ingest kernels
(:mod:`repro.sim.cingest`) and the compute kernels
(:mod:`repro.compute.ckernels`).  All follow the same contract, so the
mechanics live here once:

- the shared object is cached under a filename containing the sha256 of
  the source, the compiler flags, and the compiler's identity string
  (``cc --version``), so the compiler runs at most once per source
  revision per machine -- and a toolchain upgrade can never serve a
  stale object;
- the cache is ``SAGA_BENCH_CKERNEL_DIR``, used as given, or else
  ``<tmp>/saga_bench_ckernel-<uid>``: created ``0o700`` and refused
  unless this user owns it and nobody else can write to it, because the
  object name is computable by anyone and ``ctypes.CDLL`` runs what it
  finds there;
- source and object are built under pid-private temp names and moved
  into place with ``os.replace`` (atomic), so concurrent builders never
  compile a half-written source or load a half-written object;
- the object's sha256 is moved into place beside it first, and an
  object that does not match it (truncated or damaged after the
  build) is rebuilt rather than handed to ``dlopen``;
- ``-ffp-contract=off`` forbids fused multiply-adds, keeping every IEEE
  float64 intermediate bit-identical to the Python/numpy twin.

:class:`NativeLibrary` is the one protocol around that build: each
module creates one for its source and asks it for the bound entry
points.  It reads the module's ``SAGA_BENCH_NO_*`` switch (which members
stay on their Python reference) and ``SAGA_BENCH_REQUIRE_*`` flag (a
failed build raises instead of falling back), probes once per process,
and remembers the answer until :meth:`NativeLibrary.reset`.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import stat
import subprocess
import tempfile
from typing import Callable, FrozenSet, Optional

#: Environment variable overriding the build cache directory.
CACHE_DIR_ENV = "SAGA_BENCH_CKERNEL_DIR"

#: Compiler invocation shared by every kernel build.
CFLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")

_COMPILER_IDENTITY: str | None = None


def cache_dir() -> str:
    """The directory compiled objects are cached in (created on demand).

    Raises ``PermissionError`` for a default directory somebody else
    could have put an object into.
    """
    path = os.environ.get(CACHE_DIR_ENV)
    if path:
        os.makedirs(path, exist_ok=True)
        return path
    path = os.path.join(
        tempfile.gettempdir(), f"saga_bench_ckernel-{os.getuid()}"
    )
    os.makedirs(path, mode=0o700, exist_ok=True)
    # lstat: a symlink planted at the name is its planter's, not ours.
    status = os.lstat(path)
    if (
        not stat.S_ISDIR(status.st_mode)
        or status.st_uid != os.getuid()
        or status.st_mode & (stat.S_IWGRP | stat.S_IWOTH)
    ):
        raise PermissionError(
            f"build cache {path} is not a directory only this user can "
            f"write to; remove it or set {CACHE_DIR_ENV}"
        )
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
    ``extra_flags`` extends :data:`CFLAGS` (e.g. ``("-lm",)`` for the
    compute kernels).  Raises on any failure -- unusable cache
    directory, missing compiler, compile error, unloadable object;
    :class:`NativeLibrary` chooses the fallback policy.
    """
    digest = source_digest(source, tuple(extra_flags))
    so_path = os.path.join(cache_dir(), f"{stem}_{digest}.so")
    sum_path = so_path + ".sha256"
    if not _is_intact(so_path, sum_path):
        # The source is kept beside the object for whoever debugs it.
        c_path = so_path[:-3] + ".c"
        tmp_c = f"{so_path[:-3]}.tmp{os.getpid()}.c"
        tmp_so = f"{so_path}.tmp{os.getpid()}"
        tmp_sum = f"{sum_path}.tmp{os.getpid()}"
        try:
            with open(tmp_c, "w") as handle:
                handle.write(source)
            # Libraries among the extra flags must follow the object that
            # needs them (``--as-needed`` linkers drop them otherwise).
            subprocess.run(
                ["cc", *CFLAGS, "-o", tmp_so, tmp_c, *extra_flags],
                check=True,
                capture_output=True,
            )
            with open(tmp_sum, "w") as handle:
                handle.write(_file_digest(tmp_so))
            os.replace(tmp_c, c_path)
            # The checksum first: an object never stands without its own.
            os.replace(tmp_sum, sum_path)
            os.replace(tmp_so, so_path)
        finally:
            for leftover in (tmp_c, tmp_so, tmp_sum):
                with contextlib.suppress(FileNotFoundError):
                    os.unlink(leftover)
    return ctypes.CDLL(so_path)


def _file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def _is_intact(so_path: str, sum_path: str) -> bool:
    """Whether the cached object is the one its builder wrote.

    ``dlopen`` maps an object without reading it through, so one cut
    short (a full disk, a killed copy) kills the process with SIGBUS on
    first touch, not with an error; it is checked against the checksum
    written beside it, and rebuilt when either is missing or they differ.
    """
    try:
        with open(sum_path) as handle:
            return handle.read() == _file_digest(so_path)
    except FileNotFoundError:
        return False


#: Spellings of "not set" and of "every member" a switch accepts.
_UNSET = frozenset({"", "0", "false", "off"})
_EVERY = frozenset({"1", "all", "true"})


def _switch(name: Optional[str]) -> str:
    """The value of switch ``name``; ``""`` when unset or spelled off."""
    raw = os.environ.get(name, "").strip() if name else ""
    return "" if raw.lower() in _UNSET else raw


class NativeLibrary:
    """One optional compiled library and the two variables that steer it.

    ``bind(lib)`` declares the entry points of the loaded
    :class:`ctypes.CDLL` and returns what callers get from :meth:`get`;
    members it names in a ``refused`` mapping (member -> reason: a
    self-check the build did not pass) stay on their Python reference
    like disabled ones, except that ``require_env`` raises with the
    reason.
    ``members`` are the names :meth:`get` is asked for, each
    individually switchable to its Python reference: ``disable_env`` set
    to ``1``/``all``/``true`` names them all, anything else is a comma
    list of them (``""``/``0``/``false``/``off`` is unset).  Without a
    ``require_env``, or with it unset, a failed build means "not
    available"; with it set the failure raises.
    """

    def __init__(
        self,
        source: str,
        stem: str,
        bind: Callable[[ctypes.CDLL], object],
        members: FrozenSet[str],
        disable_env: str,
        require_env: Optional[str] = None,
        extra_flags: tuple[str, ...] = (),
    ) -> None:
        self.source = source
        self.stem = stem
        self.bind = bind
        self.members = members
        self.disable_env = disable_env
        self.require_env = require_env
        self.extra_flags = extra_flags
        self.reset()

    def _disabled_members(self) -> FrozenSet[str]:
        raw = _switch(self.disable_env)
        if not raw:
            return frozenset()
        if raw.lower() in _EVERY:
            return self.members
        names = frozenset(part.strip() for part in raw.split(",") if part.strip())
        unknown = names - self.members
        if unknown:
            raise ValueError(
                f"{self.disable_env} names unknown members {sorted(unknown)}; "
                f"known: {sorted(self.members)}"
            )
        return names

    def _probe(self):
        if self._tried:
            return self._bound
        self._disabled = self._disabled_members()
        self._tried = True
        if self._disabled == self.members:
            return None
        try:
            bound = self.bind(load_library(self.source, self.stem, self.extra_flags))
        except Exception as exc:
            if _switch(self.require_env):
                raise RuntimeError(
                    f"{self.require_env} is set but {self.stem} failed to "
                    f"build: {exc}"
                ) from exc
            return None
        refused = {
            member: why
            for member, why in getattr(bound, "refused", {}).items()
            if member not in self._disabled
        }
        if refused and _switch(self.require_env):
            raise RuntimeError(
                f"{self.require_env} is set but {self.stem} refuses "
                + "; ".join(f"{member}: {why}" for member, why in refused.items())
            )
        self._disabled |= frozenset(refused)
        self._bound = bound
        return self._bound

    def get(self, member: str):
        """What ``bind`` returned if ``member`` is compiled, else ``None``."""
        bound = self._probe()
        return None if member in self._disabled else bound

    def loaded(self) -> bool:
        """True when the library is built and loadable.

        Benchmark records embed this (``bench_e2e/worker.py``) so a
        silent Python fallback cannot masquerade as a perf change.
        """
        return self._probe() is not None

    def reset(self) -> None:
        """Forget the cached probe result and env parse (test hook)."""
        self._bound = None
        self._disabled = frozenset()
        self._tried = False
