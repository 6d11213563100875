"""The build cache of :mod:`repro.sim.cbuild` -- whose directory, whose
files -- and the one library it loads whole or not at all."""

import os
import stat
import subprocess
import sys
import tempfile

import pytest

from repro.sim import cbuild

SOURCE = "int saga_answer(void) { return 42; }\n"


def test_default_cache_directory_is_private_or_refused(tmp_path, monkeypatch):
    """The object name is computable by anyone, so a default directory
    somebody else could have filled is not loaded from."""
    monkeypatch.delenv(cbuild.CACHE_DIR_ENV, raising=False)
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
    private = tmp_path / f"saga_bench_ckernel-{os.getuid()}"
    assert cbuild.cache_dir() == str(private)
    assert stat.S_IMODE(private.stat().st_mode) == 0o700
    private.chmod(0o777)
    with pytest.raises(PermissionError, match=cbuild.CACHE_DIR_ENV):
        cbuild.cache_dir()
    with pytest.raises(PermissionError):
        cbuild.load_library(SOURCE, "saga_probe")
    # An explicit directory is the caller's decision and used as given.
    monkeypatch.setenv(cbuild.CACHE_DIR_ENV, str(private))
    assert cbuild.cache_dir() == str(private)


def test_compiler_reads_a_private_source(tmp_path, monkeypatch):
    """``cc`` is never pointed at the shared ``.c`` name, which a
    concurrent builder of the same source may be rewriting."""
    if cbuild.compiler_identity() == "cc-unavailable":
        pytest.skip("no C compiler")
    monkeypatch.setenv(cbuild.CACHE_DIR_ENV, str(tmp_path))
    compiles = []
    run = subprocess.run

    def spy(argv, **kwargs):
        compiles.append(argv)
        return run(argv, **kwargs)

    monkeypatch.setattr(cbuild.subprocess, "run", spy)
    assert cbuild.load_library(SOURCE, "saga_probe").saga_answer() == 42
    shared = tmp_path / f"saga_probe_{cbuild.source_digest(SOURCE)}.c"
    (argv,) = compiles
    (source,) = [arg for arg in argv if arg.endswith(".c")]
    assert source != str(shared) and f"tmp{os.getpid()}" in source
    assert shared.read_text() == SOURCE
    built = {shared.name, shared.with_suffix(".so").name, shared.with_suffix(".so.sha256").name}
    assert {path.name for path in tmp_path.iterdir()} == built
    # A failed build leaves nothing behind, and the cached one is reused.
    with pytest.raises(subprocess.CalledProcessError):
        cbuild.load_library("int broken(", "saga_probe")
    assert cbuild.load_library(SOURCE, "saga_probe").saga_answer() == 42
    assert {path.name for path in tmp_path.iterdir()} == built
    assert len(compiles) == 2


#: In a child: load the library, through one part's facade, from the
#: build cache it is pointed at.
_LOAD = """
import sys
from repro.compute import ckernels
from repro.sim import cbuild, cingest
assert {"ingest": cingest, "compute": ckernels}[sys.argv[1]].get(), cbuild.NATIVE.error
"""


#: The parts' sources each built a library of their own before they were
#: one; the ids keep those names.
@pytest.mark.parametrize(
    "facade", ["ingest", "compute"], ids=["ingest-saga_ingest", "compute-saga_compute"]
)
def test_truncated_cached_object_is_rebuilt(facade, tmp_path):
    """A cached object cut short (a full disk, a killed copy) is mapped by
    ``dlopen`` without being read through, and the first touch of the
    missing pages kills the process with SIGBUS -- every process after,
    since the object stays cached.  The loader checks the object against
    the checksum written beside it and rebuilds it instead."""
    if cbuild.compiler_identity() == "cc-unavailable":
        pytest.skip("no C compiler")
    env = {key: value for key, value in os.environ.items() if not key.startswith("SAGA_BENCH_")}
    env.update(PYTHONPATH=os.pathsep.join(sys.path), **{cbuild.CACHE_DIR_ENV: str(tmp_path)})

    def load():
        return subprocess.run(
            [sys.executable, "-c", _LOAD, facade], env=env, capture_output=True, text=True
        )

    assert load().returncode == 0
    (built,) = tmp_path.glob(f"{cbuild.NATIVE.stem}_*.so")
    size = built.stat().st_size
    for keep in (1000, 8000):
        os.truncate(built, keep)
        child = load()
        assert child.returncode == 0, (keep, child.returncode, child.stderr)
        assert built.stat().st_size == size


#: A compiler that dies mid-build: it answers ``--version``, writes the
#: first bytes of an ELF object to its ``-o`` path, and exits 1.
_HALF_BUILD_CC = """#!/bin/sh
if [ "$1" = "--version" ]; then echo "half-build cc 1.0"; exit 0; fi
while [ $# -gt 0 ]; do
    if [ "$1" = "-o" ]; then out=$2; fi
    shift
done
printf '\\177ELF\\002\\001\\001\\000\\000\\000\\000\\000' > "$out"
exit 1
"""


def _runs_native(name: str, member: str) -> bool:
    """Whether ``member`` of part ``name`` takes its native path: a
    structure's store, or a compute facade entry point."""
    from repro.compute import ckernels
    from repro.graph import make_structure

    if name == "cingest":
        return make_structure(member, 8)._out.kernels is not None
    return getattr(ckernels.get(), {"inc_round": "inc_run"}[member], None) is not None


@pytest.mark.parametrize("name, member", [("cingest", "AS"), ("ckernels", "inc_round")])
def test_compiler_failing_mid_build_falls_back_and_leaves_nothing(
    name, member, tmp_path, monkeypatch
):
    """A compiler that dies after writing part of the object: nothing is
    left in the build cache to be loaded later, the library is not
    loaded and its recorded error names it, the part's member falls back
    to Python, and the next probe with a working compiler builds."""
    if cbuild.compiler_identity() == "cc-unavailable":
        pytest.skip("no C compiler")
    library = cbuild.NATIVE
    cache = tmp_path / "cache"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(_HALF_BUILD_CC)
    fake.chmod(0o755)
    monkeypatch.setenv(cbuild.CACHE_DIR_ENV, str(cache))
    monkeypatch.delenv(cbuild.DISABLE_ENV, raising=False)
    real_path = os.environ["PATH"]
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{real_path}")
    monkeypatch.setattr(cbuild, "_COMPILER_IDENTITY", None)

    def leftovers():
        return sorted(
            path.name
            for pattern in ("*.so", "*.sha256", "*.tmp*")
            for path in cache.glob(pattern)
        )

    try:
        library.reset()
        assert not _runs_native(name, member)
        assert not library.loaded()
        assert cbuild.compiler_identity() == "half-build cc 1.0"
        assert library.error.startswith(f"{library.stem} is not loaded")
        assert "exit status 1" in library.error
        assert leftovers() == []

        monkeypatch.setenv("PATH", real_path)
        monkeypatch.setattr(cbuild, "_COMPILER_IDENTITY", None)
        library.reset()
        assert _runs_native(name, member)
        assert library.loaded() and library.error is None
        (built,) = cache.glob(f"{library.stem}_*.so")
        assert leftovers() == [built.name, built.name + ".sha256"]
    finally:
        # Later tests probe again, from the cache the environment names.
        library.reset()


def test_a_part_that_fails_to_bind_leaves_every_part_on_python(monkeypatch):
    """All or nothing: one part's facade refusing the built object (a
    symbol it cannot find) leaves the other two parts unloaded as well,
    and a structure built then gets per-edge stores."""
    from repro.compute import ckernels
    from repro.graph import make_structure
    from repro.sim import cingest, ckernel

    if not cbuild.NATIVE.loaded():
        pytest.skip("no C compiler: library unavailable")
    monkeypatch.setattr(cingest, "_bind", lambda lib: lib.saga_no_such_entry_point)
    cbuild.NATIVE.reset()
    try:
        assert not cbuild.NATIVE.loaded()
        assert "saga_no_such_entry_point" in cbuild.NATIVE.error
        assert ckernel.get_kernel() is None and ckernels.get() is None
        assert make_structure("AS", 8)._out.kernels is None
    finally:
        monkeypatch.undo()
        cbuild.NATIVE.reset()


#: Warnings that flag a narrowing or shadowing slip; the test build adds
#: them with ``-Werror``.  The runtime build keeps :data:`cbuild.CFLAGS`:
#: the library loads all or nothing, so a warning that some other
#: compiler adds must not drop every phase to Python.
STRICT_WARNINGS = ("-Wall", "-Wextra", "-Wconversion", "-Wshadow", "-Werror")


def test_native_source_is_warning_clean(tmp_path):
    """The concatenated library source compiles without a single warning
    under the strict set, so an implicit narrowing (an id width, a
    weight width) fails here rather than truncating silently."""
    import importlib

    if cbuild.compiler_identity() == "cc-unavailable":
        pytest.skip("no C compiler")
    source = "".join(
        importlib.import_module(name)._SOURCE for name in cbuild.NATIVE.parts
    )
    c_path = tmp_path / "saga_native.c"
    c_path.write_text(source)
    build = subprocess.run(
        ["cc", *cbuild.CFLAGS, *STRICT_WARNINGS, "-o", str(tmp_path / "saga_native.so"),
         str(c_path), *cbuild.NATIVE.extra_flags],
        capture_output=True,
        text=True,
    )
    assert build.returncode == 0, build.stderr
    assert build.stderr == ""
