"""The build cache of :mod:`repro.sim.cbuild`: whose directory, whose files."""

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


#: In a child: load one library from the build cache it is pointed at.
_LOAD = """
import sys
from repro.compute import ckernels
from repro.sim import cingest
assert {"ingest": cingest, "compute": ckernels}[sys.argv[1]].loaded()
"""


@pytest.mark.parametrize("library, stem", [("ingest", "saga_ingest"), ("compute", "saga_compute")])
def test_truncated_cached_object_is_rebuilt(library, stem, tmp_path):
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
            [sys.executable, "-c", _LOAD, library], env=env, capture_output=True, text=True
        )

    assert load().returncode == 0
    (built,) = tmp_path.glob(f"{stem}_*.so")
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


@pytest.mark.parametrize("name, member", [("cingest", "AS"), ("ckernels", "inc_round")])
def test_compiler_failing_mid_build_falls_back_and_leaves_nothing(
    name, member, tmp_path, monkeypatch
):
    """A compiler that dies after writing part of the object: nothing is
    left in the build cache to be loaded later, the library falls back
    (or, with ``REQUIRE_*`` set, fails naming the variable and the
    library), and the next probe with a working compiler builds."""
    if cbuild.compiler_identity() == "cc-unavailable":
        pytest.skip("no C compiler")
    from repro.compute import ckernels
    from repro.sim import cingest

    module = {"cingest": cingest, "ckernels": ckernels}[name]
    library = module._LIBRARY
    cache = tmp_path / "cache"
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    fake = bin_dir / "cc"
    fake.write_text(_HALF_BUILD_CC)
    fake.chmod(0o755)
    monkeypatch.setenv(cbuild.CACHE_DIR_ENV, str(cache))
    monkeypatch.delenv(module.DISABLE_ENV, raising=False)
    monkeypatch.delenv(module.REQUIRE_ENV, raising=False)
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
        assert library.get(member) is None
        assert cbuild.compiler_identity() == "half-build cc 1.0"
        assert leftovers() == []

        monkeypatch.setenv(module.REQUIRE_ENV, "1")
        library.reset()
        with pytest.raises(RuntimeError) as failure:
            library.get(member)
        assert module.REQUIRE_ENV in str(failure.value)
        assert library.stem in str(failure.value)
        assert leftovers() == []

        monkeypatch.setenv("PATH", real_path)
        monkeypatch.setattr(cbuild, "_COMPILER_IDENTITY", None)
        library.reset()
        assert library.get(member) is not None
        (built,) = cache.glob(f"{library.stem}_*.so")
        assert leftovers() == [built.name, built.name + ".sha256"]
    finally:
        # Later tests probe again, from the cache the environment names.
        library.reset()
