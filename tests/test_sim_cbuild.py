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
