"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import ALL_ARTIFACTS, build_parser, main
from repro.engine.store import CACHE_DIR_ENV, default_store


class TestParser:
    def test_all_artifacts_have_subcommands(self):
        parser = build_parser()
        for name in ALL_ARTIFACTS + ("all", "stream"):
            args = parser.parse_args(
                [name] if name != "stream" else ["stream", "--dataset", "Talk"]
            )
            assert callable(args.func)

    def test_quick_flag(self):
        args = build_parser().parse_args(["table3", "--quick"])
        assert args.quick

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.dataset == "Talk"
        assert args.structure == "DAH"
        assert args.batch_size == 2500

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["stream", "--dataset", "Twitter"])

    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_no_cache_with_a_cache_dir_is_refused(self, tmp_path):
        """Both flags at once used to drop the directory silently."""
        store = tmp_path / "D"
        done = subprocess.run(
            [sys.executable, "-m", "repro", "all", "--no-cache", "--cache-dir", str(store)],
            cwd=tmp_path,
            env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
            capture_output=True,
            text=True,
        )
        assert done.returncode == 2
        assert "argument --cache-dir: not allowed with argument --no-cache" in done.stderr
        assert not store.exists()
        assert list(tmp_path.iterdir()) == []

    def test_no_cache_still_switches_the_environment_cache_off(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_DIR_ENV, str(tmp_path))
        args = build_parser().parse_args(["table3", "--no-cache"])
        assert default_store(args.cache_dir, args.no_cache) is None

    @pytest.mark.parametrize("command", ["stream", "scale"])
    def test_shards_option_is_gone(self, command, capsys):
        """The vertex-sharded update plane left with its option."""
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args([command, "--shards", "2"])
        assert raised.value.code == 2
        assert "unrecognized arguments: --shards 2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["stream", "--adaptive"],
            ["scale", "--adaptive"],
            ["stream", "--model-in", "F"],
            ["scale", "--model-in", "F"],
            ["report"],
        ],
        ids=" ".join,
    )
    def test_autotune_is_the_one_adaptive_entry(self, argv):
        """The auto-tuner runs from ``autotune`` alone and a report is
        written by ``--report-out`` alone."""
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(argv)
        assert raised.value.code == 2


class TestExecution:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out and "SSWP" in out

    def test_table2_writes_output(self, tmp_path, capsys):
        assert main(["table2", "--output", str(tmp_path)]) == 0
        assert (tmp_path / "table2_datasets.txt").exists()

    def test_all_writes_the_committed_file_names(self, quick_artefacts):
        """One writer: ``all --output`` writes exactly the 16 files
        committed under ``benchmarks/output/``."""
        committed = Path(__file__).resolve().parents[1] / "benchmarks" / "output"
        written = sorted(path.name for path in quick_artefacts.iterdir())
        assert written == sorted(path.name for path in committed.iterdir())
        assert len(written) == 16

    def test_stream_small(self, capsys):
        code = main(
            [
                "stream",
                "--dataset", "Talk",
                "--structure", "AS",
                "--algorithm", "CC",
                "--size-factor", "0.05",
                "--batch-size", "300",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Talk on AS" in out
        assert "update(ms)" in out

    def test_table3_quick_with_csv(self, tmp_path, capsys, monkeypatch):
        # Shrink the quick sweep further for test speed.
        import repro.cli as cli

        original = cli._Session.software

        def tiny_software(self):
            from repro.analysis import run_software_profile
            from repro.streaming import StreamConfig

            if self._software is None:
                self._software = run_software_profile(
                    datasets=["Talk"],
                    config=StreamConfig(
                        batch_size=500,
                        structures=("AS", "DAH"),
                        algorithms=("BFS",),
                    ),
                    size_factor=0.05,
                )
            return self._software

        monkeypatch.setattr(cli._Session, "software", property(tiny_software))
        assert main(["table3", "--quick", "--csv", str(tmp_path)]) == 0
        assert (tmp_path / "software.csv").exists()


class TestConformanceCommand:
    def test_parser(self):
        args = build_parser().parse_args(["conformance", "--quick"])
        assert args.quick
        assert callable(args.func)
