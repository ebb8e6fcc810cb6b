"""Command-line interface."""

import os

import numpy as np
import pytest

from repro import telemetry
from repro.core import PrintedNeuralNetwork, TrainConfig, save_params, snapshot_params, train_pnn
from repro.experiments import cli
from repro.telemetry import read_events, summarize_events
from repro.telemetry.core import NULL, TELEMETRY_ENV


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            cli.main(["cell", "--dataset", "mnist"])

    def test_rejects_unknown_profile(self):
        with pytest.raises(SystemExit):
            cli.main(["table2", "--profile", "gigantic"])

    def test_table2_has_no_backend_flag(self, capsys):
        # One kernel path: a script still passing --backend fails loudly.
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["table2", "--backend", "numpy"])
        assert "--backend" in capsys.readouterr().err

    def test_table2_has_no_lane_grouping_flag(self, capsys):
        # "--lane-grouping off" trained every job as its own one-lane batch.
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["table2", "--lane-grouping", "off"])
        assert "--lane-grouping" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [["--lane-width", "1"], ["--deploy-verify", "8x8"]])
    def test_table2_has_no_lane_width_or_deploy_verify_flag(self, capsys, argv):
        # A group's pending seeds are one lane batch, and deploy checks run
        # through "export --verify": a script passing either flag fails loudly.
        with pytest.raises(SystemExit):
            cli._build_parser().parse_args(["table2", *argv])
        assert argv[0] in capsys.readouterr().err


class TestCellCommand:
    def test_runs_one_cell(self, capsys, monkeypatch, analytic_surrogates):
        # Patch the bundle loader so the CLI test stays lightweight.
        monkeypatch.setattr(cli, "get_default_bundle", lambda **k: analytic_surrogates)
        monkeypatch.setitem(
            cli.PROFILES, "smoke",
            cli.PROFILES["smoke"].with_overrides(
                seeds=(1,), max_epochs=20, patience=20, n_mc_train=2,
                n_test=4, max_train=40,
            ),
        )
        code = cli.main(
            ["cell", "--dataset", "iris", "--learnable", "--epsilon", "0.05"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "iris" in out and "±" in out

    def test_table2_single_dataset(self, capsys, monkeypatch, analytic_surrogates):
        monkeypatch.setattr(cli, "get_default_bundle", lambda **k: analytic_surrogates)
        monkeypatch.setitem(
            cli.PROFILES, "smoke",
            cli.PROFILES["smoke"].with_overrides(
                seeds=(1,), max_epochs=10, patience=10, n_mc_train=2,
                n_test=4, max_train=40,
            ),
        )
        code = cli.main(["table2", "--datasets", "iris"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Average" in out
        assert "accuracy" in out   # improvement summary lines


class TestReportCommand:
    def test_directory_without_events_is_a_usage_error(self, capsys, tmp_path):
        # A mistyped path must not pass a gate that reads the report's exit code.
        for directory in (tmp_path / "absent", tmp_path):
            assert cli.main(["report", "--telemetry", str(directory)]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"no telemetry events found under {directory}" in captured.err


class TestExportCommand:
    def test_telemetry_is_off_after_the_command(self, capsys, tmp_path, analytic_surrogates):
        """``--telemetry DIR`` records only while the command runs: an
        in-process caller is back on the no-op sink afterwards, also when
        the command fails early (a tile too small for its rails: exit 2)."""
        pnn = PrintedNeuralNetwork([3, 3, 2], analytic_surrogates,
                                   rng=np.random.default_rng(0))
        params = save_params(snapshot_params(pnn), tmp_path / "pnn.npz")
        tel = tmp_path / "tel"
        assert cli.main(["export", "--params", str(params), "--tile-rows", "2",
                         "--telemetry", str(tel)]) == 2
        assert "reserved bias/ground rail rows" in capsys.readouterr().err
        assert (tel / "manifest.json").is_file()
        assert TELEMETRY_ENV not in os.environ
        assert telemetry.get() is NULL

    def test_verify_with_telemetry_passes_the_health_rules(
        self, capsys, tmp_path, analytic_surrogates
    ):
        """A trained design whose hidden crossbar spills over 8x8 tiles
        exports, re-simulates in SPICE under nominal and stuck-at
        conditions, and its telemetry passes every health rule."""
        rng = np.random.default_rng(0)
        pnn = PrintedNeuralNetwork([6, 10, 4], analytic_surrogates,
                                   rng=np.random.default_rng(7))
        x = rng.uniform(0.0, 1.0, size=(48, 6))
        y = rng.integers(0, 4, size=48)
        train_pnn(pnn, x[:36], y[:36], x[36:], y[36:],
                  TrainConfig(max_epochs=4, patience=4, epsilon=0.1, n_mc_train=3, seed=1))
        params = save_params(snapshot_params(pnn), tmp_path / "pnn.npz")
        netlist, tel = tmp_path / "pnn_tiled.netlist", tmp_path / "tel"
        code = cli.main(["export", "--params", str(params), "--output", str(netlist),
                         "--tile-rows", "8", "--tile-cols", "8", "--verify",
                         "--scenario", "nominal", "--scenario", "stuck-1pct",
                         "--telemetry", str(tel)])
        assert code == 0
        assert "PASS" in capsys.readouterr().out
        assert any(line.startswith("* tiling: 8x8") for line in netlist.read_text().splitlines())

        counters = summarize_events(read_events(tel))["counters"]
        assert counters["export.tiles"] > 1
        assert counters["export.verify_lanes"] == 8 + 2 * 8
        assert cli.main(["report", "--telemetry", str(tel)]) == 0
        report = capsys.readouterr().out
        assert "FAIL" not in report
        assert "ok    load-bearing devices skipped at export (export.load_bearing_skips): 0" in report
