"""Command-line interface."""

import pytest

from repro.experiments import cli


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
