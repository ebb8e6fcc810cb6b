"""Closed-loop deployment verification through the batched SPICE engine."""

import numpy as np
import pytest

from repro import telemetry
from repro.core import PrintedNeuralNetwork
from repro.core.kernels import network_forward
from repro.core.params import snapshot_params
from repro.exporting import (
    TileSpec,
    compile_tiling,
    deploy_report,
    verify_deployment,
)
from repro.exporting.deploy import CROSSBAR_TOL, OUTPUT_TOL
from repro.experiments import cli
from repro.experiments.report import check_health, render_telemetry_report
from repro.surrogate import AnalyticSurrogate
from repro.telemetry import read_events, summarize_events

SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def make_params(sizes, seed=0):
    pnn = PrintedNeuralNetwork(sizes, SURROGATES, rng=np.random.default_rng(seed))
    return snapshot_params(pnn)


def inputs(n, width, seed=1):
    return np.random.default_rng(seed).uniform(0.0, 1.0, size=(n, width))


class TestNominalAgreement:
    def test_small_untiled(self):
        params = make_params([3, 3, 2])
        x = inputs(6, 3)
        v = verify_deployment(params, x)
        assert v.passed
        s = v.scenarios[0]
        assert s.scenario == "nominal"
        assert s.max_output_divergence <= OUTPUT_TOL
        assert s.prediction_agreement == 1.0
        # per-stage solver agreement stays within the documented gmin bound
        assert all(d <= CROSSBAR_TOL for d in s.crossbar_divergence)

    def test_64_neuron_tiled_design(self):
        """Acceptance: a 64-neuron design tiled at 8x8 re-simulates through
        solve_dc_batch and agrees with network_forward on every sample."""
        params = make_params([16, 48, 16], seed=7)
        x = inputs(4, 16, seed=3)
        v = verify_deployment(
            params, x, TileSpec(max_rows=8, max_cols=8),
            scenarios=("nominal", "default", "stuck-1pct"), n_mc=2, seed=0,
        )
        assert v.passed
        for s in v.scenarios:
            assert s.max_output_divergence <= OUTPUT_TOL
            assert s.n_route_flips == 0
        reference = network_forward(params, x)
        assert reference.shape == (1, 4, 16)

    def test_both_bias_policies_agree(self):
        params = make_params([6, 10, 4], seed=5)
        x = inputs(4, 6)
        for policy in ("first", "split"):
            v = verify_deployment(
                params, x, TileSpec(max_rows=8, max_cols=8, bias_policy=policy)
            )
            assert v.passed, policy


class TestScenarioAgreement:
    @pytest.mark.parametrize("scenario", ["default", "gaussian", "stuck-1pct", "correlated"])
    def test_scenario(self, scenario):
        params = make_params([6, 10, 4], seed=5)
        x = inputs(4, 6)
        v = verify_deployment(
            params, x, TileSpec(max_rows=8, max_cols=8),
            scenarios=(scenario,), n_mc=3, seed=11,
        )
        assert v.passed, v.summary()

    def test_same_epsilon_draws_as_kernel(self):
        """Verification compares against network_forward under the SAME
        pre-drawn variation factors — not a fresh RNG stream."""
        params = make_params([6, 10, 4], seed=5)
        x = inputs(4, 6)
        v = verify_deployment(
            params, x, TileSpec(max_rows=8, max_cols=8),
            scenarios=("stuck-1pct",), n_mc=4, seed=2,
        )
        # with a fresh stream stuck devices would differ and divergence
        # would be orders of magnitude above solver noise
        assert v.scenarios[0].max_output_divergence < 1e-6


class TestDetection:
    def test_corrupted_tile_value_fails(self):
        params = make_params([6, 10, 4], seed=5)
        tiled = compile_tiling(params, TileSpec(max_rows=8, max_cols=8))
        tiled.layers[1].tiles[0].resistances[0, 0] *= 3.0
        v = verify_deployment(params, inputs(4, 6), tiled=tiled)
        assert not v.passed
        assert "divergence" in v.scenarios[0].failure

    def test_load_bearing_skip_fails(self, tmp_path, capsys):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        pnn.layers[0].theta[0, 0] = np.nan
        telemetry.enable(tmp_path / "tel")
        try:
            v = verify_deployment(snapshot_params(pnn), inputs(4, 3))
        finally:
            telemetry.disable()
        assert not v.passed
        assert "load-bearing" in v.scenarios[0].failure
        # Both export health rules fail, and so does the report command.
        health = {rule.name: value for rule, value in
                  check_health(summarize_events(read_events(tmp_path / "tel")))}
        assert health["export.verify_failures"] == health["export.load_bearing_skips"] == 1
        assert cli.main(["report", "--telemetry", str(tmp_path / "tel")]) == 1
        out = capsys.readouterr().out
        assert "FAIL  failed deploy verifications (export.verify_failures): 1" in out
        assert ("FAIL  load-bearing devices skipped at export "
                "(export.load_bearing_skips): 1") in out

    def test_benign_zero_theta_passes(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        pnn.layers[0].theta[0, 0] = 0.0
        v = verify_deployment(snapshot_params(pnn), inputs(4, 3))
        assert v.passed


class TestDeployReport:
    def test_fields_and_summary(self):
        params = make_params([6, 10, 4], seed=5)
        report = deploy_report(
            params, TileSpec(max_rows=8, max_cols=8),
            scenarios=("nominal", "default"), n_mc=2,
        )
        assert report.passed
        assert report.n_tiles == 4
        assert 0.0 < report.utilization <= 1.0
        assert report.area_mm2 > 0
        assert report.static_power_uw > 0
        assert report.model_load_s > 0
        assert report.invoke_s > 0
        assert report.lanes_per_second > 0
        text = report.summary()
        assert "deploy report" in text
        assert "model load" in text and "invoke" in text
        assert "PASS" in text

    def test_report_without_verification(self):
        params = make_params([3, 3, 2])
        report = deploy_report(params, verify=False)
        assert report.verification is None
        assert report.passed  # nothing to fail

    def test_report_accepts_precompiled_design(self):
        params = make_params([6, 10, 4], seed=5)
        tiled = compile_tiling(params, TileSpec(max_rows=8, max_cols=8))
        report = deploy_report(params, tiled=tiled, scenarios=("nominal",))
        assert report.n_tiles == tiled.n_tiles


class TestTelemetry:
    def test_verify_span_counters_and_report_section(self, tmp_path):
        telemetry.enable(tmp_path / "tel")
        try:
            params = make_params([6, 10, 4], seed=5)
            deploy_report(
                params, TileSpec(max_rows=8, max_cols=8),
                scenarios=("nominal", "stuck-1pct"), n_mc=2,
            )
            telemetry.get().merge()
        finally:
            telemetry.disable()
        events = read_events(tmp_path / "tel")
        assert any(e.get("kind") == "span" and e["name"] == "export.verify"
                   for e in events)
        assert any(e.get("kind") == "event" and e["name"] == "export.deploy"
                   for e in events)
        counters = summarize_events(events)["counters"]
        assert counters.get("export.verify_failures", 0) == 0
        assert counters["export.verify_lanes"] == 8 + 16
        rendered = render_telemetry_report(tmp_path / "tel")
        assert "ok    failed deploy verifications (export.verify_failures): 0" in rendered
        assert any(line.split() == ["export.verify_lanes", "24"]
                   for line in rendered.splitlines())
