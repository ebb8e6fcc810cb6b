"""Design export: bill of components and netlist text."""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork
from repro.core.grad_kernels import project_printable
from repro.exporting import design_report, export_netlist_text
from repro.exporting.report import PHYSICAL_SCALE
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE


@pytest.fixture
def pnn():
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork([3, 3, 2], surrogates, rng=np.random.default_rng(0))


class TestDesignReport:
    def test_layer_count(self, pnn):
        report = design_report(pnn)
        assert len(report.layers) == 2
        assert report.layer_sizes == [3, 3, 2]

    def test_resistances_physical_range(self, pnn):
        report = design_report(pnn)
        for layer in report.layers:
            finite = layer.crossbar_resistances[np.isfinite(layer.crossbar_resistances)]
            # Surrogate band [0.01, 10] with scale 1e-5 → 10 kΩ .. 10 MΩ.
            assert np.all(finite >= 1.0 / (10.0 * PHYSICAL_SCALE) - 1e-6)
            assert np.all(finite <= 1.0 / (0.01 * PHYSICAL_SCALE) + 1e-6)

    def test_negation_mask_matches_theta_sign(self, pnn):
        report = design_report(pnn)
        config = pnn.conductance
        for layer, player in zip(report.layers, pnn.layers):
            printed = project_printable(player.theta, config.g_min, config.g_max)
            assert np.array_equal(layer.negated_inputs, printed < 0)

    def test_omega_within_design_space(self, pnn):
        report = design_report(pnn)
        for layer in report.layers:
            for omega in layer.activation_omega:
                assert DESIGN_SPACE.contains(omega, atol=1e-6)
            for omega in layer.negation_omega:
                assert DESIGN_SPACE.contains(omega, atol=1e-6)

    def test_summary_readable(self, pnn):
        summary = design_report(pnn).summary()
        assert "topology 3-3-2" in summary
        assert "kΩ" in summary and "µm" in summary

    def test_total_count_consistent(self, pnn):
        report = design_report(pnn)
        assert report.total_printed_resistors == sum(
            layer.printed_resistor_count for layer in report.layers
        )


class TestNetlistExport:
    def test_contains_all_sections(self, pnn):
        text = export_netlist_text(pnn, title="unit test")
        assert text.startswith("* unit test")
        assert "---- layer 0 ----" in text
        assert "---- layer 1 ----" in text
        assert text.endswith(".end")

    def test_one_card_per_printed_resistor(self, pnn):
        report = design_report(pnn)
        text = export_netlist_text(pnn)
        resistor_cards = [l for l in text.splitlines() if l.startswith("R")]
        assert len(resistor_cards) == report.total_printed_resistors

    def test_negative_routes_have_inverter_instances(self, pnn):
        pnn.layers[0].theta[0, 0] = -0.5   # force one negative weight
        text = export_netlist_text(pnn)
        assert "Xinv_0_0_0" in text

    def test_activation_instances_per_output(self, pnn):
        text = export_netlist_text(pnn)
        # Layer 0 has 3 outputs, layer 1 has 2 → 5 activation instances.
        act_cards = [l for l in text.splitlines() if l.startswith("Xact_")]
        assert len(act_cards) == 5
