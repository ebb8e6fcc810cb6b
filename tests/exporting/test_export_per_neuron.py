"""Export of per-neuron bespoke designs and remaining small accessors."""

import numpy as np

from repro.core import PrintedNeuralNetwork
from repro.exporting import design_report, export_netlist_text
from repro.surrogate import AnalyticSurrogate


class TestPerNeuronExport:
    def _pnn(self):
        surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
        return PrintedNeuralNetwork(
            [3, 4, 2], surrogates, per_neuron_activation=True,
            rng=np.random.default_rng(0),
        )

    def test_report_lists_every_bespoke_circuit(self):
        report = design_report(self._pnn())
        assert report.layers[0].activation_omega.shape == (4, 7)
        assert report.layers[1].activation_omega.shape == (2, 7)
        summary = report.summary()
        assert "activation circuit 3" in summary     # four circuits on layer 0

    def test_netlist_exports_for_per_neuron_design(self):
        text = export_netlist_text(self._pnn())
        assert text.endswith(".end")
        act_cards = [l for l in text.splitlines() if l.startswith("Xact_")]
        assert len(act_cards) == 6                    # 4 + 2 outputs


class TestSmallAccessors:
    def test_netlist_devices_property(self):
        from repro.spice import Netlist

        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "0", 1.0)
        netlist.add_resistor("R1", "a", "0", 10.0)
        assert len(netlist.devices) == 2
