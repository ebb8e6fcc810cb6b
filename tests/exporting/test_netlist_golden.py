"""Byte-identity of the untiled netlist and structure of the tiled one.

The golden files under ``tests/exporting/golden/`` were recorded from the
flat exporter *before* the tiling compiler existed; ``export_netlist_text``
now routes through ``compile_tiling`` + the single-tile emission branch
and must reproduce them byte for byte.
"""

from collections import defaultdict
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork
from repro.exporting import (
    TileSpec,
    compile_tiling,
    design_report,
    export_netlist_text,
    export_tiled_netlist_text,
)
from repro.surrogate import AnalyticSurrogate

GOLDEN_DIR = Path(__file__).parent / "golden"
SURROGATES = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))


def _golden(name: str) -> str:
    return (GOLDEN_DIR / name).read_text()


class TestUntiledByteIdentity:
    def test_plain_design(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        text = export_netlist_text(pnn, title="golden") + "\n"
        assert text == _golden("untiled_3_3_2.netlist")

    def test_per_neuron_activation(self):
        pnn = PrintedNeuralNetwork(
            [4, 3, 3], SURROGATES, rng=np.random.default_rng(1),
            per_neuron_activation=True,
        )
        text = export_netlist_text(pnn, title="golden-per-neuron") + "\n"
        assert text == _golden("untiled_per_neuron_4_3_3.netlist")

    def test_negated_routes(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        pnn.layers[0].theta[0, 0] = -0.5
        pnn.layers[1].theta[2, 1] = -1.7
        text = export_netlist_text(pnn, title="golden-negated") + "\n"
        assert text == _golden("untiled_negated_3_3_2.netlist")

    def test_matches_unbounded_tiled_emitter(self):
        """export_netlist_text IS the unbounded single-tile special case."""
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        tiled = compile_tiling(pnn, TileSpec())
        assert tiled.is_untiled
        assert export_tiled_netlist_text(tiled, title="golden") == export_netlist_text(
            pnn, title="golden"
        )


def _column_conductances(text: str) -> dict:
    """Sum 1/R per output node over all resistor cards of a netlist."""
    sums = defaultdict(float)
    for line in text.splitlines():
        if not line.startswith("R"):
            continue
        _name, _a, node_b, resistance = line.split()
        sums[node_b] += 1.0 / float(resistance)
    return sums


class TestTiledNetlist:
    @pytest.fixture
    def pnn(self):
        pnn = PrintedNeuralNetwork([6, 10, 4], SURROGATES, rng=np.random.default_rng(5))
        pnn.layers[0].theta[1, 2] = -0.3
        return pnn

    def test_conductance_per_column_conserved(self, pnn):
        """Tiling re-places devices; the summed conductance at each column
        node must equal the flat netlist's (the electrical invariant)."""
        flat = _column_conductances(export_netlist_text(pnn))
        for policy in ("first", "split"):
            tiled = compile_tiling(pnn, TileSpec(8, 8, bias_policy=policy))
            cond = _column_conductances(export_tiled_netlist_text(tiled))
            assert set(cond) == set(flat)
            for node in flat:
                # cards print 4 significant digits; exact conservation on
                # the arrays is covered by tests/exporting/test_tiling.py
                assert cond[node] == pytest.approx(flat[node], rel=1e-3)

    def test_structure(self, pnn):
        tiled = compile_tiling(pnn, TileSpec(8, 8))
        text = export_tiled_netlist_text(tiled, title="tiled")
        lines = text.splitlines()
        assert lines[0] == "* tiled: printed neuromorphic circuit"
        assert any(l.startswith("* tiling: 8x8") for l in lines)
        assert text.rstrip().endswith(".end")
        # one section header per tile
        headers = [l for l in lines if l.startswith("* -- tile ")]
        assert len(headers) == tiled.n_tiles
        # inter-tile summing nodes are called out
        assert any(l.startswith("* summing node ") for l in lines)
        # device names unique
        cards = [l.split()[0] for l in lines if l[0] in "RX"]
        assert len(cards) == len(set(cards))

    def test_device_card_count_matches_design(self, pnn):
        tiled = compile_tiling(pnn, TileSpec(8, 8))
        text = export_tiled_netlist_text(tiled)
        r_cards = [l for l in text.splitlines() if l.startswith("R_")]
        assert len(r_cards) == tiled.n_devices
        inv_cards = [l for l in text.splitlines() if l.startswith("Xinv_")]
        assert len(inv_cards) == tiled.n_inverters

    def test_activation_instances_per_output(self, pnn):
        tiled = compile_tiling(pnn, TileSpec(8, 8))
        text = export_tiled_netlist_text(tiled)
        act = [l for l in text.splitlines() if l.startswith("Xact_")]
        assert len(act) == 10 + 4


class TestSkippedDeviceAccounting:
    def test_zero_theta_is_benign(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        pnn.layers[0].theta[0, 0] = 0.0
        report = design_report(pnn)
        assert report.layers[0].skipped_zero == 1
        assert report.layers[0].skipped_load_bearing == 0
        assert report.total_skipped_devices == 1
        assert "skipped devices: 1 (0 load-bearing)" in report.summary()

    def test_nan_theta_is_load_bearing(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        pnn.layers[1].theta[1, 1] = np.nan
        report = design_report(pnn)
        assert report.layers[1].skipped_load_bearing == 1
        assert report.total_load_bearing_skips == 1

    def test_clean_design_reports_nothing(self):
        pnn = PrintedNeuralNetwork([3, 3, 2], SURROGATES, rng=np.random.default_rng(0))
        report = design_report(pnn)
        assert report.total_skipped_devices == 0
        assert "skipped" not in report.summary()
