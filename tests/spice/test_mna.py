"""MNA solver: analytic linear circuits and nonlinear operating points.

Each netlist is solved as a one-lane ``solve_dc_batch`` (the ``solve_one``
fixture); the validation cases go through ``compile_netlist``, which
validates every netlist the solver sees.
"""

import numpy as np
import pytest

from repro.spice import (
    EGTModel,
    Netlist,
    NetlistError,
    compile_netlist,
    dc_sweep_batch,
    id_gm_gds,
)


class TestLinearCircuits:
    def test_voltage_divider(self, solve_one):
        netlist = Netlist("divider")
        netlist.add_voltage_source("V1", "in", "0", 1.0)
        netlist.add_resistor("R1", "in", "mid", 3000.0)
        netlist.add_resistor("R2", "mid", "0", 1000.0)
        op = solve_one(netlist)
        assert op.voltage("mid")[0] == pytest.approx(0.25, rel=1e-9)

    def test_source_current(self, solve_one):
        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "0", 2.0)
        netlist.add_resistor("R1", "a", "0", 1000.0)
        op = solve_one(netlist)
        # The MNA current flows from + through the source; magnitude 2 mA.
        current = op.source_currents[0, op.plan.source_index("V1")]
        assert abs(current) == pytest.approx(2e-3, rel=1e-9)

    def test_superposition_two_sources(self, solve_one):
        netlist = Netlist()
        netlist.add_voltage_source("Va", "a", "0", 1.0)
        netlist.add_voltage_source("Vb", "b", "0", 2.0)
        netlist.add_resistor("R1", "a", "out", 1000.0)
        netlist.add_resistor("R2", "b", "out", 1000.0)
        netlist.add_resistor("R3", "out", "0", 1000.0)
        op = solve_one(netlist)
        assert op.voltage("out")[0] == pytest.approx(1.0, rel=1e-9)

    def test_wheatstone_bridge_balanced(self, solve_one):
        netlist = Netlist("bridge")
        netlist.add_voltage_source("V1", "top", "0", 1.0)
        for name, a, b in (
            ("R1", "top", "left"), ("R2", "top", "right"),
            ("R3", "left", "0"), ("R4", "right", "0"),
        ):
            netlist.add_resistor(name, a, b, 1000.0)
        netlist.add_resistor("Rg", "left", "right", 500.0)
        op = solve_one(netlist)
        assert op.voltage("left")[0] == pytest.approx(op.voltage("right")[0], abs=1e-9)

    def test_ground_voltage_is_zero(self, solve_one):
        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "0", 1.0)
        netlist.add_resistor("R1", "a", "0", 100.0)
        assert solve_one(netlist).voltage("0")[0] == 0.0


class TestNonlinearCircuits:
    def _inverter(self, vin: float) -> Netlist:
        netlist = Netlist("inverter")
        netlist.add_voltage_source("Vdd", "vdd", "0", 1.0)
        netlist.add_voltage_source("Vin", "g", "0", vin)
        netlist.add_resistor("RL", "vdd", "d", 100e3)
        netlist.add_egt("T1", "d", "g", "0", 500, 30, EGTModel())
        return netlist

    def test_inverter_inverts(self, solve_one):
        low = solve_one(self._inverter(0.0)).voltage("d")[0]
        high = solve_one(self._inverter(1.0)).voltage("d")[0]
        assert low > 0.9
        assert high < 0.3
        assert low > high

    def test_kcl_at_drain(self, solve_one):
        """Resistor current must equal transistor current at the drain."""
        netlist = self._inverter(0.6)
        op = solve_one(netlist)
        vd = op.voltage("d")[0]
        resistor_current = (1.0 - vd) / 100e3
        egt = netlist.transistors[0]
        model = egt.model
        device_current, _, _ = id_gm_gds(
            0.6, vd, model.k_prime * egt.width / egt.length,
            model.v_threshold, model.phi, model.channel_lambda,
        )
        assert resistor_current == pytest.approx(float(device_current), rel=1e-5)

    def test_warm_start_converges_faster(self, solve_one):
        netlist = self._inverter(0.55)
        cold = solve_one(netlist)
        warm = solve_one(netlist, initial=cold.voltages)
        assert warm.iterations[0] <= cold.iterations[0]

    def test_sweep_monotone_falling(self):
        plan = compile_netlist(self._inverter(0.0))
        xs, ys, ok = dc_sweep_batch(
            plan, None, "Vin", np.linspace(0, 1, 21), output_node="d", batch_size=1
        )
        assert ok.all()
        assert np.all(np.diff(ys[0]) <= 1e-9)


class TestValidation:
    def test_empty_netlist_rejected(self):
        with pytest.raises(NetlistError):
            compile_netlist(Netlist())

    def test_floating_node_rejected(self):
        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "0", 1.0)
        netlist.add_resistor("R1", "a", "0", 100.0)
        netlist.add_resistor("R2", "x", "y", 100.0)   # island
        with pytest.raises(NetlistError, match="not connected"):
            compile_netlist(netlist)

    def test_no_ground_rejected(self):
        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "b", 1.0)
        netlist.add_resistor("R1", "a", "b", 100.0)
        with pytest.raises(NetlistError):
            compile_netlist(netlist)

    def test_duplicate_device_name_rejected(self):
        netlist = Netlist()
        netlist.add_resistor("R1", "a", "0", 100.0)
        with pytest.raises(ValueError, match="duplicate"):
            netlist.add_resistor("R1", "b", "0", 100.0)

    def test_nonpositive_resistance_rejected(self):
        with pytest.raises(ValueError):
            Netlist().add_resistor("R1", "a", "0", 0.0)

    def test_unknown_source_lookup(self):
        netlist = Netlist()
        netlist.add_resistor("R1", "a", "0", 100.0)
        with pytest.raises(KeyError):
            netlist.source("Vmissing")

    def test_nodes_exclude_ground(self):
        netlist = Netlist()
        netlist.add_voltage_source("V1", "a", "0", 1.0)
        netlist.add_resistor("R1", "a", "b", 1.0)
        netlist.add_resistor("R2", "b", "0", 1.0)
        assert set(netlist.nodes()) == {"a", "b"}
