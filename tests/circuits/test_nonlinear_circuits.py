"""ptanh and negative-weight circuits: structure and transfer curves."""

import numpy as np
import pytest

from repro.circuits import (
    PTANH_NODES,
    build_ptanh_netlist,
    simulate_negweight_curve,
    simulate_ptanh_curve,
)
from repro.surrogate.sampling import sample_design_points

#: A mid-range, expressive design point used across these tests.
OMEGA = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])


class TestNetlistStructure:
    def test_component_counts(self):
        netlist = build_ptanh_netlist(OMEGA)
        assert len(netlist.resistors) == 6     # R1..R5 + fixed stage-2 load
        assert len(netlist.transistors) == 2
        assert len(netlist.sources) == 2       # Vdd + Vin

    def test_resistor_values_match_omega(self):
        netlist = build_ptanh_netlist(OMEGA)
        values = {r.name: r.resistance for r in netlist.resistors}
        assert values["R1"] == 200.0
        assert values["R2"] == 80.0
        assert values["R3"] == 100e3
        assert values["R4"] == 40e3
        assert values["R5"] == 100e3

    def test_transistor_geometry(self):
        netlist = build_ptanh_netlist(OMEGA)
        for egt in netlist.transistors:
            assert egt.width == 500.0
            assert egt.length == 30.0

    def test_rejects_bad_omega(self):
        with pytest.raises(ValueError):
            build_ptanh_netlist(OMEGA[:5])
        bad = OMEGA.copy()
        bad[0] = -1.0
        with pytest.raises(ValueError):
            build_ptanh_netlist(bad)

    def test_solvable_at_operating_point(self, solve_one):
        op = solve_one(build_ptanh_netlist(OMEGA, vin=0.5))
        assert 0.0 <= op.voltage(PTANH_NODES["output"])[0] <= 1.0


class TestTransferCurves:
    def test_ptanh_rises_with_input(self):
        x, y = simulate_ptanh_curve(OMEGA, n_points=21)
        assert y[-1] > y[0]
        assert np.all(np.diff(y) >= -1e-9)   # monotone rising

    def test_ptanh_output_within_rails(self):
        _, y = simulate_ptanh_curve(OMEGA, n_points=21)
        assert np.all((y >= -1e-9) & (y <= 1.0 + 1e-9))

    def test_negweight_falls_and_is_negative(self):
        x, y = simulate_negweight_curve(OMEGA, n_points=21)
        assert np.all(y <= 0.0)
        assert np.all(np.diff(y) <= 1e-9)    # monotone falling

    def test_curves_respond_to_geometry(self):
        strong = OMEGA.copy(); strong[5], strong[6] = 800.0, 10.0
        weak = OMEGA.copy(); weak[5], weak[6] = 200.0, 70.0
        _, y_strong = simulate_ptanh_curve(strong, n_points=15)
        _, y_weak = simulate_ptanh_curve(weak, n_points=15)
        swing = lambda y: y.max() - y.min()   # noqa: E731
        assert swing(y_strong) != pytest.approx(swing(y_weak), abs=1e-3)

    def test_divider_shifts_trip_point(self):
        attenuating = OMEGA.copy(); attenuating[0], attenuating[1] = 400.0, 60.0
        passing = OMEGA.copy(); passing[0], passing[1] = 100.0, 90.0
        x, y_att = simulate_ptanh_curve(attenuating, n_points=31)
        _, y_pass = simulate_ptanh_curve(passing, n_points=31)
        trip = lambda y: x[np.argmax(np.diff(y))]   # noqa: E731
        assert trip(y_att) > trip(y_pass)

    def test_most_design_points_yield_expressive_curves(self):
        omegas = sample_design_points(24, seed=9)
        swings = []
        for omega in omegas:
            _, y = simulate_ptanh_curve(omega, n_points=15)
            swings.append(y.max() - y.min())
        assert np.mean(np.asarray(swings) > 0.1) > 0.5
