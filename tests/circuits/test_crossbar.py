"""Crossbar: the analytic Eq. 1 must match the solved netlist."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import CrossbarColumn, crossbar_netlist, crossbar_output


def column(gs, gb=1e-5, gd=1e-5, vb=1.0):
    return CrossbarColumn(
        input_conductances=gs, bias_conductance=gb, down_conductance=gd, bias_voltage=vb
    )


class TestAnalytic:
    def test_weights_sum_below_one(self):
        col = column([1e-5, 2e-5, 3e-5])
        assert col.weights().sum() + col.bias_weight() < 1.0

    def test_equal_conductances_average(self):
        col = column([1e-5, 1e-5], gb=1e-5, gd=1e-5)
        out = crossbar_output(col, [0.2, 0.6])
        # All four branches weigh 1/4: (0.2 + 0.6 + 1.0·bias + 0·down)/4
        assert out == pytest.approx((0.2 + 0.6 + 1.0) / 4.0)

    def test_bias_only(self):
        col = column([0.0, 0.0], gb=2e-5, gd=2e-5)
        assert crossbar_output(col, [0.9, 0.9]) == pytest.approx(0.5)

    def test_output_bounded_by_inputs_and_bias(self):
        col = column([3e-5, 1e-5], gb=2e-5, gd=1e-5)
        out = crossbar_output(col, [0.3, 0.8])
        assert 0.0 <= out <= 1.0

    def test_rejects_negative_conductance(self):
        with pytest.raises(ValueError):
            column([-1e-5])

    def test_rejects_mismatched_inputs(self):
        with pytest.raises(ValueError):
            crossbar_output(column([1e-5, 1e-5]), [0.5])


class TestAgainstSolver:
    @given(
        gs=st.lists(st.floats(1e-6, 1e-4), min_size=1, max_size=5),
        voltages_seed=st.integers(0, 1000),
        gb=st.floats(1e-6, 1e-4),
        gd=st.floats(1e-6, 1e-4),
    )
    @settings(max_examples=40, deadline=None)
    def test_analytic_matches_netlist(self, solve_one, gs, voltages_seed, gb, gd):
        rng = np.random.default_rng(voltages_seed)
        voltages = rng.uniform(0.0, 1.0, size=len(gs))
        col = column(gs, gb=gb, gd=gd)
        predicted = crossbar_output(col, voltages)
        netlist = crossbar_netlist(col, voltages)
        solved = solve_one(netlist).voltage("vz")[0]
        assert solved == pytest.approx(predicted, abs=1e-6)

    def test_zero_conductance_not_printed(self):
        col = column([1e-5, 0.0], gb=1e-5, gd=1e-5)
        netlist = crossbar_netlist(col, [0.5, 0.9])
        names = [r.name for r in netlist.resistors]
        assert "Rc1" not in names and "Rc0" in names

    def test_netlist_output_with_zero_branch_matches(self, solve_one):
        col = column([1e-5, 0.0], gb=1e-5, gd=1e-5)
        predicted = crossbar_output(col, [0.5, 0.9])
        solved = solve_one(crossbar_netlist(col, [0.5, 0.9])).voltage("vz")[0]
        assert solved == pytest.approx(predicted, abs=1e-6)
