"""Property tests for DC sweeps of the printed circuits."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.circuits import simulate_negweight_curve, simulate_ptanh_curve
from repro.circuits.ptanh import ptanh_param_batch, ptanh_stamp_plan
from repro.spice import dc_sweep_batch
from repro.spice import sweep as sweep_module
from repro.surrogate.design_space import DESIGN_SPACE


def omega_strategy():
    """Feasible design points via the reduced parameterization."""
    return st.builds(
        lambda u: DESIGN_SPACE.assemble(
            DESIGN_SPACE.reduced_lower
            + np.asarray(u) * (DESIGN_SPACE.reduced_upper - DESIGN_SPACE.reduced_lower)
        ),
        st.lists(st.floats(0.01, 0.99), min_size=7, max_size=7),
    )


class TestSweepInvariants:
    @given(omega=omega_strategy())
    @settings(max_examples=12, deadline=None)
    def test_ptanh_monotone_rising_within_rails(self, omega):
        _, v_out = simulate_ptanh_curve(omega, n_points=13)
        assert np.all(np.diff(v_out) >= -1e-6)
        assert np.all((v_out >= -1e-6) & (v_out <= 1.0 + 1e-6))

    @given(omega=omega_strategy())
    @settings(max_examples=12, deadline=None)
    def test_negweight_monotone_falling_negative(self, omega):
        _, v_out = simulate_negweight_curve(omega, n_points=13)
        assert np.all(np.diff(v_out) <= 1e-6)
        assert np.all(v_out <= 1e-9)
        assert np.all(v_out >= -1.0 - 1e-6)

    @given(omega=omega_strategy())
    @settings(max_examples=8, deadline=None)
    def test_sweep_resolution_consistency(self, omega):
        """A denser sweep must agree with a coarse one at shared points."""
        x_coarse, y_coarse = simulate_ptanh_curve(omega, n_points=5)
        x_fine, y_fine = simulate_ptanh_curve(omega, n_points=9)
        shared = np.isin(np.round(x_fine, 9), np.round(x_coarse, 9))
        assert np.allclose(y_fine[shared], y_coarse, atol=1e-7)


OMEGA = np.array([200.0, 80.0, 100e3, 40e3, 100e3, 500.0, 30.0])


class TestBatchedSweepMechanics:
    def test_each_column_warm_starts_from_the_previous_one(self, monkeypatch):
        """Column j's solved voltages are column j+1's initial guess."""
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(np.broadcast_to(OMEGA, (2, 7)), plan)
        seen_initials = []
        real_solve = sweep_module.solve_dc_batch

        def spying_solve(plan, params, initial=None, **kwargs):
            seen_initials.append(None if initial is None else initial.copy())
            return real_solve(plan, params, initial=initial, **kwargs)

        monkeypatch.setattr(sweep_module, "solve_dc_batch", spying_solve)
        _, volts, ok = dc_sweep_batch(plan, params, "Vin", [0.0, 0.5, 1.0])

        assert ok.all()
        assert seen_initials[0] is None
        assert np.array_equal(seen_initials[1], volts[:, 0])
        assert np.array_equal(seen_initials[2], volts[:, 1])

    def test_values_accept_any_iterable_once(self):
        plan = ptanh_stamp_plan()
        xs, ys, ok = dc_sweep_batch(
            plan, None, "Vin", iter([0.0, 0.5, 1.0]), output_node="out", batch_size=1
        )
        assert np.array_equal(xs, [0.0, 0.5, 1.0])
        assert ys.shape == (1, 3) and ok.all()

    def test_failed_lane_is_masked_and_others_continue(self, monkeypatch):
        """A lane diverging mid-sweep maps to ok=False with NaN from there on,
        while the surviving lanes still match an undisturbed sweep."""
        plan = ptanh_stamp_plan()
        omegas = np.broadcast_to(OMEGA, (3, 7)).copy()
        params = ptanh_param_batch(omegas, plan)
        values = [0.0, 0.5, 1.0]
        reference = dc_sweep_batch(
            plan, ptanh_param_batch(omegas[:1], plan), "Vin", values, output_node="out"
        )[1][0]

        real_solve = sweep_module.solve_dc_batch
        calls = []

        def sabotaging_solve(plan, params, **kwargs):
            solution = real_solve(plan, params, **kwargs)
            if len(calls) == 1:  # second sweep column: kill the middle lane
                solution.converged[1] = False
                solution.voltages[1] = np.nan
            calls.append(True)
            return solution

        monkeypatch.setattr(sweep_module, "solve_dc_batch", sabotaging_solve)
        xs, outputs, ok = dc_sweep_batch(plan, params, "Vin", values, output_node="out")

        assert list(ok) == [True, False, True]
        assert not np.isnan(outputs[1, 0])        # column before the failure
        assert np.isnan(outputs[1, 1:]).all()     # failed column onward
        assert np.array_equal(outputs[0], reference)
        assert np.array_equal(outputs[2], reference)

    def test_batch_size_required_without_params(self):
        plan = ptanh_stamp_plan()
        with pytest.raises(ValueError, match="batch_size"):
            dc_sweep_batch(plan, None, "Vin", [0.0, 1.0])

    def test_full_voltage_trace_when_no_output_node(self):
        plan = ptanh_stamp_plan()
        params = ptanh_param_batch(np.broadcast_to(OMEGA, (2, 7)), plan)
        xs, volts, ok = dc_sweep_batch(plan, params, "Vin", [0.0, 1.0])
        assert volts.shape == (2, 2, plan.n_nodes)
        assert ok.all() and not np.isnan(volts).any()
