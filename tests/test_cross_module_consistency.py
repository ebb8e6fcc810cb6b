"""Cross-module consistency: the pNN math must equal the circuit physics.

The printed layer's weighted sum is an abstraction of the resistor
crossbar; these tests close the loop between ``repro.core`` (training
math), ``repro.circuits`` (analytic circuit model) and ``repro.spice``
(solved netlist).
"""

import numpy as np
import pytest

from repro.circuits import CrossbarColumn, crossbar_netlist, crossbar_output
from repro.core import ConductanceConfig, PrintedLayer, kernels
from repro.core.grad_kernels import project_printable, reassemble_omega_fwd
from repro.core.params import snapshot_surrogate
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE

CONDUCTANCE = ConductanceConfig()


def make_layer(n_in, n_out, seed=0):
    """A crossbar-only layer (no activation) with random initial θ."""
    return PrintedLayer(
        theta=CONDUCTANCE.init_theta((n_in + 2, n_out), np.random.default_rng(seed)),
        w_act=np.zeros((1, 7)),
        w_neg=np.zeros((1, 7)),
        apply_activation=False,
    )


def printable_theta(layer):
    return project_printable(layer.theta, CONDUCTANCE.g_min, CONDUCTANCE.g_max)


def layer_forward(layer, x):
    """The layer's printable design through ``kernels.layer_forward``."""
    out, _ = kernels.layer_forward(
        x,
        printable_theta(layer),
        reassemble_omega_fwd(layer.w_act, DESIGN_SPACE)[0],
        reassemble_omega_fwd(layer.w_neg, DESIGN_SPACE)[0],
        layer.apply_activation,
        snapshot_surrogate(AnalyticSurrogate("ptanh")),
        snapshot_surrogate(AnalyticSurrogate("negweight")),
    )
    return out


class TestLayerVsCrossbar:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_positive_theta_matches_analytic_crossbar(self, seed):
        """For all-positive θ the layer output IS Eq. 1."""
        layer = make_layer(3, 1, seed=seed)
        layer.theta = np.abs(layer.theta)
        theta = printable_theta(layer)[:, 0]

        rng = np.random.default_rng(seed + 10)
        voltages = rng.uniform(0.0, 1.0, size=3)
        column = CrossbarColumn(
            input_conductances=theta[:3],
            bias_conductance=theta[3],
            down_conductance=theta[4],
        )
        expected = crossbar_output(column, voltages)
        out = layer_forward(layer, voltages.reshape(1, 1, 3))[0, 0, 0]
        assert out == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize("seed", [0, 3])
    def test_positive_theta_matches_solved_netlist(self, solve_one, seed):
        """...and the solved physical netlist agrees with both."""
        layer = make_layer(2, 1, seed=seed)
        layer.theta = np.abs(layer.theta)
        theta = printable_theta(layer)[:, 0]

        # The surrogate conductances are dimensionless; the netlist check
        # uses the export scale (weights g/G are scale invariant).
        from repro.exporting.report import PHYSICAL_SCALE

        voltages = np.array([0.35, 0.8])
        column = CrossbarColumn(
            input_conductances=theta[:2] * PHYSICAL_SCALE,
            bias_conductance=theta[2] * PHYSICAL_SCALE,
            down_conductance=theta[3] * PHYSICAL_SCALE,
        )
        solved = solve_one(crossbar_netlist(column, voltages)).voltage("vz")[0]
        out = layer_forward(layer, voltages.reshape(1, 1, 2))[0, 0, 0]
        assert out == pytest.approx(solved, abs=1e-6)

    def test_scale_invariance_of_the_weighted_sum(self):
        """Multiplying a whole column by a constant leaves V_z unchanged —
        the physical reason surrogate conductances are dimensionless."""
        layer = make_layer(3, 2, seed=5)
        layer.theta = np.abs(layer.theta)
        x = np.random.default_rng(0).uniform(size=(1, 4, 3))
        before = layer_forward(layer, x)
        layer.theta = layer.theta * 3.7
        layer.theta = np.clip(layer.theta, 0.01, 10.0)  # stay printable
        after = layer_forward(layer, x)
        assert np.allclose(before, after, atol=1e-9)


class TestActivationVsCircuitSim:
    def test_learned_activation_matches_its_own_circuit(self):
        """The η the pNN uses must describe the circuit that ω builds.

        Round trip: take a fresh circuit's printable ω, sweep the *physical*
        circuit with the DC solver, fit η to that sweep, and compare with
        the surrogate's prediction the pNN trained against.  The NN
        surrogate carries regression error, so the analytic surrogate used
        here is calibrated on a sample first.
        """
        from repro.circuits import simulate_ptanh_curve
        from repro.surrogate import build_surrogate_dataset, fit_ptanh

        dataset = build_surrogate_dataset("ptanh", n_points=64, sweep_points=21, seed=21)
        surrogate = AnalyticSurrogate("ptanh").calibrate(dataset)
        # A layer-shared circuit starts at 𝔴 = 0, the mid-range design.
        omega = reassemble_omega_fwd(np.zeros((1, 7)), DESIGN_SPACE)[0][0]
        v_in, v_out = simulate_ptanh_curve(omega, n_points=21)
        fitted = fit_ptanh(v_in, v_out).eta
        predicted = surrogate.eta_from_omega(omega[None])[0]
        # Calibrated first-order physics: centre and amplitude within ~0.2 V.
        assert predicted[0] == pytest.approx(fitted[0], abs=0.2)
        assert predicted[1] == pytest.approx(fitted[1], abs=0.2)
        assert predicted[2] == pytest.approx(fitted[2], abs=0.25)
