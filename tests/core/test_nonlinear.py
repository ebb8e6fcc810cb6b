"""Learnable nonlinear circuit module (the Fig. 5 processing chain).

The module holds 𝔴; the chain runs through the kernels: 𝔴 → ω
(``reassemble_omega_fwd``), ω → η (``kernels.circuit_eta``) and the
Eq. 2/3 transfer (``transfer_fwd``), with their VJPs.
"""

import numpy as np
import pytest

from repro.core import LearnableNonlinearCircuit, kernels
from repro.core.grad_kernels import (
    reassemble_omega_bwd,
    reassemble_omega_fwd,
    surrogate_eta_bwd,
    surrogate_eta_fwd,
    transfer_bwd,
    transfer_fwd,
)
from repro.core.params import snapshot_surrogate
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE


@pytest.fixture
def act_circuit():
    return LearnableNonlinearCircuit(
        AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh", rng=np.random.default_rng(0)
    )


@pytest.fixture
def neg_circuit():
    return LearnableNonlinearCircuit(
        AnalyticSurrogate("negweight"), DESIGN_SPACE, "negweight",
        rng=np.random.default_rng(0),
    )


def eta(circuit, epsilon_omega=None):
    """η ``(n_mc | 1, n_circuits, 4)`` of a circuit's printable design."""
    return kernels.circuit_eta(
        circuit.printable_omega(), snapshot_surrogate(circuit.surrogate), epsilon_omega
    )


def transfer(circuit, voltage):
    """The circuit's nominal transfer applied to voltages ``(n_mc, B, F)``."""
    out, _ = transfer_fwd(voltage, eta(circuit), circuit.kind)
    return out


class TestPrintableOmega:
    def test_default_is_mid_range(self, act_circuit):
        omega = act_circuit.printable_omega()[0]
        centre_r1 = (DESIGN_SPACE.lower[0] + DESIGN_SPACE.upper[0]) / 2
        assert omega[0] == pytest.approx(centre_r1, rel=0.01)

    def test_always_feasible(self, act_circuit):
        for value in (-10.0, -1.0, 0.0, 1.0, 10.0):
            act_circuit.w_raw.data[:] = value
            omega = act_circuit.printable_omega()[0]
            assert DESIGN_SPACE.contains(omega, atol=1e-6), omega

    def test_respects_divider_inequalities_at_extremes(self, act_circuit):
        rng = np.random.default_rng(0)
        for _ in range(20):
            act_circuit.w_raw.data[:] = rng.normal(scale=4.0, size=(1, 7))
            omega = act_circuit.printable_omega()[0]
            assert omega[1] <= omega[0] + 1e-9
            assert omega[3] <= omega[2] + 1e-9

    def test_differentiable_chain(self, act_circuit):
        # Gradients must flow from the printable ω back to the raw 𝔴.
        omega, ctx = reassemble_omega_fwd(act_circuit.w_raw.data, DESIGN_SPACE)
        grad = reassemble_omega_bwd(np.ones_like(omega), ctx)
        assert grad.shape == act_circuit.w_raw.shape
        assert np.any(grad != 0)

    def test_per_neuron_shape(self):
        circuit = LearnableNonlinearCircuit(
            AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh",
            n_circuits=3, rng=np.random.default_rng(1),
        )
        assert circuit.printable_omega().shape == (3, 7)


class TestEta:
    def test_nominal_shape(self, act_circuit):
        assert eta(act_circuit).shape == (1, 1, 4)

    def test_variation_shape(self, act_circuit):
        eps = np.random.default_rng(0).uniform(0.9, 1.1, size=(5, 1, 7))
        assert eta(act_circuit, eps).shape == (5, 1, 4)

    def test_variation_changes_eta(self, act_circuit):
        eps = np.random.default_rng(0).uniform(0.9, 1.1, size=(5, 1, 7))
        etas = eta(act_circuit, eps)
        assert np.std(etas, axis=0).max() > 0

    def test_rejects_bad_eps_shape(self, act_circuit):
        with pytest.raises(ValueError):
            eta(act_circuit, np.ones((5, 2, 7)))

    def test_gradient_reaches_w(self, act_circuit):
        sp = snapshot_surrogate(act_circuit.surrogate)
        omega, ctx_re = reassemble_omega_fwd(act_circuit.w_raw.data, DESIGN_SPACE)
        values, ctx_sp = surrogate_eta_fwd(omega[None], sp)
        d_omega = surrogate_eta_bwd(np.ones_like(values), ctx_sp, sp)[0]
        assert np.any(reassemble_omega_bwd(d_omega, ctx_re) != 0)


class TestTransfer:
    def test_ptanh_formula(self, act_circuit):
        eta = np.array([[[0.5, 0.3, 0.4, 5.0]]])
        voltage = np.linspace(0, 1, 7).reshape(1, 7, 1)
        out, _ = transfer_fwd(voltage, eta, act_circuit.kind)
        expected = 0.5 + 0.3 * np.tanh((voltage - 0.4) * 5.0)
        assert np.allclose(out, expected)

    def test_negweight_is_negated(self, neg_circuit):
        eta = np.array([[[0.5, 0.3, 0.4, 5.0]]])
        voltage = np.linspace(0, 1, 7).reshape(1, 7, 1)
        out, _ = transfer_fwd(voltage, eta, neg_circuit.kind)
        expected = -(0.5 + 0.3 * np.tanh((voltage - 0.4) * 5.0))
        assert np.allclose(out, expected)

    def test_forward_monotone_for_activation(self, act_circuit):
        voltage = np.linspace(0, 1, 11).reshape(1, 11, 1)
        out = transfer(act_circuit, voltage)[0, :, 0]
        assert np.all(np.diff(out) >= -1e-9)

    def test_forward_antitone_for_negation(self, neg_circuit):
        voltage = np.linspace(0, 1, 11).reshape(1, 11, 1)
        out = transfer(neg_circuit, voltage)[0, :, 0]
        assert np.all(np.diff(out) <= 1e-9)

    def test_per_neuron_transfer_broadcasts(self):
        circuit = LearnableNonlinearCircuit(
            AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh",
            n_circuits=4, rng=np.random.default_rng(2),
        )
        voltage = np.random.default_rng(0).uniform(size=(2, 5, 4))
        assert transfer(circuit, voltage).shape == (2, 5, 4)

    def test_full_chain_gradcheck(self, act_circuit, numeric_grad):
        # Finite-difference check through the whole ω → η → transfer chain
        # w.r.t. the voltage input (𝔴 gradients are checked above).
        voltage = np.random.default_rng(1).uniform(0.2, 0.8, size=(1, 4, 2))
        values = eta(act_circuit)
        out, ctx = transfer_fwd(voltage, values, "ptanh")
        analytic, _ = transfer_bwd(np.ones_like(out), ctx)
        numeric = numeric_grad(lambda v: transfer_fwd(v, values, "ptanh")[0].sum(), voltage)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)

    def test_invalid_kind_rejected(self):
        with pytest.raises(ValueError):
            LearnableNonlinearCircuit(
                AnalyticSurrogate("ptanh"), DESIGN_SPACE, "relu"
            )

    def test_invalid_circuit_count_rejected(self):
        with pytest.raises(ValueError):
            LearnableNonlinearCircuit(
                AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh", n_circuits=0
            )
