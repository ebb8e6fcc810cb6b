"""Learnable nonlinear circuits: the Fig. 5 processing chain over raw 𝔴.

A circuit is its raw ``(C, 7)`` array 𝔴; the chain runs through the
kernels: 𝔴 → ω (``reassemble_omega_fwd``), ω → η (``circuit_eta_fwd``)
and the Eq. 2/3 transfer (``transfer_fwd``), with their VJPs.
"""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork
from repro.core.grad_kernels import (
    circuit_eta_fwd,
    reassemble_omega_bwd,
    reassemble_omega_fwd,
    surrogate_eta_bwd,
    surrogate_eta_fwd,
    transfer_bwd,
    transfer_fwd,
)
from repro.core.params import snapshot_surrogate
from repro.core.variation import Perturbation
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE

SURROGATES = {"ptanh": AnalyticSurrogate("ptanh"), "negweight": AnalyticSurrogate("negweight")}


@pytest.fixture
def w_raw():
    """One layer-shared circuit's 𝔴 as a network initializes it (mid-range)."""
    pnn = PrintedNeuralNetwork([2, 2], tuple(SURROGATES.values()), rng=np.random.default_rng(0))
    return pnn.layers[0].w_act


def per_neuron_w(n_circuits, seed):
    """The per-neuron activation 𝔴 ``(n_circuits, 7)`` of a one-layer network."""
    pnn = PrintedNeuralNetwork(
        [2, n_circuits], tuple(SURROGATES.values()),
        per_neuron_activation=True, rng=np.random.default_rng(seed),
    )
    return pnn.layers[0].w_act


def printable_omega(w):
    return reassemble_omega_fwd(w, DESIGN_SPACE)[0]


def eta(w, kind="ptanh", epsilon_omega=None):
    """η ``(n_mc | 1, n_circuits, 4)`` of a circuit's printable design."""
    out, _ = circuit_eta_fwd(
        printable_omega(w), epsilon_omega, snapshot_surrogate(SURROGATES[kind])
    )
    return out


def transfer(w, kind, voltage):
    """The circuit's nominal transfer applied to voltages ``(n_mc, B, F)``."""
    out, _ = transfer_fwd(voltage, eta(w, kind), kind)
    return out


class TestPrintableOmega:
    def test_default_is_mid_range(self, w_raw):
        omega = printable_omega(w_raw)[0]
        centre_r1 = (DESIGN_SPACE.lower[0] + DESIGN_SPACE.upper[0]) / 2
        assert omega[0] == pytest.approx(centre_r1, rel=0.01)

    def test_always_feasible(self, w_raw):
        for value in (-10.0, -1.0, 0.0, 1.0, 10.0):
            w_raw[:] = value
            omega = printable_omega(w_raw)[0]
            assert DESIGN_SPACE.contains(omega, atol=1e-6), omega

    def test_respects_divider_inequalities_at_extremes(self, w_raw):
        rng = np.random.default_rng(0)
        for _ in range(20):
            w_raw[:] = rng.normal(scale=4.0, size=(1, 7))
            omega = printable_omega(w_raw)[0]
            assert omega[1] <= omega[0] + 1e-9
            assert omega[3] <= omega[2] + 1e-9

    def test_differentiable_chain(self, w_raw):
        # Gradients must flow from the printable ω back to the raw 𝔴.
        omega, ctx = reassemble_omega_fwd(w_raw, DESIGN_SPACE)
        grad = reassemble_omega_bwd(np.ones_like(omega), ctx)
        assert grad.shape == w_raw.shape
        assert np.any(grad != 0)

    def test_per_neuron_shape(self):
        assert printable_omega(per_neuron_w(3, seed=1)).shape == (3, 7)


class TestEta:
    def test_nominal_shape(self, w_raw):
        assert eta(w_raw).shape == (1, 1, 4)

    def test_variation_shape(self, w_raw):
        eps = Perturbation(np.random.default_rng(0).uniform(0.9, 1.1, size=(5, 1, 7)))
        assert eta(w_raw, epsilon_omega=eps).shape == (5, 1, 4)

    def test_variation_changes_eta(self, w_raw):
        eps = Perturbation(np.random.default_rng(0).uniform(0.9, 1.1, size=(5, 1, 7)))
        etas = eta(w_raw, epsilon_omega=eps)
        assert np.std(etas, axis=0).max() > 0

    def test_rejects_bad_eps_shape(self, w_raw):
        with pytest.raises(ValueError):
            eta(w_raw, epsilon_omega=Perturbation(np.ones((5, 2, 7))))

    def test_gradient_reaches_w(self, w_raw):
        sp = snapshot_surrogate(SURROGATES["ptanh"])
        omega, ctx_re = reassemble_omega_fwd(w_raw, DESIGN_SPACE)
        values, ctx_sp = surrogate_eta_fwd(omega[None], sp)
        d_omega = surrogate_eta_bwd(np.ones_like(values), ctx_sp, sp)[0]
        assert np.any(reassemble_omega_bwd(d_omega, ctx_re) != 0)


class TestTransfer:
    def test_ptanh_formula(self):
        eta = np.array([[[0.5, 0.3, 0.4, 5.0]]])
        voltage = np.linspace(0, 1, 7).reshape(1, 7, 1)
        out, _ = transfer_fwd(voltage, eta, "ptanh")
        expected = 0.5 + 0.3 * np.tanh((voltage - 0.4) * 5.0)
        assert np.allclose(out, expected)

    def test_negweight_is_negated(self):
        eta = np.array([[[0.5, 0.3, 0.4, 5.0]]])
        voltage = np.linspace(0, 1, 7).reshape(1, 7, 1)
        out, _ = transfer_fwd(voltage, eta, "negweight")
        expected = -(0.5 + 0.3 * np.tanh((voltage - 0.4) * 5.0))
        assert np.allclose(out, expected)

    def test_forward_monotone_for_activation(self, w_raw):
        voltage = np.linspace(0, 1, 11).reshape(1, 11, 1)
        out = transfer(w_raw, "ptanh", voltage)[0, :, 0]
        assert np.all(np.diff(out) >= -1e-9)

    def test_forward_antitone_for_negation(self, w_raw):
        voltage = np.linspace(0, 1, 11).reshape(1, 11, 1)
        out = transfer(w_raw, "negweight", voltage)[0, :, 0]
        assert np.all(np.diff(out) <= 1e-9)

    def test_per_neuron_transfer_broadcasts(self):
        voltage = np.random.default_rng(0).uniform(size=(2, 5, 4))
        assert transfer(per_neuron_w(4, seed=2), "ptanh", voltage).shape == (2, 5, 4)

    def test_full_chain_gradcheck(self, w_raw, numeric_grad):
        # Finite-difference check through the whole ω → η → transfer chain
        # w.r.t. the voltage input (𝔴 gradients are checked above).
        voltage = np.random.default_rng(1).uniform(0.2, 0.8, size=(1, 4, 2))
        values = eta(w_raw)
        out, ctx = transfer_fwd(voltage, values, "ptanh")
        analytic, _ = transfer_bwd(np.ones_like(out), ctx)
        numeric = numeric_grad(lambda v: transfer_fwd(v, values, "ptanh")[0].sum(), voltage)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-5)
