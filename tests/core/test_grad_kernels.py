"""Hand-derived backward kernels vs autograd and finite differences.

The contract of :mod:`repro.core.grad_kernels` is *agreement*: for every
point in the {learnable} × {nominal, ε>0} × {shared, per-neuron} ×
{analytic, MLP surrogate} × {margin, ce} grid, the loss of
:class:`~repro.core.grad_kernels.KernelNetwork` (the serial reference
executor the lane executor is checked against) must equal the autograd
loss and its raw-parameter gradients must match the taped backward pass to
~1e-8 (observed agreement is float64 rounding).  Finite differences pin
the same gradients independently of both.
"""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, snapshot_params
from repro.core.grad_kernels import (
    KernelNetwork,
    Workspace,
    ce_loss_fwd,
    margin_loss_fwd,
    reassemble_omega_fwd,
)
from repro.core.losses import make_loss
from repro.core.variation import VariationModel

AGREEMENT_TOL = 1e-8


def make_pnn(surrogates, per_neuron=False, seed=7):
    """A small network nudged off its symmetric initialization."""
    pnn = PrintedNeuralNetwork(
        [4, 3, 3], surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    for layer in pnn.layers:
        layer.theta.data = layer.theta.data + rng.normal(0, 0.05, layer.theta.data.shape)
        layer.activation.w_raw.data = (
            layer.activation.w_raw.data + rng.normal(0, 0.3, layer.activation.w_raw.data.shape)
        )
        layer.negation.w_raw.data = (
            layer.negation.w_raw.data + rng.normal(0, 0.3, layer.negation.w_raw.data.shape)
        )
    return pnn


def draw_epsilons(pnn, epsilon, n_mc, seed=11):
    if epsilon == 0.0:
        return None
    vm = VariationModel(epsilon, seed=seed)
    return [
        (
            vm.sample(n_mc, (layer.in_features + 2, layer.out_features)),
            vm.sample(n_mc, (layer.activation.n_circuits, 7)),
            vm.sample(n_mc, (layer.negation.n_circuits, 7)),
        )
        for layer in pnn.layers
    ]


def autograd_reference(pnn, x, y, loss_name, epsilons):
    """Loss and raw-parameter gradients from the taped engine."""
    loss_fn = make_loss(loss_name)
    for param in pnn.parameters():
        param.grad = None
    loss = loss_fn(pnn.forward(x, epsilons=epsilons), y)
    loss.backward()
    grads = [
        (layer.theta.grad, layer.activation.w_raw.grad, layer.negation.w_raw.grad)
        for layer in pnn.layers
    ]
    return loss.item(), grads


def assert_grids_match(pnn, x, y, loss_name, epsilons):
    ref_loss, ref_grads = autograd_reference(pnn, x, y, loss_name, epsilons)
    net = KernelNetwork.from_pnn(pnn)
    arrays = KernelNetwork.extract_arrays(pnn)
    value, grads = net.loss_and_grads(arrays, x, y, loss=loss_name, epsilons=epsilons)
    assert value == pytest.approx(ref_loss, rel=1e-12)
    for i in range(len(pnn.layers)):
        mine = (grads[i].theta, grads[i].w_act, grads[i].w_neg)
        for name, reference, ours in zip(("theta", "w_act", "w_neg"), ref_grads[i], mine):
            scale = max(float(np.abs(reference).max()), 1e-12)
            diff = float(np.abs(reference - ours).max())
            assert diff / scale <= AGREEMENT_TOL, (
                f"layer {i} {name}: rel grad divergence {diff / scale:.2e}"
            )


@pytest.fixture(scope="module")
def batch():
    gen = np.random.default_rng(0)
    return gen.uniform(0, 1, (9, 4)), gen.integers(0, 3, 9)


class TestAutogradAgreement:
    """End-to-end VJP agreement over the full configuration grid."""

    @pytest.mark.parametrize("loss_name", ["margin", "ce"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("per_neuron", [False, True])
    def test_analytic_grid(self, analytic_surrogates, batch, per_neuron, epsilon, loss_name):
        x, y = batch
        pnn = make_pnn(analytic_surrogates, per_neuron=per_neuron)
        epsilons = draw_epsilons(pnn, epsilon, n_mc=5)
        assert_grids_match(pnn, x, y, loss_name, epsilons)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("per_neuron", [False, True])
    def test_mlp_grid(self, tiny_bundle, batch, per_neuron, epsilon):
        x, y = batch
        pnn = make_pnn(tiny_bundle, per_neuron=per_neuron)
        epsilons = draw_epsilons(pnn, epsilon, n_mc=5)
        assert_grids_match(pnn, x, y, "margin", epsilons)

    def test_without_output_activation(self, analytic_surrogates, batch):
        x, y = batch
        pnn = PrintedNeuralNetwork(
            [4, 3, 3], analytic_surrogates, activation_on_output=False,
            rng=np.random.default_rng(7),
        )
        epsilons = draw_epsilons(pnn, 0.1, n_mc=4)
        ref_loss, ref_grads = autograd_reference(pnn, x, y, "margin", epsilons)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        value, grads = net.loss_and_grads(arrays, x, y, loss="margin", epsilons=epsilons)
        assert value == pytest.approx(ref_loss, rel=1e-12)
        # The output layer's activation never ran: its 𝔴 must get no grad,
        # exactly like the taped path (autograd leaves .grad at None).
        assert grads[-1].w_act is None
        assert ref_grads[-1][1] is None
        scale = max(float(np.abs(ref_grads[-1][0]).max()), 1e-12)
        assert float(np.abs(ref_grads[-1][0] - grads[-1].theta).max()) / scale <= AGREEMENT_TOL

    def test_need_omega_grads_off_skips_omega(self, analytic_surrogates, batch):
        x, y = batch
        pnn = make_pnn(analytic_surrogates)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        _, grads = net.loss_and_grads(arrays, x, y, need_omega_grads=False)
        assert all(g.w_act is None and g.w_neg is None for g in grads)
        assert all(g.theta is not None for g in grads)


class TestFiniteDifferences:
    """Central differences pin the kernel gradients without any autograd."""

    def test_end_to_end_gradcheck(self, analytic_surrogates):
        rng = np.random.default_rng(2)
        pnn = make_pnn(analytic_surrogates, seed=3)
        # Keep every θ strictly inside (g_min, g_max) so the straight-
        # through projection is locally the identity and finite differences
        # see the same function the STE backward assumes.
        for layer in pnn.layers:
            shape = layer.theta.data.shape
            magnitude = rng.uniform(0.1, 2.0, shape)
            layer.theta.data = magnitude * np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        # Same interior requirement for the R2 = k1·R1 / R4 = k2·R3 clips.
        space = pnn.space
        for _, w_act, w_neg in arrays:
            for w in (w_act, w_neg):
                omega, _ = reassemble_omega_fwd(w, space)
                assert np.all(omega[:, 1] > space.lower[1]) and np.all(omega[:, 1] < space.upper[1])
                assert np.all(omega[:, 3] > space.lower[3]) and np.all(omega[:, 3] < space.upper[3])

        x = rng.uniform(0, 1, (6, 4))
        y = rng.integers(0, 3, 6)
        epsilons = draw_epsilons(pnn, 0.1, n_mc=3, seed=13)

        def loss_of(flat_arrays):
            value, _ = margin_loss_fwd(
                net.forward(flat_arrays, x, epsilons=epsilons)[0], y
            )
            return value

        _, grads = net.loss_and_grads(arrays, x, y, loss="margin", epsilons=epsilons)
        step = 1e-6
        for li, (theta, w_act, w_neg) in enumerate(arrays):
            analytic = (grads[li].theta, grads[li].w_act, grads[li].w_neg)
            for array, grad in zip((theta, w_act, w_neg), analytic):
                flat = array.ravel()
                # Spot-check a handful of coordinates per parameter tensor.
                for idx in rng.choice(flat.size, size=min(5, flat.size), replace=False):
                    original = flat[idx]
                    flat[idx] = original + step
                    up = loss_of(arrays)
                    flat[idx] = original - step
                    down = loss_of(arrays)
                    flat[idx] = original
                    numeric = (up - down) / (2 * step)
                    assert numeric == pytest.approx(grad.ravel()[idx], rel=1e-4, abs=1e-7)


class TestLossKernels:
    def test_margin_matches_autograd(self, rng):
        voltages = rng.uniform(0, 1, (4, 7, 3))
        targets = rng.integers(0, 3, 7)
        value, _ = margin_loss_fwd(voltages, targets)
        from repro.autograd.tensor import Tensor

        reference = make_loss("margin")(Tensor(voltages), targets).item()
        assert value == pytest.approx(reference, rel=1e-12)

    def test_ce_matches_autograd(self, rng):
        voltages = rng.uniform(0, 1, (4, 7, 3))
        targets = rng.integers(0, 3, 7)
        value, _ = ce_loss_fwd(voltages, targets)
        from repro.autograd.tensor import Tensor

        reference = make_loss("ce")(Tensor(voltages), targets).item()
        assert value == pytest.approx(reference, rel=1e-12)


class TestEngineInfrastructure:
    def test_workspace_reuses_buffers(self):
        ws = Workspace()
        first = ws.buf("a", (3, 4))
        again = ws.buf("a", (3, 4))
        assert first is again
        resized = ws.buf("a", (5, 4))
        assert resized is not first and resized.shape == (5, 4)
        assert ws.nbytes() > 0

    def test_repeated_epochs_allocate_nothing_new(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        x = np.random.default_rng(0).uniform(0, 1, (9, 4))
        y = np.random.default_rng(1).integers(0, 3, 9)
        epsilons = draw_epsilons(pnn, 0.1, n_mc=5)
        net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        stable = net.workspace.nbytes()
        value1, _ = net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        value2, _ = net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        assert net.workspace.nbytes() == stable
        assert value1 == value2

    def test_snapshot_matches_module_snapshot(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        reference = snapshot_params(pnn)
        mine = net.snapshot(arrays)
        assert mine.layer_sizes == tuple(reference.layer_sizes)
        for a, b in zip(mine.layers, reference.layers):
            np.testing.assert_array_equal(a.theta, b.theta)
            np.testing.assert_array_equal(a.act_omega, b.act_omega)
            np.testing.assert_array_equal(a.neg_omega, b.neg_omega)
            assert a.apply_activation == b.apply_activation

    def test_forward_matches_kernel_inference_path(self, analytic_surrogates):
        from repro.core import kernels

        pnn = make_pnn(analytic_surrogates)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        x = np.random.default_rng(5).uniform(0, 1, (11, 4))
        epsilons = draw_epsilons(pnn, 0.1, n_mc=4)
        engine_out, _ = net.forward(arrays, x, epsilons=epsilons)
        reference = kernels.network_forward(snapshot_params(pnn), x, epsilons=epsilons)
        np.testing.assert_allclose(engine_out, reference, rtol=0, atol=1e-12)
