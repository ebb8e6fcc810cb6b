"""Hand-derived backward kernels vs recordings and finite differences.

The contract of :mod:`repro.core.grad_kernels` is *agreement*: for every
point in the {learnable} × {nominal, ε>0} × {shared, per-neuron} ×
{analytic, MLP surrogate} × {margin, ce} grid, the loss of
:meth:`~repro.core.grad_kernels.KernelNetwork.loss_and_grads` (the one-lane
case of the lane executor) must equal the loss of the taped autograd
engine it replaced, and its raw-parameter gradients must match the taped
backward pass to ~1e-8.  Central finite differences pin
the same gradients independently, over the same grid plus a stuck-at
defect draw.

The taped engine is gone; its values are kept in
``golden/taped_reference.json`` as ``float.hex`` strings.  Recipe, run on
the commit before the taped path was deleted:

- ``grad/{analytic|mlp}/{shared|per_neuron}/{ε}/{loss}``: ``make_pnn``
  below (the ``analytic_surrogates`` / ``tiny_bundle`` fixture), the
  ``batch`` fixture, ``draw_epsilons(pnn, ε, n_mc=5)``; then
  ``make_loss(loss)(pnn.forward(x, epsilons=...), y)``, its ``.item()``
  and, after ``.backward()``, each layer's ``theta``,
  ``activation.w_raw`` and ``negation.w_raw`` gradients;
- ``grad/no_output_activation``: the same for
  ``PrintedNeuralNetwork([4, 3, 3], analytic, activation_on_output=False,
  rng=default_rng(7))`` with ``draw_epsilons(pnn, 0.1, n_mc=4)``, margin
  loss (the output layer's activation 𝔴 got no gradient: ``null``);
- ``loss/{margin|ce}``: ``make_loss(...)`` on ``voltages`` from
  ``default_rng(1234).uniform(0, 1, (4, 7, 3))`` and targets from the
  same generator's ``integers(0, 3, 7)``.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, snapshot_params
from repro.core.grad_kernels import (
    KernelNetwork,
    Workspace,
    ce_loss_bwd,
    ce_loss_fwd,
    margin_loss_bwd,
    margin_loss_fwd,
    project_printable,
    reassemble_omega_fwd,
    surrogate_eta_bwd,
    surrogate_eta_fwd,
)
from repro.core.lanes import LaneNetwork, stack_epsilons
from repro.core.params import snapshot_surrogate
from repro.core.training import draw_epoch_epsilons
from repro.core.variation import Perturbation, VariationModel, build_scenario_model

#: The taped engine's recorded losses and gradients (module docstring).
TAPED = json.loads((Path(__file__).parent / "golden" / "taped_reference.json").read_text())

AGREEMENT_TOL = 1e-8


def recorded(entry):
    if entry is None:
        return None
    return np.array([float.fromhex(h) for h in entry["hex"]]).reshape(entry["shape"])


def make_pnn(surrogates, per_neuron=False, seed=7):
    """A small network nudged off its symmetric initialization."""
    pnn = PrintedNeuralNetwork(
        [4, 3, 3], surrogates, per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )
    rng = np.random.default_rng(seed + 1)
    for layer in pnn.layers:
        layer.theta = layer.theta + rng.normal(0, 0.05, layer.theta.shape)
        layer.w_act = layer.w_act + rng.normal(0, 0.3, layer.w_act.shape)
        layer.w_neg = layer.w_neg + rng.normal(0, 0.3, layer.w_neg.shape)
    return pnn


def draw_epsilons(pnn, epsilon, n_mc, seed=11):
    if epsilon == 0.0:
        return None
    vm = VariationModel(epsilon, seed=seed)
    return [
        (
            Perturbation(vm.sample(n_mc, (layer.in_features + 2, layer.out_features))),
            Perturbation(vm.sample(n_mc, layer.w_act.shape)),
            Perturbation(vm.sample(n_mc, layer.w_neg.shape)),
        )
        for layer in pnn.layers
    ]


def taped_reference(key):
    """Recorded loss and per-layer (θ, 𝔴_act, 𝔴_neg) gradients of ``key``."""
    entry = TAPED[key]
    grads = [tuple(recorded(g) for g in layer) for layer in entry["grads"]]
    return float.fromhex(entry["loss"]), grads


def assert_grids_match(pnn, x, y, loss_name, epsilons, key):
    ref_loss, ref_grads = taped_reference(key)
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


def sharing(per_neuron):
    return "per_neuron" if per_neuron else "shared"


class TestAutogradAgreement:
    """End-to-end VJP agreement with the recorded taped backward pass."""

    @pytest.mark.parametrize("loss_name", ["margin", "ce"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("per_neuron", [False, True])
    def test_analytic_grid(self, analytic_surrogates, batch, per_neuron, epsilon, loss_name):
        x, y = batch
        pnn = make_pnn(analytic_surrogates, per_neuron=per_neuron)
        epsilons = draw_epsilons(pnn, epsilon, n_mc=5)
        key = f"grad/analytic/{sharing(per_neuron)}/{epsilon}/{loss_name}"
        assert_grids_match(pnn, x, y, loss_name, epsilons, key)

    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("per_neuron", [False, True])
    def test_mlp_grid(self, tiny_bundle, batch, per_neuron, epsilon):
        x, y = batch
        pnn = make_pnn(tiny_bundle, per_neuron=per_neuron)
        epsilons = draw_epsilons(pnn, epsilon, n_mc=5)
        key = f"grad/mlp/{sharing(per_neuron)}/{epsilon}/margin"
        assert_grids_match(pnn, x, y, "margin", epsilons, key)

    def test_without_output_activation(self, analytic_surrogates, batch):
        x, y = batch
        pnn = PrintedNeuralNetwork(
            [4, 3, 3], analytic_surrogates, activation_on_output=False,
            rng=np.random.default_rng(7),
        )
        epsilons = draw_epsilons(pnn, 0.1, n_mc=4)
        ref_loss, ref_grads = taped_reference("grad/no_output_activation")
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        value, grads = net.loss_and_grads(arrays, x, y, loss="margin", epsilons=epsilons)
        assert value == pytest.approx(ref_loss, rel=1e-12)
        # The output layer's activation never ran: its 𝔴 must get no grad,
        # exactly like the taped path (autograd left .grad at None).
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

    def test_every_parameter_gets_a_gradient(self, analytic_surrogates, batch):
        """Finite, non-zero θ, 𝔴_act and 𝔴_neg gradients for every layer."""
        x, y = batch
        pnn = make_pnn(analytic_surrogates, per_neuron=True)
        net = KernelNetwork.from_pnn(pnn)
        arrays = KernelNetwork.extract_arrays(pnn)
        _, grads = net.loss_and_grads(
            arrays, x, y, epsilons=draw_epsilons(pnn, 0.1, n_mc=5)
        )
        for layer in grads:
            for grad in (layer.theta, layer.w_act, layer.w_neg):
                assert np.all(np.isfinite(grad)) and np.any(grad != 0.0)


def interior_pnn(surrogates, per_neuron, activation_on_output=True, seed=3):
    """A nudged network whose θ and R2/R4 sit strictly inside their clips.

    Keeps every θ inside (g_min, g_max) so the straight-through projection
    is locally the identity and finite differences see the same function
    the STE backward assumes; the same for the ``R2 = k1·R1`` /
    ``R4 = k2·R3`` clips.
    """
    rng = np.random.default_rng(2)
    pnn = PrintedNeuralNetwork(
        [4, 3, 3], surrogates, per_neuron_activation=per_neuron,
        activation_on_output=activation_on_output, rng=np.random.default_rng(seed),
    )
    nudge = np.random.default_rng(seed + 1)
    for layer in pnn.layers:
        shape = layer.theta.shape
        magnitude = rng.uniform(0.1, 2.0, shape)
        layer.theta = magnitude * np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
        layer.w_act = layer.w_act + nudge.normal(0, 0.3, layer.w_act.shape)
        layer.w_neg = layer.w_neg + nudge.normal(0, 0.3, layer.w_neg.shape)
    space = pnn.space
    for layer in pnn.layers:
        for w_raw in (layer.w_act, layer.w_neg):
            omega, _ = reassemble_omega_fwd(w_raw, space)
            assert np.all(omega[:, 1] > space.lower[1]) and np.all(omega[:, 1] < space.upper[1])
            assert np.all(omega[:, 3] > space.lower[3]) and np.all(omega[:, 3] < space.upper[3])
    return pnn


def assert_matches_finite_differences(pnn, loss_name, epsilons):
    """Central differences on a handful of coordinates of every raw array."""
    rng = np.random.default_rng(2)
    net = KernelNetwork.from_pnn(pnn)
    arrays = KernelNetwork.extract_arrays(pnn)
    x = rng.uniform(0, 1, (6, 4))
    y = rng.integers(0, 3, 6)

    def loss_of(flat_arrays):
        return net.loss_value(flat_arrays, x, y, loss=loss_name, epsilons=epsilons)

    _, grads = net.loss_and_grads(arrays, x, y, loss=loss_name, epsilons=epsilons)
    step = 1e-6
    for li, (theta, w_act, w_neg) in enumerate(arrays):
        analytic = (grads[li].theta, grads[li].w_act, grads[li].w_neg)
        for array, grad in zip((theta, w_act, w_neg), analytic):
            if grad is None:                  # an output layer without activation
                continue
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


class TestFiniteDifferences:
    """Central differences pin the kernel gradients without any recording."""

    @pytest.mark.parametrize("loss_name", ["margin", "ce"])
    @pytest.mark.parametrize("epsilon", [0.0, 0.1])
    @pytest.mark.parametrize("per_neuron", [False, True])
    @pytest.mark.parametrize("surrogate", ["analytic", "mlp"])
    def test_end_to_end_gradcheck(
        self, analytic_surrogates, tiny_bundle, surrogate, per_neuron, epsilon, loss_name
    ):
        surrogates = analytic_surrogates if surrogate == "analytic" else tiny_bundle
        pnn = interior_pnn(surrogates, per_neuron)
        epsilons = draw_epsilons(pnn, epsilon, n_mc=3, seed=13)
        assert_matches_finite_differences(pnn, loss_name, epsilons)

    def test_without_output_activation(self, analytic_surrogates):
        pnn = interior_pnn(analytic_surrogates, False, activation_on_output=False)
        epsilons = draw_epsilons(pnn, 0.1, n_mc=3, seed=13)
        assert_matches_finite_differences(pnn, "margin", epsilons)

    def test_stuck_at_draw(self, analytic_surrogates):
        pnn = interior_pnn(analytic_surrogates, False)
        model = build_scenario_model("stuck-1pct", 0.1, seed=4)
        epsilons = draw_epoch_epsilons(model, 8, pnn)
        # Non-degenerate: the fixed draw pins at least one device.
        theta_draws = [layer_eps[0] for layer_eps in epsilons]
        assert all(isinstance(eps, Perturbation) for eps in theta_draws)
        assert sum(int(eps.override_mask.sum()) for eps in theta_draws) > 0
        assert_matches_finite_differences(pnn, "margin", epsilons)

    @pytest.mark.parametrize("kind", ["ptanh", "negweight"])
    @pytest.mark.parametrize("surrogate", ["analytic", "mlp"])
    def test_surrogate_eta_bwd(
        self, analytic_surrogates, tiny_bundle, numeric_grad, surrogate, kind
    ):
        pair = analytic_surrogates if surrogate == "analytic" else (
            tiny_bundle.ptanh, tiny_bundle.negweight
        )
        sp = snapshot_surrogate(pair[0] if kind == "ptanh" else pair[1])
        w_raw = np.random.default_rng(5).normal(0, 0.5, (3, 7))
        omega, _ = reassemble_omega_fwd(w_raw, tiny_bundle.space)
        d_eta = np.random.default_rng(6).normal(size=(3, 4))
        _, ctx = surrogate_eta_fwd(omega, sp)
        analytic = surrogate_eta_bwd(d_eta, ctx, sp)
        # Relative steps: ω spans resistances (~1e5) and lengths (~1e-5).
        scale = np.abs(omega)
        numeric = numeric_grad(
            lambda u: float((surrogate_eta_fwd(u * scale, sp)[0] * d_eta).sum()),
            np.ones_like(omega),
        ) / scale
        np.testing.assert_allclose(analytic, numeric, rtol=1e-4, atol=1e-9 * np.abs(analytic).max())

    @pytest.mark.parametrize("loss_name", ["margin", "ce"])
    def test_loss_bwd(self, numeric_grad, loss_name):
        gen = np.random.default_rng(8)
        voltages = gen.uniform(0, 1, (3, 5, 4))
        targets = gen.integers(0, 4, 5)
        loss_fwd, loss_bwd = {
            "margin": (margin_loss_fwd, margin_loss_bwd),
            "ce": (ce_loss_fwd, ce_loss_bwd),
        }[loss_name]
        _, ctx = loss_fwd(voltages, targets)
        numeric = numeric_grad(lambda v: loss_fwd(v, targets)[0], voltages)
        np.testing.assert_allclose(loss_bwd(ctx), numeric, rtol=1e-4, atol=1e-7)


class TestLossKernels:
    @staticmethod
    def inputs():
        gen = np.random.default_rng(1234)
        return gen.uniform(0, 1, (4, 7, 3)), gen.integers(0, 3, 7)

    def test_margin_matches_taped_recording(self):
        value, _ = margin_loss_fwd(*self.inputs())
        assert value == pytest.approx(float.fromhex(TAPED["loss/margin"]), rel=1e-12)

    def test_ce_matches_taped_recording(self):
        value, _ = ce_loss_fwd(*self.inputs())
        assert value == pytest.approx(float.fromhex(TAPED["loss/ce"]), rel=1e-12)


class TestProjectPrintable:
    """The printable-θ projection lands in ``[-g_max, -g_min] ∪ {0} ∪ [g_min, g_max]``."""

    def test_forward_snaps_small_to_zero(self):
        x = np.array([0.004, -0.004, 0.006, 0.5, 20.0, -20.0])
        out = project_printable(x, 0.01, 10.0)
        assert np.allclose(out, [0.0, 0.0, 0.01, 0.5, 10.0, -10.0])

    def test_forward_preserves_in_range(self):
        x = np.array([0.01, 10.0, -0.01, -10.0, 1.0])
        assert np.allclose(project_printable(x, 0.01, 10.0), x)

    def test_result_always_in_printable_set(self):
        rng = np.random.default_rng(0)
        out = np.abs(project_printable(rng.normal(scale=20.0, size=500), 0.01, 10.0))
        nonzero = out[out > 0]
        assert np.all((nonzero >= 0.01 - 1e-15) & (nonzero <= 10.0 + 1e-15))

    def test_sign_preserved(self):
        out = project_printable(np.array([-5.0, 5.0]), 0.01, 10.0)
        assert out[0] < 0 < out[1]


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
        stable = net.executor.workspace.nbytes()
        value1, _ = net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        value2, _ = net.loss_and_grads(arrays, x, y, epsilons=epsilons)
        assert net.executor.workspace.nbytes() == stable
        assert value1 == value2

    def test_forward_matches_kernel_inference_path(self, analytic_surrogates):
        from repro.core import kernels

        pnn = make_pnn(analytic_surrogates)
        x = np.random.default_rng(5).uniform(0, 1, (11, 4))
        epsilons = draw_epsilons(pnn, 0.1, n_mc=4)
        engine_out, _ = LaneNetwork.from_pnns([pnn]).forward(
            LaneNetwork.stack_arrays([pnn]), x, epsilons=stack_epsilons([epsilons])
        )
        reference = kernels.network_forward(snapshot_params(pnn), x, epsilons=epsilons)
        # Both sides run the same kernels: bitwise equal.
        np.testing.assert_array_equal(engine_out[0], reference)
