"""Printed layer and full pNN: Eq. 1 forward, routing, MC axis, gradients.

A layer is its raw arrays (θ, 𝔴_act, 𝔴_neg) and a network is a list of
layers; their designs run through the kernels (``kernels.layer_forward`` /
``network_forward``) and their gradients through
``KernelNetwork.loss_and_grads``.
"""

import numpy as np
import pytest

from repro.core import (
    ConductanceConfig,
    KernelNetwork,
    Perturbation,
    PrintedLayer,
    PrintedNeuralNetwork,
    VariationModel,
    kernels,
)
from repro.core.grad_kernels import project_printable, reassemble_omega_fwd
from repro.core.params import snapshot_surrogate
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE

CONDUCTANCE = ConductanceConfig()


def make_layer(n_in=3, n_out=2, seed=0, apply_activation=True):
    """One shared-circuit layer at its initial point: mid-range 𝔴, random θ."""
    return PrintedLayer(
        theta=CONDUCTANCE.init_theta((n_in + 2, n_out), np.random.default_rng(seed)),
        w_act=np.zeros((1, 7)),
        w_neg=np.zeros((1, 7)),
        apply_activation=apply_activation,
    )


def make_pnn(sizes=(3, 3, 2), seed=0, **kwargs):
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork(sizes, surrogates, rng=np.random.default_rng(seed), **kwargs)


def printable_theta(layer):
    return project_printable(layer.theta, CONDUCTANCE.g_min, CONDUCTANCE.g_max)


def layer_forward(layer, x, epsilons=None):
    """Run a live layer's printable design through ``kernels.layer_forward``."""
    out, _ = kernels.layer_forward(
        np.asarray(x, dtype=np.float64),
        printable_theta(layer),
        reassemble_omega_fwd(layer.w_act, DESIGN_SPACE)[0],
        reassemble_omega_fwd(layer.w_neg, DESIGN_SPACE)[0],
        layer.apply_activation,
        snapshot_surrogate(AnalyticSurrogate("ptanh")),
        snapshot_surrogate(AnalyticSurrogate("negweight")),
        epsilons,
    )
    return out


def assert_every_parameter_gets_a_gradient(pnn, x, y):
    """``loss_and_grads`` returns finite, non-zero θ, 𝔴_act, 𝔴_neg grads per layer."""
    for layer in pnn.layers:
        # A negative first-input row puts every negation circuit in the path.
        layer.theta[0] = -np.abs(layer.theta[0])
    net = KernelNetwork.from_pnn(pnn)
    _, grads = net.loss_and_grads(KernelNetwork.extract_arrays(pnn), x, y)
    for index, layer in enumerate(grads):
        for name, grad in zip(("theta", "w_act", "w_neg"), (layer.theta, layer.w_act, layer.w_neg)):
            assert grad is not None, f"layer {index} {name}"
            assert np.all(np.isfinite(grad)) and np.any(grad != 0.0), f"layer {index} {name}"


class TestPrintedLayer:
    def test_output_shape(self):
        layer = make_layer()
        out = layer_forward(layer, np.random.default_rng(0).uniform(size=(1, 5, 3)))
        assert out.shape == (1, 5, 2)

    def test_theta_shape_includes_bias_and_down(self):
        layer = make_pnn((4, 3, 2)).layers[0]
        assert layer.theta.shape == (6, 3)
        assert (layer.in_features, layer.out_features) == (4, 3)

    def test_all_positive_theta_is_weighted_average(self):
        """With every θ ≥ 0 the crossbar output is a convex combination of
        the inputs and the 1 V bias — it must stay in [0, 1]."""
        layer = make_layer(apply_activation=False)
        layer.theta = np.abs(layer.theta)
        x = np.random.default_rng(1).uniform(size=(1, 20, 3))
        out = layer_forward(layer, x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_eq1_weighted_sum_matches_manual(self):
        layer = make_layer(n_in=2, n_out=1, apply_activation=False)
        layer.theta = np.array([[0.5], [0.3], [0.2], [0.1]])  # in0,in1,b,d
        x = np.array([[0.4, 0.8]])
        out = layer_forward(layer, x.reshape(1, 1, 2))[0, 0, 0]
        total = 0.5 + 0.3 + 0.2 + 0.1
        expected = (0.5 * 0.4 + 0.3 * 0.8 + 0.2 * 1.0) / total
        assert out == pytest.approx(expected, rel=1e-9)

    def test_negative_theta_routes_through_negation(self):
        layer = make_layer(n_in=1, n_out=1, apply_activation=False)
        layer.theta = np.array([[-0.5], [0.3], [0.1]])
        x = np.full((1, 1, 1), 0.5)
        out = layer_forward(layer, x)[0, 0, 0]
        # The negated input contributes negatively → output below the
        # bias-only level.
        layer.theta = np.array([[0.0], [0.3], [0.1]])
        bias_only = layer_forward(layer, x)[0, 0, 0]
        assert out < bias_only

    def test_down_row_never_routed_through_negation(self):
        layer = make_layer(n_in=1, n_out=1, apply_activation=False)
        base = np.array([[0.5], [0.3], [0.2]])
        layer.theta = base.copy()
        x = np.full((1, 1, 1), 0.5)
        positive_down = layer_forward(layer, x)[0, 0, 0]
        layer.theta = base * np.array([[1.0], [1.0], [-1.0]])
        negative_down = layer_forward(layer, x)[0, 0, 0]
        assert positive_down == pytest.approx(negative_down, rel=1e-12)

    def test_mc_axis_with_variation(self):
        layer = make_layer()
        variation = VariationModel(0.1, seed=0)
        eps_theta = Perturbation(variation.sample(7, (5, 2)))
        eps_act = Perturbation(variation.sample(7, (1, 7)))
        eps_neg = Perturbation(variation.sample(7, (1, 7)))
        x = np.random.default_rng(2).uniform(size=(7, 4, 3))
        out = layer_forward(layer, x, (eps_theta, eps_act, eps_neg))
        assert out.shape == (7, 4, 2)
        assert np.std(out, axis=0).max() > 0   # samples differ

    def test_gradients_reach_theta_and_w(self):
        pnn = make_pnn((3, 2))               # one printed layer
        x = np.random.default_rng(3).uniform(size=(6, 3))
        assert_every_parameter_gets_a_gradient(pnn, x, np.array([0, 1, 0, 1, 1, 0]))

    def test_rejects_wrong_input_ndim(self):
        with pytest.raises(ValueError):
            layer_forward(make_layer(), np.zeros((5, 3)))

    def test_rejects_wrong_eps_shape(self):
        layer = make_layer()
        x = np.zeros((1, 2, 3))
        circuit = Perturbation(np.ones((1, 1, 7)))
        with pytest.raises(ValueError, match="θ draw"):
            layer_forward(layer, x, (Perturbation(np.ones((1, 3, 3))), circuit, circuit))

    @pytest.mark.parametrize("missing", [(0,), (1,), (2,), (1, 2)])
    def test_rejects_partial_draw(self, missing):
        """A layer draws all three slots or none: the backward has no
        Monte-Carlo unbroadcast for a nominal slot beside drawn ones."""
        variation = VariationModel(0.1, seed=0)
        draw = [Perturbation(variation.sample(3, shape)) for shape in ((5, 2), (1, 7), (1, 7))]
        for slot in missing:
            draw[slot] = None
        x = np.random.default_rng(2).uniform(size=(3, 4, 3))
        with pytest.raises(ValueError, match="all of"):
            layer_forward(make_layer(), x, tuple(draw))

    def test_kind_validation(self):
        """A layer's activation slot runs a ptanh circuit and its negation
        slot a negweight one: the network rejects any other surrogate pair."""
        ptanh, neg = AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")
        for pair in ((neg, ptanh), (ptanh, ptanh), (neg, neg)):
            with pytest.raises(ValueError, match="ptanh, negweight"):
                PrintedNeuralNetwork([2, 2], pair)

    def test_printable_theta_in_printable_set(self):
        layer = make_layer()
        printed = np.abs(printable_theta(layer))
        nonzero = printed[printed > 0]
        assert np.all((nonzero >= CONDUCTANCE.g_min) & (nonzero <= CONDUCTANCE.g_max))


class TestPrintedNeuralNetwork:
    def test_forward_shape(self):
        pnn = make_pnn((4, 3, 3))
        out = pnn.snapshot().forward(np.random.default_rng(0).uniform(size=(10, 4)))
        assert out.shape == (1, 10, 3)

    def test_forward_with_variation_shape(self):
        pnn = make_pnn((4, 3, 2))
        out = pnn.snapshot().forward(
            np.random.default_rng(0).uniform(size=(6, 4)),
            variation=VariationModel(0.1, seed=1),
            n_mc=8,
        )
        assert out.shape == (8, 6, 2)

    def test_nominal_variation_collapses_to_one_sample(self):
        pnn = make_pnn()
        out = pnn.snapshot().forward(
            np.zeros((2, 3)), variation=VariationModel(0.0, seed=0), n_mc=16
        )
        assert out.shape[0] == 1

    def test_predict_argmax(self):
        pnn = make_pnn((2, 3, 2))
        predictions = pnn.predict(np.random.default_rng(0).uniform(size=(5, 2)))
        assert predictions.shape == (1, 5)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_per_neuron_activation_option(self):
        pnn = make_pnn((3, 3, 2), per_neuron_activation=True)
        assert pnn.layers[0].w_act.shape == (3, 7)
        assert pnn.layers[0].w_neg.shape == (1, 7)
        out = pnn.snapshot().forward(np.random.default_rng(0).uniform(size=(4, 3)))
        assert out.shape == (1, 4, 2)

    def test_no_activation_on_output_option(self):
        pnn = make_pnn((3, 3, 2), activation_on_output=False)
        assert pnn.layers[-1].apply_activation is False
        assert pnn.layers[0].apply_activation is True

    def test_rejects_bad_inputs(self):
        pnn = make_pnn((3, 3, 2))
        with pytest.raises(ValueError):
            pnn.snapshot().forward(np.zeros((5, 7)))    # wrong feature count
        with pytest.raises(ValueError):
            pnn.snapshot().forward(np.zeros(3))         # wrong ndim
        with pytest.raises(ValueError):
            make_pnn((3,))                      # too few layers

    def test_gradients_flow_to_every_parameter(self):
        pnn = make_pnn((3, 3, 2))
        x = np.random.default_rng(1).uniform(size=(6, 3))
        assert_every_parameter_gets_a_gradient(pnn, x, np.array([0, 1, 1, 0, 1, 0]))
