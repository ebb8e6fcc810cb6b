"""Printed layer and full pNN: Eq. 1 forward, routing, MC axis, gradients.

The layers and networks are parameter containers; their designs run
through the kernels (``kernels.layer_forward`` / ``network_forward``) and
their gradients through ``KernelNetwork.loss_and_grads``.
"""

import numpy as np
import pytest

from repro.core import (
    ConductanceConfig,
    KernelNetwork,
    LayerParams,
    LearnableNonlinearCircuit,
    PrintedLayer,
    PrintedNeuralNetwork,
    VariationModel,
    kernels,
)
from repro.core.params import snapshot_surrogate
from repro.surrogate import AnalyticSurrogate
from repro.surrogate.design_space import DESIGN_SPACE


def make_layer(n_in=3, n_out=2, seed=0, apply_activation=True):
    rng = np.random.default_rng(seed)
    activation = LearnableNonlinearCircuit(
        AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh", rng=rng
    )
    negation = LearnableNonlinearCircuit(
        AnalyticSurrogate("negweight"), DESIGN_SPACE, "negweight", rng=rng
    )
    return PrintedLayer(
        n_in, n_out, activation=activation, negation=negation,
        apply_activation=apply_activation, rng=rng,
    )


def make_pnn(sizes=(3, 3, 2), seed=0, **kwargs):
    surrogates = (AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight"))
    return PrintedNeuralNetwork(sizes, surrogates, rng=np.random.default_rng(seed), **kwargs)


def layer_forward(layer, x, *epsilons):
    """Run a live layer's printable design through ``kernels.layer_forward``."""
    design = LayerParams(
        theta=layer.printable_theta(),
        act_omega=layer.activation.printable_omega(),
        neg_omega=layer.negation.printable_omega(),
        apply_activation=layer.apply_activation,
    )
    return kernels.layer_forward(
        np.asarray(x, dtype=np.float64),
        design,
        snapshot_surrogate(layer.activation.surrogate),
        snapshot_surrogate(layer.negation.surrogate),
        *epsilons,
    )


def assert_every_parameter_gets_a_gradient(pnn, x, y):
    """``loss_and_grads`` returns finite, non-zero θ, 𝔴_act, 𝔴_neg grads per layer."""
    for layer in pnn.layers:
        # A negative first-input row puts every negation circuit in the path.
        layer.theta.data[0] = -np.abs(layer.theta.data[0])
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
        layer = make_layer(n_in=4, n_out=3)
        assert layer.theta.shape == (6, 3)

    def test_all_positive_theta_is_weighted_average(self):
        """With every θ ≥ 0 the crossbar output is a convex combination of
        the inputs and the 1 V bias — it must stay in [0, 1]."""
        layer = make_layer(apply_activation=False)
        layer.theta.data = np.abs(layer.theta.data)
        x = np.random.default_rng(1).uniform(size=(1, 20, 3))
        out = layer_forward(layer, x)
        assert np.all(out >= 0.0) and np.all(out <= 1.0)

    def test_eq1_weighted_sum_matches_manual(self):
        layer = make_layer(n_in=2, n_out=1, apply_activation=False)
        layer.theta.data = np.array([[0.5], [0.3], [0.2], [0.1]])  # in0,in1,b,d
        x = np.array([[0.4, 0.8]])
        out = layer_forward(layer, x.reshape(1, 1, 2))[0, 0, 0]
        total = 0.5 + 0.3 + 0.2 + 0.1
        expected = (0.5 * 0.4 + 0.3 * 0.8 + 0.2 * 1.0) / total
        assert out == pytest.approx(expected, rel=1e-9)

    def test_negative_theta_routes_through_negation(self):
        layer = make_layer(n_in=1, n_out=1, apply_activation=False)
        layer.theta.data = np.array([[-0.5], [0.3], [0.1]])
        x = np.full((1, 1, 1), 0.5)
        out = layer_forward(layer, x)[0, 0, 0]
        # The negated input contributes negatively → output below the
        # bias-only level.
        layer.theta.data = np.array([[0.0], [0.3], [0.1]])
        bias_only = layer_forward(layer, x)[0, 0, 0]
        assert out < bias_only

    def test_down_row_never_routed_through_negation(self):
        layer = make_layer(n_in=1, n_out=1, apply_activation=False)
        base = np.array([[0.5], [0.3], [0.2]])
        layer.theta.data = base.copy()
        x = np.full((1, 1, 1), 0.5)
        positive_down = layer_forward(layer, x)[0, 0, 0]
        layer.theta.data = base * np.array([[1.0], [1.0], [-1.0]])
        negative_down = layer_forward(layer, x)[0, 0, 0]
        assert positive_down == pytest.approx(negative_down, rel=1e-12)

    def test_mc_axis_with_variation(self):
        layer = make_layer()
        variation = VariationModel(0.1, seed=0)
        eps_theta = variation.sample(7, (5, 2))
        eps_act = variation.sample(7, (1, 7))
        eps_neg = variation.sample(7, (1, 7))
        x = np.random.default_rng(2).uniform(size=(7, 4, 3))
        out = layer_forward(layer, x, eps_theta, eps_act, eps_neg)
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
        with pytest.raises(ValueError):
            layer_forward(layer, x, np.ones((1, 3, 3)))

    def test_kind_validation(self):
        rng = np.random.default_rng(0)
        ptanh = LearnableNonlinearCircuit(
            AnalyticSurrogate("ptanh"), DESIGN_SPACE, "ptanh", rng=rng
        )
        neg = LearnableNonlinearCircuit(
            AnalyticSurrogate("negweight"), DESIGN_SPACE, "negweight", rng=rng
        )
        with pytest.raises(ValueError):
            PrintedLayer(2, 2, activation=neg, negation=neg)
        with pytest.raises(ValueError):
            PrintedLayer(2, 2, activation=ptanh, negation=ptanh)

    def test_printable_theta_in_printable_set(self):
        layer = make_layer()
        config = ConductanceConfig()
        printed = np.abs(layer.printable_theta())
        nonzero = printed[printed > 0]
        assert np.all((nonzero >= config.g_min) & (nonzero <= config.g_max))


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

    def test_parameter_groups_split(self):
        pnn = make_pnn((4, 3, 2))
        thetas = pnn.theta_parameters()
        nonlinear = pnn.nonlinear_parameters()
        assert len(thetas) == 2          # two layers
        assert len(nonlinear) == 4       # activation + negation per layer
        all_params = list(pnn.parameters())
        assert len(all_params) == len(thetas) + len(nonlinear)

    def test_predict_argmax(self):
        pnn = make_pnn((2, 3, 2))
        predictions = pnn.predict(np.random.default_rng(0).uniform(size=(5, 2)))
        assert predictions.shape == (1, 5)
        assert set(np.unique(predictions)).issubset({0, 1})

    def test_per_neuron_activation_option(self):
        pnn = make_pnn((3, 3, 2), per_neuron_activation=True)
        assert pnn.layers[0].activation.n_circuits == 3
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

    def test_state_dict_round_trip_preserves_outputs(self):
        pnn_a = make_pnn((3, 3, 2), seed=1)
        pnn_b = make_pnn((3, 3, 2), seed=2)
        x = np.random.default_rng(0).uniform(size=(4, 3))
        pnn_b.load_state_dict(pnn_a.state_dict())
        assert np.allclose(pnn_a.snapshot().forward(x), pnn_b.snapshot().forward(x))

    def test_gradients_flow_to_every_parameter(self):
        pnn = make_pnn((3, 3, 2))
        x = np.random.default_rng(1).uniform(size=(6, 3))
        assert_every_parameter_gets_a_gradient(pnn, x, np.array([0, 1, 1, 0, 1, 0]))
