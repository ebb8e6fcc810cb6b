"""The canonical (θ, act, neg) sampling order is pinned for every model.

``kernels.sample_layer_epsilons`` defines the training and evaluation
noise streams: per layer it draws crossbar θ, then activation ω, then
negative-weight ω, in that order, from one shared model.  Recorded
results depend on this 3-cycle, and
:class:`repro.analysis.sensitivity._SelectiveVariation` identifies
component groups by the role of each draw.  These tests pin (a) the role
order and shapes handed to protocol models, (b) the exact RNG consumption
of every concrete model class against manual, canonical-order
reconstructions, and (c) that training's per-epoch draws
(``training.draw_epoch_epsilons``) are the same stream — with exact
equality throughout.
"""

from typing import Sequence

import numpy as np
from numpy.testing import assert_array_equal

from repro.core import PrintedNeuralNetwork
from repro.core.aging import AgingModel
from repro.core.kernels import sample_layer_epsilons
from repro.core.training import draw_epoch_epsilons
from repro.core.variation import (
    ComposedModel,
    CorrelatedVariationModel,
    GaussianVariationModel,
    NonIdealityModel,
    Perturbation,
    StuckAtModel,
    VariationModel,
)

N_MC = 4
THETA_SHAPE = (5, 6)
N_ACT = 3
N_NEG = 2


#: The shapes ``sample_layer_epsilons`` reads: θ shape, #act, #neg circuits.
LAYER = (THETA_SHAPE, N_ACT, N_NEG)


class RecordingProtocolModel(NonIdealityModel):
    """Protocol model that logs every draw request."""

    def __init__(self):
        self.calls = []

    @property
    def is_nominal(self) -> bool:
        return False

    def sample(self, n_mc: int, shape: Sequence[int]) -> np.ndarray:
        self.calls.append(("sample", tuple(shape)))
        return np.ones((n_mc, *tuple(shape)))

    def sample_perturbation(self, n_mc, shape, role="theta"):
        self.calls.append((role, tuple(shape)))
        return np.ones((n_mc, *tuple(shape)))


class TestCanonicalOrder:
    def test_protocol_models_get_roles_in_theta_act_neg_order(self):
        model = RecordingProtocolModel()
        sample_layer_epsilons(model, N_MC, *LAYER)
        assert model.calls == [
            ("theta", THETA_SHAPE),
            ("act", (N_ACT, 7)),
            ("neg", (N_NEG, 7)),
        ]

    def test_two_layers_repeat_the_cycle(self):
        model = RecordingProtocolModel()
        sample_layer_epsilons(model, N_MC, *LAYER)
        sample_layer_epsilons(model, N_MC, *LAYER)
        roles = [role for role, _ in model.calls]
        assert roles == ["theta", "act", "neg"] * 2


class TestStreamConsumption:
    """Exact RNG reconstruction per model class, in canonical order."""

    def test_uniform_variation(self):
        triple = sample_layer_epsilons(VariationModel(0.1, seed=5), N_MC, *LAYER)
        rng = np.random.default_rng(5)
        for eps, shape in zip(triple, (THETA_SHAPE, (N_ACT, 7), (N_NEG, 7))):
            assert isinstance(eps, Perturbation) and eps.override_mask is None
            assert_array_equal(eps.scale, rng.uniform(0.9, 1.1, size=(N_MC, *shape)))

    def test_gaussian_variation(self):
        model = GaussianVariationModel(0.1, seed=5)
        triple = sample_layer_epsilons(model, N_MC, *LAYER)
        rng = np.random.default_rng(5)
        for eps, shape in zip(triple, (THETA_SHAPE, (N_ACT, 7), (N_NEG, 7))):
            draws = rng.normal(1.0, model.sigma, size=(N_MC, *shape))
            expected = np.clip(draws, 1.0 - 3 * model.sigma, 1.0 + 3 * model.sigma)
            assert_array_equal(eps.scale, expected)

    def test_stuck_at_consumes_rng_only_for_theta(self):
        model = StuckAtModel(p_stuck_on=0.3, p_stuck_off=0.3, seed=5)
        first = sample_layer_epsilons(model, N_MC, *LAYER)
        second = sample_layer_epsilons(model, N_MC, *LAYER)
        rng = np.random.default_rng(5)
        for triple in (first, second):
            assert isinstance(triple[0], Perturbation)
            draw = rng.uniform(size=(N_MC, *THETA_SHAPE))
            assert_array_equal(triple[0].override_mask, draw < 0.6)
            assert_array_equal(triple[0].scale, np.ones((N_MC, *THETA_SHAPE)))
            # ω slots are untouched and draw nothing from the stream.
            assert triple[1].override_mask is None
            assert triple[2].override_mask is None
            assert_array_equal(triple[1].scale, np.ones((N_MC, N_ACT, 7)))
            assert_array_equal(triple[2].scale, np.ones((N_MC, N_NEG, 7)))

    def test_correlated_variation(self):
        model = CorrelatedVariationModel(0.1, correlation=0.5, seed=5)
        triple = sample_layer_epsilons(model, N_MC, *LAYER)
        rng = np.random.default_rng(5)
        rho, sigma = 0.5, model.sigma
        for eps, shape in zip(triple, (THETA_SHAPE, (N_ACT, 7), (N_NEG, 7))):
            rows, cols = shape
            expected = np.ones((N_MC, *shape))
            for amplitude, part_shape in (
                (np.sqrt(rho / 2.0) * sigma, (N_MC, 1, 1)),
                (np.sqrt(rho / 4.0) * sigma, (N_MC, rows, 1)),
                (np.sqrt(rho / 4.0) * sigma, (N_MC, 1, cols)),
                (np.sqrt(1.0 - rho) * sigma, (N_MC, *shape)),
            ):
                expected = expected + amplitude * rng.standard_normal(part_shape)
            expected = np.clip(expected, 1.0 - 3 * sigma, 1.0 + 3 * sigma)
            assert_array_equal(eps.scale, expected)

    def test_composed_draws_components_in_listed_order_per_role(self):
        model = ComposedModel(
            VariationModel(0.1, seed=5),
            StuckAtModel(p_stuck_on=0.3, p_stuck_off=0.0, seed=7),
        )
        triple = sample_layer_epsilons(model, N_MC, *LAYER)
        eps_rng = np.random.default_rng(5)
        defect_rng = np.random.default_rng(7)
        theta = triple[0]
        assert isinstance(theta, Perturbation)
        assert_array_equal(
            theta.scale, eps_rng.uniform(0.9, 1.1, size=(N_MC, *THETA_SHAPE))
        )
        assert_array_equal(
            theta.override_mask,
            defect_rng.uniform(size=(N_MC, *THETA_SHAPE)) < 0.3,
        )
        # ω slots: only the ε component draws, so they carry no overrides
        # and continue the ε stream exactly where θ left it.
        for eps, shape in zip(triple[1:], ((N_ACT, 7), (N_NEG, 7))):
            assert eps.override_mask is None
            assert_array_equal(eps.scale, eps_rng.uniform(0.9, 1.1, size=(N_MC, *shape)))

    def test_aging_model(self):
        model = AgingModel(drift_rate=0.05, spread=0.02, seed=5)
        triple = sample_layer_epsilons(model, N_MC, *LAYER)
        rng = np.random.default_rng(5)
        reference = AgingModel(drift_rate=0.05, spread=0.02, rng=rng)
        for eps, shape in zip(triple, (THETA_SHAPE, (N_ACT, 7), (N_NEG, 7))):
            assert_array_equal(eps.scale, reference.sample(N_MC, shape))


class TestTrainingDraws:
    """``draw_epoch_epsilons`` consumes the canonical stream, layer by layer."""

    def test_epoch_draws_match_canonical_reconstruction(self, analytic_surrogates):
        pnn = PrintedNeuralNetwork(
            [4, 3, 2], analytic_surrogates, per_neuron_activation=True,
            rng=np.random.default_rng(7),
        )
        drawn = draw_epoch_epsilons(VariationModel(0.1, seed=4), N_MC, pnn)
        rng = np.random.default_rng(4)
        shapes = [
            ((4 + 2, 3), (3, 7), (1, 7)),
            ((3 + 2, 2), (2, 7), (1, 7)),
        ]
        assert len(drawn) == len(shapes)
        for triple, layer_shapes in zip(drawn, shapes):
            for eps, shape in zip(triple, layer_shapes):
                assert_array_equal(eps.scale, rng.uniform(0.9, 1.1, size=(N_MC, *shape)))

    def test_protocol_roles_per_layer(self, analytic_surrogates):
        pnn = PrintedNeuralNetwork([4, 3, 2], analytic_surrogates, rng=np.random.default_rng(7))
        model = RecordingProtocolModel()
        draw_epoch_epsilons(model, N_MC, pnn)
        assert model.calls == [
            ("theta", (6, 3)), ("act", (1, 7)), ("neg", (1, 7)),
            ("theta", (5, 2)), ("act", (1, 7)), ("neg", (1, 7)),
        ]
