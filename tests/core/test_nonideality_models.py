"""Unit tests for the composable non-ideality pipeline.

Covers the :class:`~repro.core.variation.Perturbation` container — the one
form of a draw, for every model and role — and its combinators, the
concrete non-ideality models (stuck-at defects, correlated variation,
composition), the ``apply_nonideality`` forward/backward kernels, and the
scenario registry.
"""

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from repro.analysis.sensitivity import _SelectiveVariation
from repro.core.aging import AgingModel
from repro.core.grad_kernels import apply_nonideality_bwd
from repro.core.kernels import apply_nonideality
from repro.core.variation import (
    DEFAULT_SCENARIO,
    EPSILON_ROLES,
    SCENARIOS,
    ComposedModel,
    CorrelatedVariationModel,
    GaussianVariationModel,
    MultiplicativeModel,
    NonIdealityModel,
    Perturbation,
    StuckAtModel,
    VariationModel,
    build_scenario_model,
    eps_concat,
    eps_stack,
    scenario_names,
)


class TestPerturbation:
    def test_shape_and_ndim_proxy_scale(self):
        p = Perturbation(np.ones((4, 2, 3)))
        assert p.shape == (4, 2, 3)
        assert p.ndim == 3

    def test_getitem_slices_every_field(self):
        scale = np.arange(24.0).reshape(4, 2, 3)
        mask = scale > 12
        value = scale * 2
        p = Perturbation(scale, mask, value)[1:3]
        assert_array_equal(p.scale, scale[1:3])
        assert_array_equal(p.override_mask, mask[1:3])
        assert_array_equal(p.override_value, value[1:3])

    def test_getitem_keeps_absent_overrides_absent(self):
        p = Perturbation(np.ones((4, 2)))[:2]
        assert p.override_mask is None and p.override_value is None

    def test_equality_and_hash_are_identity(self):
        """Two draws with equal arrays are distinct events; no array truth test."""
        first, second = Perturbation(np.ones(2)), Perturbation(np.ones(2))
        assert first != second
        assert first == first
        assert {first: "a", second: "b"}[first] == "a"


def every_model():
    """Each scenario at ϵ = 5 %, aging alone and composed, and the
    selective sampler of each component group."""
    models = {name: build_scenario_model(name, 0.05, seed=0) for name in SCENARIOS}
    models["aging"] = AgingModel(seed=0)
    models["variation+aging"] = ComposedModel(VariationModel(0.05, seed=0), AgingModel(seed=1))
    for group in ("theta", "activation", "negweight"):
        models[f"selective-{group}"] = _SelectiveVariation(0.05, group, seed=0)
    return models


class TestOneDrawForm:
    @pytest.mark.parametrize("role", EPSILON_ROLES)
    @pytest.mark.parametrize("name", sorted(every_model()))
    def test_every_model_draws_a_perturbation_per_role(self, name, role):
        shape = (4, 3) if role == "theta" else (2, 7)
        draw = every_model()[name].sample_perturbation(5, shape, role=role)
        assert isinstance(draw, Perturbation)
        assert draw.scale.shape == (5, *shape)


class TestCombinators:
    def test_mask_free_concat_is_plain_concatenate(self):
        scales = [np.full((2, 3), i, dtype=float) for i in range(3)]
        out = eps_concat([Perturbation(scale) for scale in scales], axis=0)
        assert out.override_mask is None and out.override_value is None
        assert_array_equal(out.scale, np.concatenate(scales, axis=0))

    def test_mixed_concat_zero_fills_missing_masks(self):
        plain = Perturbation(np.full((2, 3), 2.0))
        masked = Perturbation(
            np.ones((2, 3)),
            np.array([[True, False, False], [False, False, True]]),
            np.full((2, 3), 9.0),
        )
        out = eps_concat([plain, masked], axis=0)
        assert isinstance(out, Perturbation)
        assert out.shape == (4, 3)
        assert not out.override_mask[:2].any()
        assert_array_equal(out.override_mask[2:], masked.override_mask)
        assert_array_equal(out.override_value[2:], masked.override_value)

    def test_stack_adds_lane_axis(self):
        scales = [np.full((2, 3), float(i)) for i in range(4)]
        out = eps_stack([Perturbation(scale) for scale in scales], axis=0)
        assert out.override_mask is None
        assert out.shape == (4, 2, 3)
        assert_array_equal(out.scale, np.stack(scales, axis=0))


class TestProtocol:
    def test_sample_perturbation_is_the_one_abstract_draw(self):
        assert NonIdealityModel.__abstractmethods__ == {"is_nominal", "sample_perturbation"}
        assert MultiplicativeModel.__abstractmethods__ == {"is_nominal", "sample"}

    def test_only_multiplicative_models_sample(self):
        multiplicative = (VariationModel(0.1), GaussianVariationModel(0.1),
                          CorrelatedVariationModel(0.1), AgingModel())
        assert all(isinstance(m, MultiplicativeModel) for m in multiplicative)
        for model in (StuckAtModel(), ComposedModel(VariationModel(0.1))):
            assert not isinstance(model, MultiplicativeModel)
            assert not hasattr(model, "sample")


class TestStuckAtModel:
    def test_defect_rates_and_values(self):
        model = StuckAtModel(p_stuck_on=0.25, p_stuck_off=0.25,
                             g_min=0.01, g_max=10.0, seed=0)
        p = model.sample_perturbation(200, (8, 8), role="theta")
        assert isinstance(p, Perturbation)
        rate = p.override_mask.mean()
        assert 0.45 < rate < 0.55
        stuck = p.override_value[p.override_mask]
        assert set(np.unique(stuck)) <= {0.01, 10.0}
        assert_array_equal(p.scale, np.ones_like(p.scale))

    def test_nominal_when_probabilities_zero(self):
        model = StuckAtModel(p_stuck_on=0.0, p_stuck_off=0.0, seed=0)
        assert model.is_nominal
        out = model.sample_perturbation(3, (2, 2), role="theta")
        assert out.override_mask is None
        assert_array_equal(out.scale, np.ones((3, 2, 2)))

    def test_invalid_probabilities_rejected(self):
        with pytest.raises(ValueError):
            StuckAtModel(p_stuck_on=0.7, p_stuck_off=0.7)
        with pytest.raises(ValueError):
            StuckAtModel(p_stuck_on=-0.1)
        with pytest.raises(ValueError):
            StuckAtModel(g_min=1.0, g_max=0.5)


class TestCorrelatedVariationModel:
    def test_within_draw_correlation_exceeds_iid(self):
        corr = CorrelatedVariationModel(0.1, correlation=0.9, seed=0)
        iid = VariationModel(0.1, seed=0)
        draws_corr = corr.sample(500, (6, 6)).reshape(500, -1)
        draws_iid = iid.sample(500, (6, 6)).reshape(500, -1)
        # Shared per-draw factors make devices of one draw move together:
        # the variance of per-draw means shrinks ~1/n for i.i.d. draws but
        # stays O(ρσ²) under correlation.
        assert draws_corr.mean(axis=1).var() > 5 * draws_iid.mean(axis=1).var()

    def test_clip_bounds(self):
        model = CorrelatedVariationModel(0.3, correlation=0.5, seed=0)
        draws = model.sample(100, (4, 4))
        assert draws.min() >= 1.0 - 3 * model.sigma
        assert draws.max() <= 1.0 + 3 * model.sigma

    def test_invalid_correlation_rejected(self):
        with pytest.raises(ValueError):
            CorrelatedVariationModel(0.1, correlation=1.5)


class TestComposedModel:
    def test_needs_at_least_one_model(self):
        with pytest.raises(ValueError):
            ComposedModel()

    def test_multiplicative_composition_matches_product(self):
        a = VariationModel(0.1, seed=1)
        b = GaussianVariationModel(0.05, seed=2)
        composed = ComposedModel(VariationModel(0.1, seed=1),
                                 GaussianVariationModel(0.05, seed=2))
        assert_array_equal(
            composed.sample_perturbation(5, (3, 3)).scale,
            a.sample(5, (3, 3)) * b.sample(5, (3, 3)),
        )

    def test_later_override_wins(self):
        first = StuckAtModel(p_stuck_on=1.0, p_stuck_off=0.0, g_max=10.0, seed=0)
        second = StuckAtModel(p_stuck_on=0.0, p_stuck_off=1.0, g_min=0.01, seed=0)
        p = ComposedModel(first, second).sample_perturbation(2, (2, 2), role="theta")
        assert isinstance(p, Perturbation)
        assert p.override_mask.all()
        assert_array_equal(p.override_value, np.full((2, 2, 2), 0.01))

    def test_no_override_components_return_mask_free_draw(self):
        composed = ComposedModel(VariationModel(0.1, seed=1))
        out = composed.sample_perturbation(3, (2, 2), role="theta")
        assert out.override_mask is None and out.override_value is None
        assert_array_equal(out.scale, VariationModel(0.1, seed=1).sample(3, (2, 2)))

    def test_protocol_flags(self):
        composed = ComposedModel(VariationModel(0.0, seed=1), StuckAtModel(seed=2))
        assert isinstance(composed, NonIdealityModel)
        assert not composed.is_nominal           # defects fire even at ε=0
        draw = composed.sample_perturbation(2, (3, 3), role="theta")
        assert isinstance(draw, Perturbation)
        assert draw.override_mask.shape == (2, 3, 3)
        nominal = ComposedModel(VariationModel(0.0), StuckAtModel(0.0, 0.0))
        assert nominal.is_nominal


class TestApplyNonideality:
    def test_mask_free_draw_is_plain_multiply(self):
        nominal = np.arange(6.0).reshape(2, 3)
        eps = np.linspace(0.9, 1.1, 12).reshape(2, 2, 3)
        assert_array_equal(apply_nonideality(nominal, Perturbation(eps)), nominal * eps)

    def test_override_pins_sign_preserving_magnitude(self):
        nominal = np.array([[1.0, -2.0], [3.0, -4.0]])
        scale = np.full((1, 2, 2), 1.5)
        mask = np.array([[[True, True], [False, False]]])
        value = np.full((1, 2, 2), 10.0)
        out = apply_nonideality(nominal, Perturbation(scale, mask, value))
        assert_array_equal(out[0, 0], [10.0, -10.0])     # sign kept
        assert_array_equal(out[0, 1], [4.5, -6.0])       # scaled elsewhere

    def test_bwd_of_mask_free_draw_is_scaled_sum(self):
        d_eff = np.arange(12.0).reshape(2, 2, 3)
        eps = np.linspace(0.9, 1.1, 12).reshape(2, 2, 3)
        assert_array_equal(
            apply_nonideality_bwd(d_eff, Perturbation(eps), axis=0),
            (d_eff * eps).sum(axis=0),
        )

    def test_bwd_zeroes_gradient_through_stuck_devices(self):
        d_eff = np.ones((2, 2, 3))
        scale = np.full((2, 2, 3), 2.0)
        mask = np.zeros((2, 2, 3), dtype=bool)
        mask[:, 0, 0] = True
        grad = apply_nonideality_bwd(d_eff, Perturbation(scale, mask, np.ones_like(scale)), axis=0)
        assert grad[0, 0] == 0.0
        assert_array_equal(grad[0, 1:], np.full(2, 4.0))

    def test_finite_difference_through_override(self):
        # d(apply)/d(nominal) is scale off-mask and 0 on-mask (the override
        # magnitude does not depend on the nominal value).
        nominal = np.array([2.0, -3.0])
        scale = np.array([[1.2, 0.8]])
        mask = np.array([[False, True]])
        value = np.array([[5.0, 5.0]])
        p = Perturbation(scale, mask, value)
        h = 1e-6
        for i, expected in enumerate([1.2, 0.0]):
            bumped = nominal.copy()
            bumped[i] += h
            num = (apply_nonideality(bumped, p) - apply_nonideality(nominal, p))[0, i] / h
            assert num == pytest.approx(expected, abs=1e-6)


class TestScenarioRegistry:
    def test_default_draws_like_variation_model(self):
        model = build_scenario_model(DEFAULT_SCENARIO, 0.1, seed=3)
        reference = VariationModel(0.1, seed=3)
        assert type(model) is VariationModel
        for shape, role in (((5, 3), "theta"), ((2, 7), "act"), ((2, 7), "neg")):
            assert_array_equal(model.sample_perturbation(4, shape, role=role).scale,
                               reference.sample(4, shape))

    def test_known_scenarios(self):
        assert set(scenario_names()) == {"default", "gaussian", "stuck-1pct", "correlated"}
        assert isinstance(build_scenario_model("gaussian", 0.1, seed=0),
                          GaussianVariationModel)
        stuck = build_scenario_model("stuck-1pct", 0.1, seed=0)
        assert isinstance(stuck, ComposedModel)
        draw = stuck.sample_perturbation(2, (3, 3), role="theta")
        assert isinstance(draw, Perturbation)
        assert draw.override_mask.shape == (2, 3, 3)
        assert isinstance(build_scenario_model("correlated", 0.1, seed=0),
                          CorrelatedVariationModel)

    def test_unknown_scenario_message_lists_choices(self):
        with pytest.raises(ValueError, match="known scenarios"):
            build_scenario_model("nope", 0.1)

    def test_registry_descriptions_present(self):
        for name, scenario in SCENARIOS.items():
            assert scenario.name == name
            assert scenario.description
