"""The kernel training engine vs the autograd engine, epoch for epoch.

``train_pnn(engine="kernel")`` — a one-lane run of the lane loop — must
reproduce the taped loop exactly: the same train/validation loss at every
epoch (≤1e-9 relative — observed agreement is float64 rounding), the same
early-stopping decision, and the same restored best-epoch parameters.  Both engines share one variation RNG
stream contract (canonical per-layer θ/act/neg draws, one 3-cycle per
layer per epoch), which these tests pin as well.
"""

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn
from repro.core.aging import AgingModel, CompositeVariation
from repro.core.losses import make_loss
from repro.core.training import (
    VALIDATION_SEED_OFFSET,
    _validation_loss,
    draw_epoch_epsilons,
)
from repro.core.variation import VariationModel, build_scenario_model

HISTORY_RTOL = 1e-9


def make_pnn(analytic_surrogates, seed=7):
    return PrintedNeuralNetwork(
        [2, 3, 2], analytic_surrogates, rng=np.random.default_rng(seed)
    )


def train_both(analytic_surrogates, blob_data, config, overrides=lambda: {}):
    x_train, y_train, x_val, y_val = blob_data
    results, networks = {}, {}
    for engine in ("autograd", "kernel"):
        pnn = make_pnn(analytic_surrogates)
        results[engine] = train_pnn(
            pnn, x_train, y_train, x_val, y_val, config, engine=engine, **overrides()
        )
        networks[engine] = pnn
    return results, networks


def assert_histories_match(results):
    reference = np.array([(t, v) for _, t, v in results["autograd"].history])
    kernel = np.array([(t, v) for _, t, v in results["kernel"].history])
    assert reference.shape == kernel.shape
    np.testing.assert_allclose(kernel, reference, rtol=HISTORY_RTOL, atol=0)
    assert results["kernel"].best_epoch == results["autograd"].best_epoch
    assert results["kernel"].best_val_loss == pytest.approx(
        results["autograd"].best_val_loss, rel=HISTORY_RTOL
    )


@pytest.mark.slow
class TestTrajectoryEquivalence:
    @pytest.mark.parametrize(
        "epsilon,learnable,loss",
        [
            (0.0, True, "margin"),
            (0.1, True, "margin"),
            (0.1, False, "margin"),
            (0.1, True, "ce"),
        ],
    )
    def test_loss_histories_agree(self, analytic_surrogates, blob_data, epsilon, learnable, loss):
        config = TrainConfig(
            max_epochs=30, patience=30, epsilon=epsilon, n_mc_train=8,
            learnable_nonlinear=learnable, loss=loss, seed=5,
        )
        results, networks = train_both(analytic_surrogates, blob_data, config)
        assert_histories_match(results)
        # The restored best-epoch designs must match too.
        reference = networks["autograd"].state_dict()
        trained = networks["kernel"].state_dict()
        # atol floor: coordinates with ~zero gradient wander at the 1e-10
        # level under Adam's eps, identically-shaped noise in both engines.
        for name in reference:
            np.testing.assert_allclose(
                trained[name], reference[name], rtol=1e-8, atol=1e-9
            )

    def test_early_stopping_same_epoch(self, analytic_surrogates, blob_data):
        config = TrainConfig(max_epochs=200, patience=5, epsilon=0.0, seed=3)
        results, _ = train_both(analytic_surrogates, blob_data, config)
        assert results["kernel"].epochs_run == results["autograd"].epochs_run
        assert_histories_match(results)


def aging(seed, drift_rate=0.15):
    return AgingModel(drift_rate=drift_rate, spread=0.02, time_horizon=2.0, seed=seed)


#: Multiplicative override cases the taped loop also runs:
#: case -> (config ε, () -> train_pnn override kwargs).
OVERRIDE_CASES = {
    "aging": (0.0, lambda: dict(variation=aging(3), val_variation=aging(99))),
    "aging-train-only": (0.05, lambda: dict(variation=aging(3))),
    "composite": (0.0, lambda: dict(
        variation=CompositeVariation(VariationModel(0.1, seed=5), aging(4, 0.05)),
        val_variation=CompositeVariation(VariationModel(0.1, seed=7), aging(6, 0.05)),
    )),
    "nominal-aging": (0.0, lambda: dict(
        variation=AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=0),
        val_variation=AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=1),
    )),
}


@pytest.mark.slow
class TestOverrideTrajectoryEquivalence:
    """Aging-aware training runs through lanes and still tracks the taped loop."""

    @pytest.mark.parametrize("case", sorted(OVERRIDE_CASES))
    def test_override_histories_agree(self, analytic_surrogates, blob_data, case):
        epsilon, overrides = OVERRIDE_CASES[case]
        config = TrainConfig(max_epochs=25, patience=25, epsilon=epsilon, n_mc_train=6, seed=5)
        results, _ = train_both(analytic_surrogates, blob_data, config, overrides)
        assert_histories_match(results)
        assert results["kernel"].epochs_run == results["autograd"].epochs_run == 25


class TestKernelEngineBehaviour:
    def test_unknown_engine_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        # "lanes" was a second spelling of the kernel engine's one-lane run.
        for engine in ("numpy", "lanes"):
            with pytest.raises(ValueError, match="engine"):
                train_pnn(pnn, x_train, y_train, x_val, y_val, TrainConfig(max_epochs=1),
                          engine=engine)

    def test_autograd_rejects_override_carrying_models(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        stuck = build_scenario_model("stuck-1pct", 0.05, seed=3)
        with pytest.raises(ValueError, match="override-carrying"):
            train_pnn(make_pnn(analytic_surrogates), x_train, y_train, x_val, y_val,
                      TrainConfig(max_epochs=1), variation=stuck, engine="autograd")

    def test_train_config_has_no_verbose_field(self):
        # The lane loop never printed progress, so the flag is gone.
        with pytest.raises(TypeError):
            TrainConfig(verbose=True)

    def test_non_learnable_keeps_w_fixed(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        before = [
            (layer.activation.w_raw.data.copy(), layer.negation.w_raw.data.copy())
            for layer in pnn.layers
        ]
        theta_before = [layer.theta.data.copy() for layer in pnn.layers]
        config = TrainConfig(max_epochs=10, patience=10, learnable_nonlinear=False, seed=0)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config, engine="kernel")
        for layer, (w_act, w_neg) in zip(pnn.layers, before):
            np.testing.assert_array_equal(layer.activation.w_raw.data, w_act)
            np.testing.assert_array_equal(layer.negation.w_raw.data, w_neg)
        assert any(
            not np.array_equal(layer.theta.data, ref)
            for layer, ref in zip(pnn.layers, theta_before)
        ), "theta should still train"

    def test_variation_override_objects_supported(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        config = TrainConfig(max_epochs=5, patience=5, seed=1, n_mc_train=4)
        aging = AgingModel(drift_rate=0.05, time_horizon=2.0, seed=9)
        result = train_pnn(
            pnn, x_train, y_train, x_val, y_val, config,
            variation=aging,
            val_variation=AgingModel(drift_rate=0.05, time_horizon=2.0, seed=10),
            engine="kernel",
        )
        assert len(result.history) == 5
        assert np.isfinite(result.best_val_loss)

    def test_module_left_at_best_epoch_params(self, analytic_surrogates, blob_data):
        """The returned module must hold the best epoch's design, not the last."""
        x_train, y_train, x_val, y_val = blob_data
        config = TrainConfig(max_epochs=40, patience=40, epsilon=0.1, n_mc_train=6, seed=2)
        results, networks = train_both(analytic_surrogates, blob_data, config)
        loss_fn = make_loss(config.loss)
        for engine, pnn in networks.items():
            best = results[engine].best_val_loss
            restored = _validation_loss(pnn, x_val, y_val, loss_fn, config)
            assert restored == pytest.approx(best, rel=1e-9), engine


class TestValidationSampleHoisting:
    """Satellite regression: the fixed validation ε stream is unchanged."""

    def test_hoisted_samples_match_legacy_per_epoch_draws(self, analytic_surrogates):
        pnn = make_pnn(analytic_surrogates)
        config = TrainConfig(epsilon=0.1, n_mc_train=6, seed=17)
        # The legacy loop rebuilt this model every epoch; identical seeds
        # mean identical draws epoch after epoch.
        epoch_draws = [
            draw_epoch_epsilons(
                VariationModel(config.epsilon, seed=config.seed + VALIDATION_SEED_OFFSET),
                config.n_mc_train,
                pnn,
            )
            for _ in range(3)
        ]
        for later in epoch_draws[1:]:
            for (a1, a2, a3), (b1, b2, b3) in zip(epoch_draws[0], later):
                np.testing.assert_array_equal(a1, b1)
                np.testing.assert_array_equal(a2, b2)
                np.testing.assert_array_equal(a3, b3)

    def test_validation_loss_identical_across_epochs(self, analytic_surrogates, blob_data):
        _, _, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        config = TrainConfig(epsilon=0.1, n_mc_train=6, seed=17)
        loss_fn = make_loss("margin")
        first = _validation_loss(pnn, x_val, y_val, loss_fn, config)
        second = _validation_loss(pnn, x_val, y_val, loss_fn, config)
        assert first == second

    def test_validation_loss_positional_signature_stable(self, analytic_surrogates, blob_data):
        _, _, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        config = TrainConfig(epsilon=0.0, seed=0)
        value = _validation_loss(pnn, x_val, y_val, make_loss("margin"), config)
        assert np.isfinite(value)


class TestTrainEpsilonStream:
    def test_kernel_engine_consumes_stream_like_module_forward(self, analytic_surrogates):
        """draw_epoch_epsilons mirrors PrintedNeuralNetwork.forward's draws."""
        pnn = make_pnn(analytic_surrogates)
        reference = VariationModel(0.1, seed=4)
        seen = []
        original = reference.sample

        def recording(n_mc, shape):
            sample = original(n_mc, shape)
            seen.append(sample)
            return sample

        reference.sample = recording
        pnn.forward(np.zeros((3, 2)), variation=reference, n_mc=5)
        drawn = draw_epoch_epsilons(VariationModel(0.1, seed=4), 5, pnn)
        flat = [array for triple in drawn for array in triple]
        assert len(flat) == len(seen)
        for mine, module in zip(flat, seen):
            np.testing.assert_array_equal(mine, module)
