"""The training loop vs the recorded taped engine, epoch for epoch.

``train_pnn`` — a one-lane run of the lane loop — must reproduce the taped
autograd loop it replaced: the same train/validation loss at every epoch
(≤1e-9 relative — the live comparison observed float64 rounding), the
same early-stopping decision, and the same restored best-epoch
parameters.

The taped loop is gone; its runs are kept in
``golden/taped_reference.json``.  Recipe, run on the commit before the
taped path was deleted: ``make_pnn`` below (analytic surrogates, ``[2, 3,
2]``, ``default_rng(7)``) trained on the ``blob_data`` fixture by
``train_pnn(..., engine="autograd")`` with

- ``trajectory/{ε}/{learnable|fixed}/{loss}``: ``TrainConfig(max_epochs=30,
  patience=30, epsilon=ε, n_mc_train=8, learnable_nonlinear=...,
  loss=..., seed=5)``;
- ``trajectory/early_stopping``: ``TrainConfig(max_epochs=200,
  patience=5, epsilon=0.0, seed=3)``;
- ``override/{case}``: ``TrainConfig(max_epochs=25, patience=25,
  epsilon=ε, n_mc_train=6, seed=5)`` plus the ``OVERRIDE_CASES``
  overrides;

recording each epoch's ``(train_loss, val_loss)`` as ``float.hex``, the
early-stopping bookkeeping, and the restored best-epoch arrays (keyed by
their recorded names, see the ``pnn_state`` fixture).
"""

import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, TrainConfig, kernels, train_pnn
from repro.core.aging import AgingModel
from repro.core.grad_kernels import margin_loss_fwd
from repro.core.training import (
    VALIDATION_SEED_OFFSET,
    _validation_epsilons,
    draw_epoch_epsilons,
)
from repro.core.variation import ComposedModel, VariationModel

#: The taped loop's recorded runs (see the module docstring).
TAPED = json.loads((Path(__file__).parent / "golden" / "taped_reference.json").read_text())

HISTORY_RTOL = 1e-9


def make_pnn(analytic_surrogates, seed=7):
    return PrintedNeuralNetwork(
        [2, 3, 2], analytic_surrogates, rng=np.random.default_rng(seed)
    )


def train(analytic_surrogates, blob_data, config, overrides=lambda: {}):
    x_train, y_train, x_val, y_val = blob_data
    pnn = make_pnn(analytic_surrogates)
    result = train_pnn(pnn, x_train, y_train, x_val, y_val, config, **overrides())
    return result, pnn


def assert_history_matches_recording(result, key):
    recorded = TAPED[key]
    reference = np.array([
        [float.fromhex(t), float.fromhex(v)]
        for t, v in (line.split()[1:] for line in recorded["history"])
    ])
    kernel = np.array([(t, v) for _, t, v in result.history])
    assert reference.shape == kernel.shape
    np.testing.assert_allclose(kernel, reference, rtol=HISTORY_RTOL, atol=0)
    assert result.best_epoch == recorded["best_epoch"]
    assert result.best_val_loss == pytest.approx(
        float.fromhex(recorded["best_val_loss"]), rel=HISTORY_RTOL
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
    def test_loss_histories_agree(
        self, analytic_surrogates, blob_data, pnn_state, epsilon, learnable, loss
    ):
        config = TrainConfig(
            max_epochs=30, patience=30, epsilon=epsilon, n_mc_train=8,
            learnable_nonlinear=learnable, loss=loss, seed=5,
        )
        result, pnn = train(analytic_surrogates, blob_data, config)
        key = f"trajectory/{epsilon}/{'learnable' if learnable else 'fixed'}/{loss}"
        assert_history_matches_recording(result, key)
        # The restored best-epoch designs must match too.
        trained = pnn_state(pnn)
        # atol floor: coordinates with ~zero gradient wander at the 1e-10
        # level under Adam's eps, identically-shaped noise in both engines
        # (the live comparison used the same tolerances).
        for name, entry in TAPED[key]["state"].items():
            reference = np.array([float.fromhex(h) for h in entry["hex"]]).reshape(entry["shape"])
            np.testing.assert_allclose(trained[name], reference, rtol=1e-8, atol=1e-9)

    def test_early_stopping_same_epoch(self, analytic_surrogates, blob_data):
        config = TrainConfig(max_epochs=200, patience=5, epsilon=0.0, seed=3)
        result, _ = train(analytic_surrogates, blob_data, config)
        assert result.epochs_run == TAPED["trajectory/early_stopping"]["epochs_run"]
        assert_history_matches_recording(result, "trajectory/early_stopping")


def aging(seed, drift_rate=0.15):
    return AgingModel(drift_rate=drift_rate, spread=0.02, time_horizon=2.0, seed=seed)


#: Multiplicative override cases the taped loop was recorded on:
#: case -> (config ε, () -> train_pnn override kwargs).
OVERRIDE_CASES = {
    "aging": (0.0, lambda: dict(variation=aging(3), val_variation=aging(99))),
    "aging-train-only": (0.05, lambda: dict(variation=aging(3))),
    "composite": (0.0, lambda: dict(
        variation=ComposedModel(VariationModel(0.1, seed=5), aging(4, 0.05)),
        val_variation=ComposedModel(VariationModel(0.1, seed=7), aging(6, 0.05)),
    )),
    "nominal-aging": (0.0, lambda: dict(
        variation=AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=0),
        val_variation=AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=1),
    )),
}


@pytest.mark.slow
class TestOverrideTrajectoryEquivalence:
    """Aging-aware training runs through lanes and still tracks the taped loop's recording."""

    @pytest.mark.parametrize("case", sorted(OVERRIDE_CASES))
    def test_override_histories_agree(self, analytic_surrogates, blob_data, case):
        epsilon, overrides = OVERRIDE_CASES[case]
        config = TrainConfig(max_epochs=25, patience=25, epsilon=epsilon, n_mc_train=6, seed=5)
        result, _ = train(analytic_surrogates, blob_data, config, overrides)
        assert_history_matches_recording(result, f"override/{case}")
        assert result.epochs_run == TAPED[f"override/{case}"]["epochs_run"] == 25


class TestKernelEngineBehaviour:
    def test_train_pnn_has_no_engine_parameter(self, analytic_surrogates, blob_data):
        # One training loop is left, so there is nothing to select.
        x_train, y_train, x_val, y_val = blob_data
        with pytest.raises(TypeError):
            train_pnn(make_pnn(analytic_surrogates), x_train, y_train, x_val, y_val,
                      TrainConfig(max_epochs=1), engine="kernel")

    def test_train_config_has_no_verbose_field(self):
        # The lane loop never printed progress, so the flag is gone.
        with pytest.raises(TypeError):
            TrainConfig(verbose=True)

    def test_non_learnable_keeps_w_fixed(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        before = [(layer.w_act.copy(), layer.w_neg.copy()) for layer in pnn.layers]
        theta_before = [layer.theta.copy() for layer in pnn.layers]
        config = TrainConfig(max_epochs=10, patience=10, learnable_nonlinear=False, seed=0)
        train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        for layer, (w_act, w_neg) in zip(pnn.layers, before):
            np.testing.assert_array_equal(layer.w_act, w_act)
            np.testing.assert_array_equal(layer.w_neg, w_neg)
        assert any(
            not np.array_equal(layer.theta, ref)
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
        )
        assert len(result.history) == 5
        assert np.isfinite(result.best_val_loss)

    def test_module_left_at_best_epoch_params(self, analytic_surrogates, blob_data):
        """The returned module must hold the best epoch's design, not the last."""
        _, _, x_val, y_val = blob_data
        config = TrainConfig(max_epochs=40, patience=40, epsilon=0.1, n_mc_train=6, seed=2)
        result, pnn = train(analytic_surrogates, blob_data, config)
        assert result.best_epoch < result.epochs_run - 1
        assert validation_loss(pnn, x_val, y_val, config) == pytest.approx(
            result.best_val_loss, rel=1e-9
        )


def validation_loss(pnn, x_val, y_val, config):
    """The margin loss on the run's frozen validation draws, through the kernels."""
    epsilons = _validation_epsilons(pnn, config, None)
    voltages = kernels.network_forward(pnn.snapshot(), x_val, epsilons=epsilons)
    value, _ = margin_loss_fwd(voltages, y_val)
    return value


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
                np.testing.assert_array_equal(a1.scale, b1.scale)
                np.testing.assert_array_equal(a2.scale, b2.scale)
                np.testing.assert_array_equal(a3.scale, b3.scale)

    def test_validation_loss_identical_across_epochs(self, analytic_surrogates, blob_data):
        _, _, x_val, y_val = blob_data
        pnn = make_pnn(analytic_surrogates)
        config = TrainConfig(epsilon=0.1, n_mc_train=6, seed=17)
        first = validation_loss(pnn, x_val, y_val, config)
        second = validation_loss(pnn, x_val, y_val, config)
        assert first == second
