"""The lane training loop, bit for bit: step level and run level.

These tests pin the lane loop's two contracts (see ``docs/TRAINING.md``):

- **step level** — one :meth:`LaneNetwork.loss_and_grads` /
  :meth:`LaneNetwork.loss_values` call on an ``L``-lane stack equals, per
  lane and bitwise, the serial executor that ran one network's arrays
  alone before it became the one-lane case of ``LaneNetwork``.  Its
  values are kept in ``golden/serial_executor.json``; that executor was
  checked against the taped engine and finite differences, and
  ``test_grad_kernels.py`` checks the one-lane case against the same
  recordings, so the chain lanes == serial executor == taped reference
  holds without a second executor;
- **run level** — lane ``l`` of an ``L``-lane ``train_pnn_lanes`` run
  reproduces the one-lane run for the same seed **bitwise** — the exact
  per-epoch ``(train_loss, val_loss)`` history (``==``, no tolerance),
  the exact early-stop epoch, and byte-identical trained parameters —
  including when lanes early-stop at different epochs and the active
  stack shrinks mid-run.  Table II relies on it: a seed's result does not
  depend on which seeds share its batch; ``train_pnn`` is the one-lane run.

The serial executor's recording, ``golden/serial_executor.json``, was
taken on the commit before its forward/backward was deleted.  Per key
``{analytic|mlp}/{shared|per_neuron}/{margin|ce}/{variation}`` of the
:data:`STEP_VARIATIONS` grid below: ``make_pnn`` for each of
:data:`SEEDS` (the ``analytic_surrogates`` / ``tiny_bundle`` fixture),
``draw_epoch_epsilons(STEP_VARIATIONS[variation](seed), 4, pnns[0])``
per seed (``None`` for ``nominal``); then, per seed,
``KernelNetwork.from_pnn(pnn)`` on ``KernelNetwork.extract_arrays(pnn)``:
``loss_and_grads`` on the ``blob_data`` training split and
``loss_value`` on its validation split, with that seed's ε.  ``seed1``
holds seed 1's loss, validation loss and every layer's θ, 𝔴_act and
𝔴_neg gradient as ``float.hex``; ``sha256`` holds :func:`lane_digest` of
each seed, in seed order.  With ``need_omega_grads=False`` the recorded
executor returned the same loss and θ gradients, bitwise, and no 𝔴
gradients (checked while recording).
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro import telemetry
from repro.core import (
    ConductanceConfig,
    KernelNetwork,
    PrintedNeuralNetwork,
    TrainConfig,
    train_pnn,
    train_pnn_lanes,
)
from repro.core import lanes as lanes_module
from repro.core.aging import AgingModel
from repro.core.lanes import LANE_SHARED_FIELDS, LaneNetwork, stack_epsilons
from repro.core.training import VALIDATION_SEED_OFFSET, draw_epoch_epsilons
from repro.core.variation import ComposedModel, VariationModel, build_scenario_model
from repro.surrogate.design_space import DesignSpace

SEEDS = (1, 2, 3)

#: The serial executor's recorded losses and gradients (module docstring).
SERIAL = json.loads((Path(__file__).parent / "golden" / "serial_executor.json").read_text())


def make_pnn(surrogates, seed, per_neuron=False):
    return PrintedNeuralNetwork(
        [2, 3, 2],
        surrogates,
        per_neuron_activation=per_neuron,
        rng=np.random.default_rng(seed),
    )


def make_config(seed, **overrides):
    defaults = dict(
        max_epochs=25, patience=25, epsilon=0.1, n_mc_train=5,
        learnable_nonlinear=True, loss="margin",
    )
    defaults.update(overrides)
    return TrainConfig(seed=seed, **defaults)


def run_one_lane_each(surrogates, blob_data, configs, per_neuron=False, **overrides):
    """``L`` separate one-lane runs (``train_pnn``)."""
    x_train, y_train, x_val, y_val = blob_data
    results, states = [], []
    for lane, config in enumerate(configs):
        pnn = make_pnn(surrogates, config.seed, per_neuron)
        results.append(
            train_pnn(
                pnn, x_train, y_train, x_val, y_val, config,
                **{name: models[lane] for name, models in overrides.items()},
            )
        )
        states.append(KernelNetwork.extract_arrays(pnn))
    return results, states


def run_stacked(surrogates, blob_data, configs, per_neuron=False, **overrides):
    """One ``L``-lane run of the same networks and configs."""
    x_train, y_train, x_val, y_val = blob_data
    pnns = [make_pnn(surrogates, config.seed, per_neuron) for config in configs]
    results = train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs, **overrides)
    return results, [KernelNetwork.extract_arrays(pnn) for pnn in pnns]


def assert_bitwise_equal(one_lane, stacked):
    one_results, one_states = one_lane
    lane_results, lane_states = stacked
    assert len(one_results) == len(lane_results)
    for s, l in zip(one_results, lane_results):
        assert l.history == s.history          # exact float equality, per epoch
        assert l.best_epoch == s.best_epoch
        assert l.epochs_run == s.epochs_run
        assert l.best_val_loss == s.best_val_loss
    for s, l in zip(one_states, lane_states):
        assert len(s) == len(l)
        for index, (one_layer, lane_layer) in enumerate(zip(s, l)):
            for name, mine, theirs in zip(("theta", "w_act", "w_neg"), lane_layer, one_layer):
                np.testing.assert_array_equal(mine, theirs, err_msg=f"layer{index}.{name}")


#: Variation settings of the step-level grid: nominal, the default ε
#: family, override-carrying stuck-at defects, and the two override
#: models aging-aware training passes in (seed -> model).
STEP_VARIATIONS = {
    "nominal": None,
    "eps0.1": lambda seed: build_scenario_model("default", 0.1, seed=seed),
    "stuck-1pct": lambda seed: build_scenario_model("stuck-1pct", 0.05, seed=seed),
    "aging": lambda seed: AgingModel(drift_rate=0.15, spread=0.02, time_horizon=2.0, seed=seed),
    "composite": lambda seed: ComposedModel(
        VariationModel(0.1, seed=seed),
        AgingModel(drift_rate=0.05, time_horizon=2.0, seed=seed + 50),
    ),
}


def lane_digest(loss, val_loss, grads):
    """SHA-256 of one lane's loss, validation loss and gradient bytes."""
    digest = hashlib.sha256()
    digest.update(np.float64(loss).tobytes())
    digest.update(np.float64(val_loss).tobytes())
    for layer in grads:
        for grad in layer:
            digest.update(repr(tuple(grad.shape)).encode())
            digest.update(np.ascontiguousarray(grad, dtype=np.float64).tobytes())
    return digest.hexdigest()


class TestStepLevelReference:
    """LaneNetwork on a 3-lane stack == the recorded serial executor, bitwise."""

    @pytest.mark.parametrize("variation", sorted(STEP_VARIATIONS))
    @pytest.mark.parametrize("loss", ["margin", "ce"])
    @pytest.mark.parametrize("per_neuron", [False, True])
    @pytest.mark.parametrize("surrogate", ["analytic", "mlp"])
    def test_loss_and_grads_equal_serial_executor_per_lane(
        self, surrogate, per_neuron, loss, variation,
        analytic_surrogates, tiny_bundle, blob_data,
    ):
        x, y, x_val, y_val = blob_data
        surrogates = analytic_surrogates if surrogate == "analytic" else tiny_bundle
        pnns = [make_pnn(surrogates, seed, per_neuron) for seed in SEEDS]
        epsilons = [None] * len(pnns)
        if STEP_VARIATIONS[variation] is not None:
            epsilons = [
                draw_epoch_epsilons(STEP_VARIATIONS[variation](seed), 4, pnns[0])
                for seed in SEEDS
            ]
        stacked_eps = None if epsilons[0] is None else stack_epsilons(epsilons)

        lane_net = LaneNetwork.from_pnns(pnns)
        stacked = LaneNetwork.stack_arrays(pnns)
        values, grads = lane_net.loss_and_grads(stacked, x, y, loss=loss, epsilons=stacked_eps)
        val_values = lane_net.loss_values(stacked, x_val, y_val, loss=loss, epsilons=stacked_eps)
        lanes = [
            (values[lane], val_values[lane],
             [(g.theta[lane], g.w_act[lane], g.w_neg[lane]) for g in grads])
            for lane in range(len(SEEDS))
        ]

        sharing = "per_neuron" if per_neuron else "shared"
        recorded = SERIAL[f"{surrogate}/{sharing}/{loss}/{variation}"]
        # Seed 1 in full, so a mismatch names the value that moved.
        value, val_value, lane_grads = lanes[0]
        assert float(value).hex() == recorded["seed1"]["loss"]
        assert float(val_value).hex() == recorded["seed1"]["val_loss"]
        for index, (mine, ref) in enumerate(zip(lane_grads, recorded["seed1"]["grads"])):
            for name, grad, entry in zip(("theta", "w_act", "w_neg"), mine, ref):
                assert list(grad.shape) == entry["shape"], f"layer {index} {name}"
                assert [float(v).hex() for v in grad.ravel()] == entry["hex"], (
                    f"layer {index} {name}"
                )
        assert [lane_digest(*lane) for lane in lanes] == recorded["sha256"]

        # Without 𝔴 gradients: the same losses and θ gradients, bitwise.
        off_values, off_grads = lane_net.loss_and_grads(
            stacked, x, y, loss=loss, epsilons=stacked_eps, need_omega_grads=False
        )
        assert off_values.tobytes() == values.tobytes()
        for on, off in zip(grads, off_grads):
            assert off.w_act is None and off.w_neg is None
            assert off.theta.tobytes() == on.theta.tobytes()


@pytest.mark.slow
class TestLaneBitIdentity:
    """The property grid: surrogate family × activation mode × loss × ϵ."""

    @pytest.mark.parametrize(
        "per_neuron,loss,epsilon,learnable",
        [
            (False, "margin", 0.1, True),
            (True, "margin", 0.1, True),
            (False, "ce", 0.1, True),
            (True, "ce", 0.1, False),
            (False, "margin", 0.0, True),
        ],
    )
    def test_analytic_lanes_bitwise_equal_serial(
        self, analytic_surrogates, blob_data, per_neuron, loss, epsilon, learnable
    ):
        configs = [
            make_config(seed, loss=loss, epsilon=epsilon, learnable_nonlinear=learnable)
            for seed in SEEDS
        ]
        assert_bitwise_equal(
            run_one_lane_each(analytic_surrogates, blob_data, configs, per_neuron),
            run_stacked(analytic_surrogates, blob_data, configs, per_neuron),
        )

    @pytest.mark.parametrize(
        "per_neuron,loss",
        [(False, "margin"), (True, "ce")],
    )
    def test_mlp_surrogate_lanes_bitwise_equal_serial(
        self, tiny_bundle, blob_data, per_neuron, loss
    ):
        configs = [make_config(seed, loss=loss, max_epochs=15) for seed in SEEDS]
        assert_bitwise_equal(
            run_one_lane_each(tiny_bundle, blob_data, configs, per_neuron),
            run_stacked(tiny_bundle, blob_data, configs, per_neuron),
        )

    def test_staggered_early_stops(self, analytic_surrogates, blob_data, tmp_path):
        """Lanes stopping at different epochs shrink the stack mid-run and
        still finish bitwise equal to their one-lane runs (traced: the
        telemetry records the mid-run shrink and changes no bit)."""
        configs = [
            make_config(seed, max_epochs=120, patience=5, loss="ce") for seed in SEEDS
        ]
        one_lane = run_one_lane_each(analytic_surrogates, blob_data, configs)
        telemetry.enable(tmp_path / "tel")
        try:
            stacked = run_stacked(analytic_surrogates, blob_data, configs)
        finally:
            telemetry.disable()
        assert_bitwise_equal(one_lane, stacked)
        epochs = {result.epochs_run for result in one_lane[0]}
        assert len(epochs) > 1, (
            "fixture regression: staggered-stop test needs lanes stopping at "
            f"different epochs, got {epochs}"
        )
        shrinks = [e["attrs"] for e in telemetry.read_events(tmp_path / "tel")
                   if e.get("name") == "lanes.shrink"]
        assert any(shrink["active"] > 0 for shrink in shrinks), (
            f"no mid-run shrink recorded: {shrinks}"
        )

    def test_gather_invariance(self, analytic_surrogates, blob_data):
        """A lane's result must not depend on its stack mates."""
        configs = [make_config(seed, max_epochs=20) for seed in SEEDS]
        full = run_stacked(analytic_surrogates, blob_data, configs)
        pair = run_stacked(analytic_surrogates, blob_data, configs[:2])
        assert_bitwise_equal(
            (full[0][:2], full[1][:2]),
            pair,
        )

    def test_single_lane_equals_serial(self, analytic_surrogates, blob_data):
        configs = [make_config(7, max_epochs=15)]
        assert_bitwise_equal(
            run_one_lane_each(analytic_surrogates, blob_data, configs),
            run_stacked(analytic_surrogates, blob_data, configs),
        )


def aging(seed):
    return AgingModel(drift_rate=0.05, time_horizon=2.0, seed=seed)


class TestLaneEngineDispatch:
    def test_kernel_engine_is_a_one_lane_run(self, analytic_surrogates, blob_data, monkeypatch):
        x_train, y_train, x_val, y_val = blob_data
        config = make_config(4, max_epochs=10)
        widths = []
        real = lanes_module.train_pnn_lanes

        def spy(pnns, *args, **kwargs):
            widths.append(len(pnns))
            return real(pnns, *args, **kwargs)

        monkeypatch.setattr(lanes_module, "train_pnn_lanes", spy)
        pnn = make_pnn(analytic_surrogates, 4)
        result = train_pnn(pnn, x_train, y_train, x_val, y_val, config)
        assert widths == [1]
        assert result.epochs_run == len(result.history) == 10

    def test_variation_overrides_run_through_lanes(self, analytic_surrogates, blob_data):
        """Per-lane aging overrides: a 3-lane stack equals 3 one-lane runs."""
        configs = [make_config(seed, max_epochs=12, patience=3, epsilon=0.0) for seed in SEEDS]

        def train_models():
            return [aging(seed) for seed in SEEDS]

        def val_models():
            return [aging(100 + seed) for seed in SEEDS]

        one_lane = run_one_lane_each(
            analytic_surrogates, blob_data, configs,
            variation=train_models(), val_variation=val_models(),
        )
        stacked = run_stacked(
            analytic_surrogates, blob_data, configs,
            variations=train_models(), val_variations=val_models(),
        )
        assert_bitwise_equal(one_lane, stacked)
        assert len({r.epochs_run for r in one_lane[0]}) > 1, "lanes should stop apart"

    @pytest.mark.parametrize("scenario,epsilon", [("default", 0.1), ("stuck-1pct", 0.05)])
    def test_explicit_scenario_models_equal_config_built(
        self, analytic_surrogates, blob_data, scenario, epsilon
    ):
        """Passing the models a config would build is the same run: the
        override channel and the config channel are one mechanism."""
        configs = [
            make_config(seed, max_epochs=12, epsilon=epsilon, scenario=scenario)
            for seed in SEEDS
        ]
        built = run_stacked(analytic_surrogates, blob_data, configs)
        explicit = run_stacked(
            analytic_surrogates, blob_data, configs,
            variations=[build_scenario_model(scenario, epsilon, seed=c.seed) for c in configs],
            val_variations=[
                build_scenario_model(scenario, epsilon, seed=c.seed + VALIDATION_SEED_OFFSET)
                for c in configs
            ],
        )
        assert_bitwise_equal(built, explicit)
        none_entries = run_stacked(
            analytic_surrogates, blob_data, configs,
            variations=[None] * len(configs), val_variations=[None] * len(configs),
        )
        assert_bitwise_equal(built, none_entries)


#: A second value for every field lanes must share.
OTHER_SHARED_VALUES = {
    "lr_theta": 0.2,
    "lr_omega": 0.01,
    "learnable_nonlinear": False,
    "epsilon": 0.2,
    "scenario": "stuck-1pct",
    "n_mc_train": 6,
    "max_epochs": 26,
    "patience": 26,
    "loss": "ce",
}


class TestLaneValidation:
    @pytest.mark.parametrize("field", LANE_SHARED_FIELDS)
    def test_shared_field_disagreement_rejected(self, analytic_surrogates, blob_data, field):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        configs = [make_config(1), make_config(2, **{field: OTHER_SHARED_VALUES[field]})]
        assert getattr(configs[0], field) != getattr(configs[1], field)
        with pytest.raises(ValueError, match=field):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)

    def test_mismatched_configs_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        configs = [make_config(1), make_config(2, epsilon=0.2)]
        with pytest.raises(ValueError, match="epsilon"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs)

    def test_config_count_mismatch_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        with pytest.raises(ValueError, match="config"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, [make_config(1)])

    def test_mismatched_topologies_rejected(self, analytic_surrogates):
        a = make_pnn(analytic_surrogates, 1)
        b = PrintedNeuralNetwork(
            [2, 4, 2], analytic_surrogates, rng=np.random.default_rng(2)
        )
        with pytest.raises(ValueError, match="layer sizes"):
            LaneNetwork.from_pnns([a, b])

    def test_mismatched_surrogate_objects_rejected(self, analytic_surrogates):
        from repro.surrogate.analytic import AnalyticSurrogate

        a = make_pnn(analytic_surrogates, 1)
        b = make_pnn((AnalyticSurrogate("ptanh"), AnalyticSurrogate("negweight")), 2)
        with pytest.raises(ValueError, match="surrogate"):
            LaneNetwork.from_pnns([a, b])

    def test_mismatched_conductance_rejected(self, analytic_surrogates):
        a = make_pnn(analytic_surrogates, 1)
        b = PrintedNeuralNetwork(
            [2, 3, 2], analytic_surrogates,
            conductance=ConductanceConfig(g_min=0.5, g_max=2.0),
            rng=np.random.default_rng(2),
        )
        with pytest.raises(ValueError, match="conductance"):
            LaneNetwork.from_pnns([a, b])

    def test_mismatched_design_space_rejected(self, analytic_surrogates):
        a = make_pnn(analytic_surrogates, 1)
        b = PrintedNeuralNetwork(
            [2, 3, 2], analytic_surrogates, space=DesignSpace(),
            rng=np.random.default_rng(2),
        )
        with pytest.raises(ValueError, match="design-space"):
            LaneNetwork.from_pnns([a, b])

    def test_empty_lane_list_returns_empty(self, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        assert train_pnn_lanes([], x_train, y_train, x_val, y_val, []) == []

    def test_lanes_disagreeing_on_sampling_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        configs = [make_config(seed, epsilon=0.0) for seed in (1, 2)]
        with pytest.raises(ValueError, match="training variation"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs,
                            variations=[aging(1), None])
        with pytest.raises(ValueError, match="validation variation"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs,
                            val_variations=[None, aging(2)])

    def test_variation_entry_count_mismatch_rejected(self, analytic_surrogates, blob_data):
        x_train, y_train, x_val, y_val = blob_data
        pnns = [make_pnn(analytic_surrogates, seed) for seed in (1, 2)]
        configs = [make_config(seed) for seed in (1, 2)]
        with pytest.raises(ValueError, match="variation model entry"):
            train_pnn_lanes(pnns, x_train, y_train, x_val, y_val, configs,
                            variations=[aging(1)])
