"""Variation-override training is pinned bit-for-bit to recorded results.

``train_pnn(variation=..., val_variation=...)`` — the path aging-aware
training takes (``repro.core.aging``) — runs as a one-lane
``train_pnn_lanes`` run.  These pins were recorded from the serial epoch
loop that path used before it moved onto lanes: every per-epoch
``(train_loss, val_loss)`` as ``float.hex``, the early-stop bookkeeping,
and a sha256 of the restored best-epoch arrays under their recorded
names (the ``pnn_state`` fixture).  They cover the
analytic surrogate pair and the trained MLP bundle, each under five
override cases:

- aging for training and validation;
- aging for training only, validating on the config's ε = 0.05 draws;
- a ``ComposedModel`` of printing variation and aging;
- stuck-at defects (an override-carrying model) passed as objects;
- a nominal aging model (no Monte-Carlo sampling at all).

Recipe: the case table below, ``[2, 3, 2]`` networks seeded with
``default_rng(7)``, ``TrainConfig(max_epochs=30, patience=3,
n_mc_train=4, seed=3)``.  Do not loosen the comparison: a failure means
the override path re-rolled a noise stream or changed its arithmetic.

Each recording is checked twice: as the one-lane ``train_pnn`` run, and
as the middle lane of a 3-lane ``train_pnn_lanes`` stack whose mates
have their own networks, seeds and override objects.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.core import PrintedNeuralNetwork, TrainConfig, train_pnn, train_pnn_lanes
from repro.core.aging import AgingModel
from repro.core.variation import ComposedModel, VariationModel, build_scenario_model

RECORDED = json.loads(
    (Path(__file__).parent / "golden" / "override_training.json").read_text()
)


def aging(seed):
    return AgingModel(drift_rate=0.15, spread=0.02, time_horizon=2.0, seed=seed)


#: case -> () -> (config ε, training override, validation override)
CASES = {
    "aging": lambda: (0.0, aging(3), aging(99)),
    "aging-train-only": lambda: (0.05, aging(3), None),
    "composite": lambda: (
        0.0,
        ComposedModel(VariationModel(0.1, seed=5), aging(4)),
        ComposedModel(VariationModel(0.1, seed=7), aging(6)),
    ),
    "stuck-1pct": lambda: (
        0.0,
        build_scenario_model("stuck-1pct", 0.05, seed=3),
        build_scenario_model("stuck-1pct", 0.05, seed=99),
    ),
    "nominal-aging": lambda: (
        0.0,
        AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=0),
        AgingModel(drift_rate=0.1, spread=0.0, fixed_time=0.0, seed=1),
    ),
}


def state_sha256(state):
    digest = hashlib.sha256()
    for name in sorted(state):
        array = np.ascontiguousarray(state[name])
        digest.update(name.encode())
        digest.update(array.dtype.str.encode())
        digest.update(repr(array.shape).encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def make_config(epsilon, seed=3):
    return TrainConfig(max_epochs=30, patience=3, epsilon=epsilon, n_mc_train=4, seed=seed)


def assert_matches_recording(surrogate, case, result, state):
    recorded = RECORDED[f"{surrogate}/{case}"]
    history = [f"{epoch} {train.hex()} {val.hex()}" for epoch, train, val in result.history]
    assert history == recorded["history"]
    assert result.best_epoch == recorded["best_epoch"]
    assert result.epochs_run == recorded["epochs_run"]
    assert result.best_val_loss == float.fromhex(recorded["best_val_loss"])
    assert state_sha256(state) == recorded["state_sha256"]


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("surrogate", ["analytic", "mlp"])
def test_override_training_bit_identical_to_recorded(
    surrogate, case, analytic_surrogates, tiny_bundle, blob_data, pnn_state
):
    x_train, y_train, x_val, y_val = blob_data
    surrogates = analytic_surrogates if surrogate == "analytic" else tiny_bundle
    epsilon, variation, val_variation = CASES[case]()
    pnn = PrintedNeuralNetwork([2, 3, 2], surrogates, rng=np.random.default_rng(7))
    result = train_pnn(
        pnn, x_train, y_train, x_val, y_val, make_config(epsilon),
        variation=variation, val_variation=val_variation,
    )
    assert_matches_recording(surrogate, case, result, pnn_state(pnn))


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("surrogate", ["analytic", "mlp"])
def test_override_lane_in_stack_bit_identical_to_recorded(
    surrogate, case, analytic_surrogates, tiny_bundle, blob_data, pnn_state
):
    x_train, y_train, x_val, y_val = blob_data
    surrogates = analytic_surrogates if surrogate == "analytic" else tiny_bundle
    # Lane 1 is the recorded run; its mates get fresh override objects
    # from the same case table and their own networks and seeds.
    lanes = [CASES[case]() for _ in range(3)]
    epsilon = lanes[1][0]
    pnns = [
        PrintedNeuralNetwork([2, 3, 2], surrogates, rng=np.random.default_rng(rng_seed))
        for rng_seed in (11, 7, 13)
    ]
    configs = [make_config(epsilon, seed) for seed in (5, 3, 8)]
    results = train_pnn_lanes(
        pnns, x_train, y_train, x_val, y_val, configs,
        variations=[variation for _, variation, _ in lanes],
        val_variations=[val_variation for _, _, val_variation in lanes],
    )
    assert_matches_recording(surrogate, case, results[1], pnn_state(pnns[1]))
