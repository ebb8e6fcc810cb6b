"""Nominal and variation-aware pNN training (Sec. III-C, IV-A).

Hyperparameters mirror the paper:

- Adam with default settings, but distinct learning rates per parameter
  kind: ``α_θ = 0.1`` for the crossbar conductances and ``α_ω = 0.005`` for
  the nonlinear-circuit parameters (``α_ω = 0`` — i.e. frozen — reproduces
  the non-learnable baseline);
- full-batch training with the Monte-Carlo expected loss, ``N_train = 20``
  variation samples per epoch (1 sample when ϵ = 0, which *is* nominal
  training);
- early stopping on the validation loss with configurable patience (the
  paper uses 5000 epochs; the benchmark profiles scale this down), keeping
  the best epoch's parameters — those are the circuits that "would be
  printed".

Two execution engines implement the identical optimization:

- ``engine="kernel"`` (default) — a one-lane run of the lane loop
  :func:`repro.core.lanes.train_pnn_lanes`: hand-derived forward/backward
  kernels (:mod:`repro.core.grad_kernels`) over raw parameter arrays, with
  preallocated workspaces and no per-epoch graph, Tensor wrapper, or
  state-dict copy.  Table II trains ``L`` seeds in lockstep through the
  same loop, and every lane is bitwise equal to its one-lane run;
- ``engine="autograd"`` — the original taped loop over the live
  :class:`~repro.core.pnn.PrintedNeuralNetwork` module, kept as the slow
  cross-check.

Both engines consume the train-variation RNG stream in the same canonical
per-layer (θ, activation ω, negweight ω) order and produce per-epoch loss
histories that agree to float64 rounding (pinned by
``tests/core/test_training_engine.py``).  See ``docs/TRAINING.md`` for the
full training-path contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.autograd.tensor import Tensor, no_grad
from repro.core import kernels
from repro.core.grad_kernels import ce_loss_fwd, margin_loss_fwd
from repro.core.losses import MarginLoss, VoltageCrossEntropy, make_loss
from repro.core.params import snapshot_params
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import (
    DEFAULT_SCENARIO,
    active_scenario_model,
    model_has_overrides,
    sample_role,
)
from repro.optim import Adam, EarlyStopping

#: Seed offset separating the fixed validation ε stream from training draws.
VALIDATION_SEED_OFFSET = 104729


@dataclass
class TrainConfig:
    """Hyperparameters of one pNN training run.

    ``seed`` drives both RNG streams of the run — the per-epoch training
    draws and the frozen validation sample at
    ``seed + VALIDATION_SEED_OFFSET`` (see ``docs/TRAINING.md`` §2).  In
    the lane tier every field except ``seed`` must agree across the
    stacked configs (``repro.core.lanes.LANE_SHARED_FIELDS``).

    ``scenario`` names the non-ideality configuration to train under
    (``repro.core.variation.SCENARIOS``).  Every scenario builds its model
    through the registry; the ``"default"`` scenario's ``VariationModel``
    is bit-identical to pre-scenario behavior, and named scenarios may be
    non-nominal even at ε = 0 (e.g. stuck-at defects).
    """

    lr_theta: float = 0.1
    lr_omega: float = 0.005
    learnable_nonlinear: bool = True
    epsilon: float = 0.0
    n_mc_train: int = 20
    max_epochs: int = 3000
    patience: int = 500
    loss: str = "margin"
    seed: int = 0
    scenario: str = DEFAULT_SCENARIO

    @property
    def variation_aware(self) -> bool:
        return self.epsilon > 0.0


@dataclass
class TrainResult:
    """Outcome of one training run (one per lane from the lane loop).

    ``history`` holds one ``(epoch, train_loss, val_loss)`` tuple per
    epoch actually run; all fields are bitwise comparable across lane
    widths (the lane tests assert them with ``==``, not ``allclose``).
    """

    best_epoch: int
    best_val_loss: float
    epochs_run: int
    history: List[Tuple[int, float, float]] = field(default_factory=list)


def draw_epoch_epsilons(variation, n_mc: int, pnn: PrintedNeuralNetwork):
    """Draw one epoch's variation factors in the canonical stream order.

    One ``(ε_θ, ε_act, ε_neg)`` triple per layer, exactly the shapes and
    order :meth:`PrintedNeuralNetwork.forward` samples internally — so
    pre-drawing (for the lane loop, or to freeze the validation set)
    consumes the RNG identically to the taped path.

    Scenario models are sampled through ``sample_perturbation`` with the
    canonical (θ, act, neg) role hints; duck-typed legacy models keep the
    bare ``sample`` surface — the RNG stream order is identical either way
    (``tests/core/test_sampling_order.py``).
    """
    return [
        (
            sample_role(
                variation, n_mc, (layer.in_features + 2, layer.out_features), "theta"
            ),
            sample_role(variation, n_mc, (layer.activation.n_circuits, 7), "act"),
            sample_role(variation, n_mc, (layer.negation.n_circuits, 7), "neg"),
        )
        for layer in pnn.layers
    ]


def _training_variation(config: TrainConfig):
    """The training-draw model for ``config``, or ``None`` for nominal runs.

    A scenario model that is non-nominal even at ε = 0 (e.g. stuck-at
    defects) turns Monte-Carlo sampling on.
    """
    return active_scenario_model(config.scenario, config.epsilon, seed=config.seed)


def _validation_variation(config: TrainConfig):
    """The validation-draw model at ``seed + VALIDATION_SEED_OFFSET``."""
    return active_scenario_model(
        config.scenario, config.epsilon, seed=config.seed + VALIDATION_SEED_OFFSET
    )


def _validation_epsilons(pnn: PrintedNeuralNetwork, config: TrainConfig, val_variation):
    """The *fixed* validation ε samples, drawn once before the epoch loop.

    Historically a fresh ``VariationModel(seed + VALIDATION_SEED_OFFSET)``
    was reconstructed every epoch, which re-drew the identical samples each
    time; hoisting the draw preserves those exact arrays (regression-pinned
    in ``tests/core/test_training_evaluation.py``) while doing the work
    once.  An explicit ``val_variation`` override (e.g. an aging model) is
    sampled once up front for the same reason: the early-stopping signal
    must compare parameter progress, not fresh sampling noise.
    """
    variation = val_variation
    if variation is None:
        variation = _validation_variation(config)
    if variation is None or variation.is_nominal:
        return None
    return draw_epoch_epsilons(variation, config.n_mc_train, pnn)


def train_pnn(
    pnn: PrintedNeuralNetwork,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    variation=None,
    val_variation=None,
    engine: str = "kernel",
) -> TrainResult:
    """Train a pNN in place and restore its best-validation parameters.

    ``variation`` / ``val_variation`` optionally override the scenario
    model built from ``config`` with any object exposing the same
    ``sample``/``is_nominal`` interface (e.g. an
    :class:`~repro.core.aging.AgingModel` for aging-aware training).

    ``engine`` selects the execution path: ``"kernel"`` (default) is a
    one-lane run of :func:`repro.core.lanes.train_pnn_lanes`, overrides
    included; ``"autograd"`` runs the original taped loop (multiplicative
    non-idealities only).  Both consume the same variation stream and
    agree to float64 rounding.
    """
    if engine == "kernel":
        # Deferred: repro.core.lanes imports this module's types.
        from repro.core.lanes import train_pnn_lanes

        return train_pnn_lanes(
            [pnn], x_train, y_train, x_val, y_val, [config],
            variations=[variation], val_variations=[val_variation],
        )[0]
    if engine != "autograd":
        raise ValueError(f"unknown engine {engine!r}; expected 'kernel' or 'autograd'")

    train_variation = variation
    if train_variation is None:
        train_variation = _training_variation(config)
    if model_has_overrides(train_variation) or model_has_overrides(val_variation):
        raise ValueError(
            "engine='autograd' supports multiplicative non-idealities only; "
            "override-carrying models (stuck-at defects) need engine='kernel'"
        )
    n_mc = 1
    if train_variation is not None and not train_variation.is_nominal:
        n_mc = config.n_mc_train
    val_epsilons = _validation_epsilons(pnn, config, val_variation)
    return _train_autograd(
        pnn, x_train, y_train, x_val, y_val, config, train_variation, n_mc,
        val_epsilons,
    )


# --------------------------------------------------------------------- #
# autograd engine (slow cross-check)                                    #
# --------------------------------------------------------------------- #


def _train_autograd(
    pnn: PrintedNeuralNetwork,
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    config: TrainConfig,
    train_variation,
    n_mc: int,
    val_epsilons,
) -> TrainResult:
    """The original taped epoch loop over the live module."""
    loss_fn = make_loss(config.loss)
    groups = [{"params": pnn.theta_parameters(), "lr": config.lr_theta}]
    if config.learnable_nonlinear and config.lr_omega > 0:
        groups.append({"params": pnn.nonlinear_parameters(), "lr": config.lr_omega})
    optimizer = Adam(groups)
    stopper = EarlyStopping(patience=config.patience)

    history: List[Tuple[int, float, float]] = []
    epochs_run = 0
    for epoch in range(config.max_epochs):
        epochs_run = epoch + 1
        optimizer.zero_grad()
        outputs = pnn.forward(x_train, variation=train_variation, n_mc=n_mc)
        loss = loss_fn(outputs, y_train)
        loss.backward()
        optimizer.step()

        val_loss = _validation_loss(
            pnn, x_val, y_val, loss_fn, config, epsilons=val_epsilons
        )
        history.append((epoch, loss.item(), val_loss))
        stopper.update(val_loss, epoch, state_fn=pnn.state_dict)
        if stopper.should_stop:
            break

    if stopper.best_state is not None:
        pnn.load_state_dict(stopper.best_state)
    return TrainResult(
        best_epoch=stopper.best_epoch,
        best_val_loss=stopper.best_value,
        epochs_run=epochs_run,
        history=history,
    )


def _validation_loss(
    pnn,
    x_val,
    y_val,
    loss_fn,
    config: TrainConfig,
    val_variation=None,
    epsilons=None,
) -> float:
    """Validation loss; under variation, uses a *fixed* set of ε samples.

    Keeping the validation samples identical across epochs makes the
    early-stopping signal compare parameter progress instead of mixing it
    with fresh sampling noise.  Callers inside the epoch loop pass the
    hoisted ``epsilons``; when omitted, the historical per-call behaviour
    (a fresh ``VariationModel(seed + VALIDATION_SEED_OFFSET)``, which draws
    those same samples) is reproduced.

    The forward pass runs through the autograd-free snapshot path
    (:func:`repro.core.kernels.network_forward`) with the numpy loss
    kernels; unrecognized loss callables fall back to the Tensor path.
    """
    if epsilons is None:
        variation = val_variation
        if variation is None:
            variation = _validation_variation(config)
        if variation is not None and not variation.is_nominal:
            epsilons = draw_epoch_epsilons(variation, config.n_mc_train, pnn)

    with no_grad():
        params = snapshot_params(pnn)
    voltages = kernels.network_forward(params, x_val, epsilons=epsilons)
    if isinstance(loss_fn, MarginLoss):
        value, _ = margin_loss_fwd(voltages, y_val, margin=loss_fn.margin)
        return value
    if isinstance(loss_fn, VoltageCrossEntropy):
        value, _ = ce_loss_fwd(voltages, y_val, temperature=loss_fn.temperature)
        return value
    with no_grad():
        return loss_fn(Tensor(voltages), y_val).item()
