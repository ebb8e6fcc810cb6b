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

Training runs through the lane loop :func:`repro.core.lanes.train_pnn_lanes`:
hand-derived forward/backward kernels (:mod:`repro.core.grad_kernels`)
over raw parameter arrays, with preallocated workspaces and no per-epoch
graph, Tensor wrapper, or state-dict copy.  :func:`train_pnn` is a
one-lane run of it; Table II trains ``L`` seeds in lockstep through the
same loop, and every lane is bitwise equal to its one-lane run.  The
train-variation RNG stream is consumed in the canonical per-layer
(θ, activation ω, negweight ω) order of
:func:`repro.core.kernels.sample_layer_epsilons`.  See
``docs/TRAINING.md`` for the full training-path contract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.grad_kernels import LOSS_KERNELS
from repro.core.kernels import sample_params_epsilons
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import DEFAULT_SCENARIO, active_scenario_model

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

    def __post_init__(self):
        if self.loss not in LOSS_KERNELS:
            raise ValueError(
                f"unknown loss {self.loss!r}; expected one of {sorted(LOSS_KERNELS)}"
            )

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

    One ``(ε_θ, ε_act, ε_neg)`` triple per layer of the live network,
    drawn by :func:`repro.core.kernels.sample_params_epsilons` — the loop
    evaluation runs over a snapshot — so pre-drawing (each training epoch,
    or the frozen validation set) consumes the RNG in the one canonical
    order (``tests/core/test_sampling_order.py``).
    """
    return sample_params_epsilons(variation, n_mc, pnn)


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
) -> TrainResult:
    """Train a pNN in place and restore its best-validation parameters.

    A one-lane run of :func:`repro.core.lanes.train_pnn_lanes`.
    ``variation`` / ``val_variation`` optionally override the scenario
    model built from ``config`` with any
    :class:`~repro.core.variation.NonIdealityModel` (e.g. an
    :class:`~repro.core.aging.AgingModel` for aging-aware training).
    """
    # Deferred: repro.core.lanes imports this module's types.
    from repro.core.lanes import train_pnn_lanes

    return train_pnn_lanes(
        [pnn], x_train, y_train, x_val, y_val, [config],
        variations=[variation], val_variations=[val_variation],
    )[0]
