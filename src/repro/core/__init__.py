"""The printed neural network (pNN) with learnable nonlinear circuits.

This package is the paper's primary contribution (Sec. III):

- :mod:`~repro.core.conductance` — the printable-conductance constraint and
  its straight-through projection;
- :mod:`~repro.core.nonlinear` — the learnable nonlinear circuit module
  implementing the Fig. 5 parameter flow (sigmoid → denormalize →
  reassemble/clip → ratio-extend → normalize → surrogate → η);
- :mod:`~repro.core.player` — one printed layer: crossbar weighted sum
  (Eq. 1) with negative-weight routing and the ptanh activation;
- :mod:`~repro.core.pnn` — the full network (topology #input-3-#output in
  the experiments);
- :mod:`~repro.core.variation` — the composable non-ideality pipeline:
  the :class:`NonIdealityModel` protocol, the multiplicative printing
  variation ε ~ U[1−ϵ, 1+ϵ] and its Gaussian sibling, stuck-at
  conductance defects, spatially-correlated printing variation, model
  composition, and the named scenario registry;
- :mod:`~repro.core.kernels` — the stateless circuit math (Eqs. 1–3,
  Fig. 5) as pure functions over pluggable array backends;
- :mod:`~repro.core.params` — immutable :class:`PNNParams` inference
  snapshots executed by the kernels without autograd;
- :mod:`~repro.core.grad_kernels` — hand-derived backward kernels (VJPs)
  for every forward kernel, plus :class:`KernelNetwork`, the serial
  reference executor the lane executor is checked against;
- :mod:`~repro.core.training` — nominal and variation-aware training
  (Monte-Carlo expected loss, N_train = 20): ``train_pnn`` with the
  ``"kernel"`` engine (a one-lane run of the lane loop) or the
  ``"autograd"`` cross-check;
- :mod:`~repro.core.lanes` — the training loop: ``L`` compatible jobs
  stacked on a leading lane axis, one lockstep epoch loop, per-lane early
  stopping with a shrinking active set — every lane bitwise equal to its
  one-lane run;
- :mod:`~repro.core.evaluation` — Monte-Carlo test evaluation
  (N_test = 100) reporting mean ± std accuracy as in Table II, running
  through the autograd-free kernel path, serially (``evaluate_mc``) or
  sharded across a process pool (``evaluate_mc_sharded``) with bitwise
  identical results.
"""

from repro.core.conductance import ConductanceConfig
from repro.core.nonlinear import LearnableNonlinearCircuit
from repro.core.params import (
    PNN_PARAMS_VERSION,
    LayerParams,
    PNNParams,
    SurrogateParams,
    snapshot_params,
)
from repro.core.player import PrintedLayer
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import (
    DEFAULT_SCENARIO,
    SCENARIOS,
    ComposedModel,
    CorrelatedVariationModel,
    GaussianVariationModel,
    NonIdealityModel,
    Perturbation,
    StuckAtModel,
    VariationModel,
    build_scenario_model,
    scenario_names,
)
from repro.core.losses import MarginLoss, make_loss
from repro.core.grad_kernels import KernelNetwork, Workspace
from repro.core.training import TrainConfig, TrainResult, train_pnn
from repro.core.lanes import LaneNetwork, train_pnn_lanes
from repro.core.evaluation import (
    SAMPLE_BLOCK,
    SHARD_BATCH_MC,
    MonteCarloAccuracy,
    evaluate_mc,
    evaluate_mc_autograd,
    evaluate_mc_sharded,
    plan_shards,
)
from repro.core.aging import AgingModel, CompositeVariation, evaluate_lifetime
from repro.core.serialization import (
    load_params,
    load_pnn,
    save_params,
    save_pnn,
    surrogate_fingerprint,
)

__all__ = [
    "AgingModel",
    "CompositeVariation",
    "evaluate_lifetime",
    "ConductanceConfig",
    "LearnableNonlinearCircuit",
    "PrintedLayer",
    "PrintedNeuralNetwork",
    "PNNParams",
    "LayerParams",
    "SurrogateParams",
    "PNN_PARAMS_VERSION",
    "snapshot_params",
    "NonIdealityModel",
    "Perturbation",
    "VariationModel",
    "GaussianVariationModel",
    "StuckAtModel",
    "CorrelatedVariationModel",
    "ComposedModel",
    "SCENARIOS",
    "DEFAULT_SCENARIO",
    "build_scenario_model",
    "scenario_names",
    "MarginLoss",
    "make_loss",
    "KernelNetwork",
    "Workspace",
    "TrainConfig",
    "TrainResult",
    "train_pnn",
    "LaneNetwork",
    "train_pnn_lanes",
    "MonteCarloAccuracy",
    "SAMPLE_BLOCK",
    "SHARD_BATCH_MC",
    "evaluate_mc",
    "evaluate_mc_autograd",
    "evaluate_mc_sharded",
    "plan_shards",
    "load_params",
    "load_pnn",
    "save_params",
    "save_pnn",
    "surrogate_fingerprint",
]
