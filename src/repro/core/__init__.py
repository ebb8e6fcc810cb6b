"""The printed neural network (pNN) with learnable nonlinear circuits.

This package is the paper's primary contribution (Sec. III):

- :mod:`~repro.core.conductance` — the printable-conductance range and
  the θ initialization;
- :mod:`~repro.core.pnn` — the full network (topology #input-3-#output in
  the experiments) as its learnable arrays: per layer the crossbar
  conductances θ and the raw Fig. 5 parameters 𝔴 of its activation and
  negative-weight circuits;
- :mod:`~repro.core.variation` — the composable non-ideality pipeline:
  the :class:`NonIdealityModel` protocol, the multiplicative printing
  variation ε ~ U[1−ϵ, 1+ϵ] and its Gaussian sibling, stuck-at
  conductance defects, spatially-correlated printing variation, model
  composition, and the named scenario registry;
- :mod:`~repro.core.grad_kernels` — the one implementation of the pNN
  equations (Eqs. 1–3, Fig. 5, the surrogates, the losses): forward
  kernels with hand-derived VJPs, plus :class:`KernelNetwork`, the frozen
  structure of one network, whose one-network loss calls run the lane
  executor with one lane;
- :mod:`~repro.core.kernels` — the one printed-layer assembly
  (``layer_forward``, run by training, evaluation and deploy
  verification), the forward drivers over a frozen design and the
  canonical variation-sampling order;
- :mod:`~repro.core.params` — immutable :class:`PNNParams` snapshots, the
  designs the drivers execute;
- :mod:`~repro.core.training` — nominal and variation-aware training
  (Monte-Carlo expected loss, N_train = 20): ``train_pnn`` is a one-lane
  run of the lane loop;
- :mod:`~repro.core.lanes` — the training loop and :class:`LaneNetwork`,
  the one forward/backward executor over raw parameter arrays: ``L``
  compatible jobs stacked on a leading lane axis, one lockstep epoch loop,
  per-lane early stopping with a shrinking active set — every lane bitwise
  equal to its one-lane run;
- :mod:`~repro.core.evaluation` — Monte-Carlo test evaluation
  (N_test = 100) reporting mean ± std accuracy as in Table II, serially
  (``evaluate_mc``) or sharded across a process pool
  (``evaluate_mc_sharded``) with bitwise identical results.
"""

from repro.core.conductance import ConductanceConfig
from repro.core.params import (
    PNN_PARAMS_VERSION,
    LayerParams,
    PNNParams,
    SurrogateParams,
    snapshot_params,
)
from repro.core.pnn import PrintedLayer, PrintedNeuralNetwork
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
from repro.core.grad_kernels import KernelNetwork, Workspace
from repro.core.training import TrainConfig, TrainResult, train_pnn
from repro.core.lanes import LaneNetwork, train_pnn_lanes
from repro.core.evaluation import (
    SAMPLE_BLOCK,
    SHARD_BATCH_MC,
    MonteCarloAccuracy,
    evaluate_mc,
    evaluate_mc_sharded,
    plan_shards,
)
from repro.core.aging import AgingModel, evaluate_lifetime
from repro.core.serialization import (
    load_design,
    load_params,
    save_design,
    save_params,
    surrogate_fingerprint,
)

__all__ = [
    "AgingModel",
    "evaluate_lifetime",
    "ConductanceConfig",
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
    "evaluate_mc_sharded",
    "plan_shards",
    "load_design",
    "load_params",
    "save_design",
    "save_params",
    "surrogate_fingerprint",
]
