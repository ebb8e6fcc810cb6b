"""Experiment configurations and profiles.

The paper's full budget (10 seeds, early-stopping patience 5000,
N_train = 20, N_test = 100) takes GPU-days in the original; the profiles
below scale the budget while keeping the protocol identical, so the *shape*
of Table II/III (ordering of the four setups, robustness gains) is
preserved.  Select a profile with the ``REPRO_BENCH_PROFILE`` environment
variable (``smoke`` | ``fast`` | ``paper``).
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, Optional, Tuple


@dataclass(frozen=True)
class Setup:
    """One column group of Table II."""

    learnable: bool
    variation_aware: bool

    @property
    def label(self) -> str:
        nl = "learnable" if self.learnable else "non-learnable"
        tr = "variation-aware" if self.variation_aware else "nominal"
        return f"{nl} / {tr}"


#: The 2×2 ablation grid (Table III rows, Table II column groups).
SETUPS: Tuple[Setup, ...] = (
    Setup(learnable=False, variation_aware=False),   # baseline
    Setup(learnable=False, variation_aware=True),
    Setup(learnable=True, variation_aware=False),
    Setup(learnable=True, variation_aware=True),     # proposed
)

#: Variation levels at which every circuit is *tested* (Table II columns).
TEST_EPSILONS: Tuple[float, ...] = (0.05, 0.10)


@dataclass(frozen=True)
class ExperimentConfig:
    """Budget and protocol knobs for one experiment sweep."""

    seeds: Tuple[int, ...] = tuple(range(1, 11))   # the paper's seeds 1..10
    max_epochs: int = 30_000
    patience: int = 5_000
    n_mc_train: int = 20
    n_test: int = 100
    lr_theta: float = 0.1
    lr_omega: float = 0.005
    loss: str = "margin"
    hidden: int = 3                                 # the #input-3-#output topology
    max_train: Optional[int] = None                 # subsample cap for big datasets
    per_neuron_activation: bool = False

    def __post_init__(self) -> None:
        # Every cell prints its best seed; with no seeds there is no cell.
        if not self.seeds:
            raise ValueError(f"ExperimentConfig.seeds is empty ({self.seeds!r}); "
                             "a run needs at least one seed")
        # Every cell is measured over n_test fabrications.
        if self.n_test < 1:
            raise ValueError(f"ExperimentConfig.n_test is {self.n_test!r}; "
                             "a cell needs at least one Monte-Carlo fabrication")

    def with_overrides(self, **kwargs) -> "ExperimentConfig":
        from dataclasses import replace

        return replace(self, **kwargs)

    def training_fingerprint(self) -> Dict[str, object]:
        """Fields that determine the outcome of one *training* job.

        Used by :mod:`repro.experiments.cache` to build the on-disk cache
        key.  Two fields are deliberately excluded:

        - ``seeds`` — the per-job seed is part of the job key itself, so a
          run with more seeds can reuse every job already trained;
        - ``n_test`` — Monte-Carlo *evaluation* budget; it never affects
          the trained design, only how it is measured afterwards.

        Any change to a field listed here invalidates cached designs.
        """
        return {
            "max_epochs": self.max_epochs,
            "patience": self.patience,
            "n_mc_train": self.n_mc_train,
            "lr_theta": self.lr_theta,
            "lr_omega": self.lr_omega,
            "loss": self.loss,
            "hidden": self.hidden,
            "max_train": self.max_train,
            "per_neuron_activation": self.per_neuron_activation,
        }


PROFILES: Dict[str, ExperimentConfig] = {
    "paper": ExperimentConfig(),
    "fast": ExperimentConfig(
        seeds=(1, 2, 3),
        max_epochs=1200,
        patience=300,
        n_mc_train=10,
        n_test=100,
        max_train=1500,
    ),
    "smoke": ExperimentConfig(
        seeds=(1,),
        max_epochs=150,
        patience=150,
        n_mc_train=5,
        n_test=20,
        max_train=400,
    ),
}


def profile_from_env(default: str = "smoke") -> ExperimentConfig:
    """Resolve the profile named by ``REPRO_BENCH_PROFILE``."""
    name = os.environ.get("REPRO_BENCH_PROFILE", default).lower()
    if name not in PROFILES:
        raise KeyError(
            f"unknown profile {name!r}; choose one of {', '.join(PROFILES)}"
        )
    return PROFILES[name]
