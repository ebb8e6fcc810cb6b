"""Gradient-based optimizers, schedules and stopping criteria."""

from repro.optim.sgd import SGD, RawParameter
from repro.optim.adam import Adam
from repro.optim.early_stopping import EarlyStopping
from repro.optim.lanes import LaneAdam
from repro.optim.schedulers import StepLR, CosineAnnealingLR

__all__ = [
    "SGD",
    "Adam",
    "EarlyStopping",
    "RawParameter",
    "LaneAdam",
    "StepLR",
    "CosineAnnealingLR",
]
