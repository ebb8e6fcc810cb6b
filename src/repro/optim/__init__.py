"""The Adam optimizer, its lane-stacked variant and early stopping."""

from repro.optim.adam import Adam, RawParameter
from repro.optim.early_stopping import EarlyStopping
from repro.optim.lanes import LaneAdam

__all__ = ["Adam", "EarlyStopping", "RawParameter", "LaneAdam"]
