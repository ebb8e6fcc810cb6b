"""Aging models for printed conductances (extension).

The paper's related work ([5], Zhao et al., ICCAD 2022) trains printed
neuromorphic circuits against *aging*: printed resistors drift over their
lifetime, degrading a circuit that was only optimized for its fresh state.
This module extends the reproduction with that capability, reusing the
Monte-Carlo machinery of variation-aware training: an aging model
*implements* the :class:`~repro.core.variation.NonIdealityModel` protocol
(isinstance-checkable, not duck-typed), so

- **aging-aware training** is ``train_pnn(..., TrainConfig(...))`` with the
  trainer's variation model swapped for an :class:`AgingModel`, and
- **lifetime evaluation** sweeps the accuracy over device age.

The drift model follows the common printed-resistor characterization:
conductance decays log-linearly with time,

    g(t) = g(0) · (1 − δ · ln(1 + t/τ)) · ε_stochastic

with device-to-device stochastic spread ε ~ U[1−σ, 1+σ].  Each Monte-Carlo
sample draws one age t ~ U[0, T] (one fabricated device observed at a
random point of its service life) and one spread per component.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.core.params import snapshot_params
from repro.core.pnn import PrintedNeuralNetwork
from repro.core.variation import MultiplicativeModel


class AgingModel(MultiplicativeModel):
    """Lifetime drift sampler — a :class:`MultiplicativeModel`.

    Purely multiplicative (``sample`` is the whole story), so its
    ``sample_perturbation`` is ``sample`` and it composes with any other
    model through :class:`~repro.core.variation.ComposedModel`.
    """

    def __init__(
        self,
        drift_rate: float = 0.05,
        time_horizon: float = 1.0,
        tau: float = 0.1,
        spread: float = 0.02,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        fixed_time: Optional[float] = None,
    ):
        """
        Parameters
        ----------
        drift_rate:
            δ — relative conductance loss per ln-decade of normalized time.
        time_horizon:
            T — the service life over which training/evaluation averages.
        tau:
            τ — the drift time constant (same unit as ``time_horizon``).
        spread:
            σ — device-to-device stochastic spread around the drift curve.
        fixed_time:
            Evaluate at one specific age instead of sampling t ~ U[0, T]
            (used by lifetime sweeps).
        """
        if drift_rate < 0:
            raise ValueError("drift_rate must be non-negative")
        if time_horizon < 0 or tau <= 0:
            raise ValueError("need time_horizon >= 0 and tau > 0")
        if not 0 <= spread < 1:
            raise ValueError("spread must be in [0, 1)")
        self.drift_rate = float(drift_rate)
        self.time_horizon = float(time_horizon)
        self.tau = float(tau)
        self.spread = float(spread)
        self.fixed_time = fixed_time
        self.rng = rng if rng is not None else np.random.default_rng(seed)

    @property
    def is_nominal(self) -> bool:
        """Aging is nominal only when there is neither drift nor spread."""
        no_drift = self.drift_rate == 0.0 or (
            self.fixed_time == 0.0 and self.fixed_time is not None
        )
        return no_drift and self.spread == 0.0

    def decay_factor(self, time: np.ndarray) -> np.ndarray:
        """Deterministic drift multiplier at age ``time``."""
        factor = 1.0 - self.drift_rate * np.log1p(np.asarray(time) / self.tau)
        return np.clip(factor, 0.05, None)

    def sample(self, n_mc: int, shape: Sequence[int]) -> np.ndarray:
        """Draw ``(n_mc, *shape)`` multiplicative aging factors."""
        if n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        shape = tuple(int(s) for s in shape)
        if self.fixed_time is not None:
            times = np.full(n_mc, self.fixed_time)
        else:
            times = self.rng.uniform(0.0, self.time_horizon, size=n_mc)
        drift = self.decay_factor(times).reshape(n_mc, *([1] * len(shape)))
        if self.spread > 0:
            jitter = self.rng.uniform(
                1.0 - self.spread, 1.0 + self.spread, size=(n_mc, *shape)
            )
        else:
            jitter = np.ones((n_mc, *shape))
        return drift * jitter

    def at_time(self, time: float) -> "AgingModel":
        """A copy of this model pinned to one device age."""
        return AgingModel(
            drift_rate=self.drift_rate,
            time_horizon=self.time_horizon,
            tau=self.tau,
            spread=self.spread,
            rng=np.random.default_rng(self.rng.integers(2**32)),
            fixed_time=float(time),
        )


@dataclass
class LifetimePoint:
    """Accuracy distribution at one device age."""

    time: float
    mean: float
    std: float


def evaluate_lifetime(
    pnn: PrintedNeuralNetwork,
    x: np.ndarray,
    y: np.ndarray,
    aging: AgingModel,
    times: Sequence[float],
    n_test: int = 50,
    seed: int = 0,
):
    """Accuracy-over-lifetime sweep (the aging analogue of Table II).

    At each age the aging model is pinned to that time (stochastic spread
    still active) and the circuit is evaluated with ``n_test`` Monte-Carlo
    device samples.  The design is snapshotted once and the sweep runs
    through the autograd-free kernel path.
    """
    y = np.asarray(y, dtype=np.int64)
    params = snapshot_params(pnn)
    points = []
    for time in times:
        pinned = aging.at_time(float(time))
        pinned.rng = np.random.default_rng(seed + int(1000 * time))
        predictions = params.predict(x, variation=pinned, n_mc=n_test)
        accuracies = (predictions == y).mean(axis=1)
        points.append(
            LifetimePoint(time=float(time), mean=float(accuracies.mean()),
                          std=float(accuracies.std()))
        )
    return points
