"""Printed-hardware non-idealities (Sec. III-C and extensions).

The paper models printing variation as an i.i.d. multiplicative factor

    ε ~ U[1 − ϵ, 1 + ϵ]

where ϵ reflects the printing precision (the paper evaluates ϵ ∈ {0%, 5%,
10%}), applied to the crossbar conductances θ and the printable component
values ω of the nonlinear circuits.  Real printed hardware exhibits
non-idealities that are *not* expressible as an independent multiplicative
factor — stuck-on/stuck-off conductance defects and spatially-correlated
printing variation (Bayat et al., "Advancing Memristive Analog Neuromorphic
Networks") — so this module generalizes the seam:

- :class:`NonIdealityModel` is the isinstance-checkable protocol every
  model implements: ``sample_perturbation`` draws one role's
  :class:`Perturbation`.  :class:`MultiplicativeModel` is the purely
  multiplicative kind, whose draw wraps its ``sample`` factor array.
- :class:`Perturbation` is the one form of a sampled draw: a
  multiplicative ``scale`` plus an optional ``(override_mask,
  override_value)`` pair.  Without overrides, applying it is exactly
  ``nominal * scale``, so the paper's ε-only draws keep the recorded
  arithmetic — the bit-identity gate of ``docs/TRAINING.md`` §2.
- :class:`ComposedModel` chains models over the same devices (scales
  multiply; a later model's override wins).
- The scenario registry (:data:`SCENARIOS`, :func:`build_scenario_model`)
  names the non-ideality configurations reachable from the experiments
  CLI; ``"default"`` builds the paper's :class:`VariationModel`.
  :func:`active_scenario_model` is the same lookup returning ``None`` for
  a nominal model, which is how training, validation and evaluation
  decide whether to sample at all.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True, eq=False)
class Perturbation:
    """One sampled non-ideality draw over a ``(n_mc, *device_shape)`` block.

    ``effective = nominal * scale`` everywhere ``override_mask`` is False;
    where it is True the device is pinned to ``sign(nominal) *
    override_value`` instead (magnitude override — a stuck conductance
    keeps the routing sign of the crossbar entry it replaces).  Gradients
    must not flow through overridden devices; the VJP helpers in
    ``core.grad_kernels`` zero them.

    ``shape``/``ndim``/``__getitem__`` proxy the leading axes of every
    field, so chunk slicing and lane compaction index a draw like an array.
    Equality and hashing are by identity: a draw is one event, not a value,
    so two draws with equal arrays stay distinct (compare fields with
    ``np.array_equal`` to ask whether their values agree).
    """

    scale: np.ndarray
    override_mask: Optional[np.ndarray] = None
    override_value: Optional[np.ndarray] = None

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.scale.shape

    @property
    def ndim(self) -> int:
        return self.scale.ndim

    def __getitem__(self, index) -> "Perturbation":
        return Perturbation(
            self.scale[index],
            None if self.override_mask is None else self.override_mask[index],
            None if self.override_value is None else self.override_value[index],
        )


#: The roles a per-layer draw triple is sampled in — canonical order.
EPSILON_ROLES: Tuple[str, ...] = ("theta", "act", "neg")


def _combine(parts: Sequence[Perturbation], join) -> Perturbation:
    scale = join([p.scale for p in parts])
    if all(p.override_mask is None for p in parts):
        return Perturbation(scale)
    masks = [np.zeros(p.shape, dtype=bool) if p.override_mask is None
             else p.override_mask for p in parts]
    values = [np.zeros(p.shape) if p.override_mask is None
              else p.override_value for p in parts]
    return Perturbation(scale, join(masks), join(values))


def eps_concat(parts: Sequence[Perturbation], axis: int = 0) -> Perturbation:
    """Concatenate draw blocks along the Monte-Carlo axis.

    Every field concatenates with ``np.concatenate``; a part without
    overrides contributes an all-False mask when another part has one.
    """
    return _combine(parts, lambda arrays: np.concatenate(arrays, axis=axis))


def eps_stack(parts: Sequence[Perturbation], axis: int = 0) -> Perturbation:
    """Stack per-lane draws on a new leading lane axis (lane tier)."""
    return _combine(parts, lambda arrays: np.stack(arrays, axis=axis))


class NonIdealityModel(ABC):
    """Protocol for sampled printed-hardware non-idealities.

    Implementations provide ``is_nominal`` and :meth:`sample_perturbation`,
    the one draw every training, evaluation and analysis path makes
    (:func:`repro.core.kernels.sample_layer_epsilons`).
    """

    @property
    @abstractmethod
    def is_nominal(self) -> bool:
        """True when sampling is a deterministic no-op (exact ones)."""

    @abstractmethod
    def sample_perturbation(self, n_mc: int, shape: Sequence[int],
                            role: str = "theta") -> Perturbation:
        """Draw the ``(n_mc, *shape)`` perturbation for one ``role`` slot.

        ``role`` is one of :data:`EPSILON_ROLES` — ``"theta"`` for crossbar
        conductances, ``"act"``/``"neg"`` for printable circuit component
        values ω.
        """


class MultiplicativeModel(NonIdealityModel):
    """A non-ideality that only scales devices: its draw wraps :meth:`sample`.

    Every role draws the same way, so a multiplicative model consumes its
    RNG stream identically through :meth:`sample` and
    :meth:`sample_perturbation`.
    """

    @abstractmethod
    def sample(self, n_mc: int, shape: Sequence[int]) -> np.ndarray:
        """Draw ``(n_mc, *shape)`` multiplicative factors."""

    def sample_perturbation(self, n_mc: int, shape: Sequence[int],
                            role: str = "theta") -> Perturbation:
        return Perturbation(self.sample(n_mc, shape))


class _EpsilonFamilyModel(MultiplicativeModel):
    """Shared plumbing of the multiplicative ε families.

    Epsilon validation, RNG setup, ``is_nominal`` and the ``sample``
    skeleton are shared by :class:`VariationModel`,
    :class:`GaussianVariationModel` and :class:`CorrelatedVariationModel`;
    subclasses only supply :meth:`_draw`.
    """

    def __init__(self, epsilon: float, rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None):
        if epsilon < 0 or epsilon >= 1:
            raise ValueError("epsilon must be in [0, 1)")
        self.epsilon = float(epsilon)
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng

    @property
    def is_nominal(self) -> bool:
        return self.epsilon == 0.0

    def sample(self, n_mc: int, shape: Sequence[int]) -> np.ndarray:
        """Draw ``(n_mc, *shape)`` multiplicative factors.

        With ϵ = 0 this returns exact ones, so the nominal forward pass is
        the same code path with a single Monte-Carlo sample.
        """
        if n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        full_shape = (n_mc, *tuple(int(s) for s in shape))
        if self.is_nominal:
            return np.ones(full_shape)
        return self._draw(full_shape)

    @abstractmethod
    def _draw(self, full_shape: Tuple[int, ...]) -> np.ndarray:
        """Draw the non-nominal factors for one ``(n_mc, *shape)`` block."""


class VariationModel(_EpsilonFamilyModel):
    """Sampler for multiplicative uniform printing variation (the paper's)."""

    def _draw(self, full_shape: Tuple[int, ...]) -> np.ndarray:
        return self.rng.uniform(1.0 - self.epsilon, 1.0 + self.epsilon, size=full_shape)


#: The variation levels evaluated in the paper's experiments.
PAPER_EPSILONS: Tuple[float, ...] = (0.0, 0.05, 0.10)


class GaussianVariationModel(_EpsilonFamilyModel):
    """Gaussian alternative to the paper's uniform variation (extension).

    The paper motivates ``U[1−ϵ, 1+ϵ]`` with the limited printing
    resolution; measured printed-component spreads are often reported as
    Gaussian instead.  For comparability the standard deviation is set so
    both models share the same variance: ``σ = ϵ/√3``.  Samples are
    truncated at ±3σ to keep conductances physical.
    """

    def __init__(self, epsilon: float, rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None):
        super().__init__(epsilon, rng=rng, seed=seed)
        self.sigma = self.epsilon / np.sqrt(3.0)

    def _draw(self, full_shape: Tuple[int, ...]) -> np.ndarray:
        draws = self.rng.normal(1.0, self.sigma, size=full_shape)
        return np.clip(draws, 1.0 - 3.0 * self.sigma, 1.0 + 3.0 * self.sigma)


class StuckAtModel(NonIdealityModel):
    """Bernoulli stuck-on/stuck-off conductance defects.

    Each crossbar device is independently stuck-on (pinned to ``g_max``)
    with probability ``p_stuck_on`` or stuck-off (pinned to ``g_min``) with
    probability ``p_stuck_off`` — the imperfect-hardware model of Bayat et
    al.  Defects override the printed magnitude, so they surface as
    :class:`Perturbation` masks rather than scale factors; the printable
    circuit components ω (``role`` ``"act"``/``"neg"``) are unaffected and
    consume no RNG.  Defaults clamp to the ``ConductanceConfig`` surrogate
    design-space bounds (g_min=0.01, g_max=10.0).
    """

    def __init__(self, p_stuck_on: float = 0.005, p_stuck_off: float = 0.005,
                 g_min: float = 0.01, g_max: float = 10.0,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None):
        if p_stuck_on < 0 or p_stuck_off < 0 or p_stuck_on + p_stuck_off > 1:
            raise ValueError("stuck probabilities must be >= 0 and sum to <= 1")
        if not 0 < g_min < g_max:
            raise ValueError("need 0 < g_min < g_max")
        self.p_stuck_on = float(p_stuck_on)
        self.p_stuck_off = float(p_stuck_off)
        self.g_min = float(g_min)
        self.g_max = float(g_max)
        if rng is None:
            rng = np.random.default_rng(seed)
        self.rng = rng

    @property
    def is_nominal(self) -> bool:
        return self.p_stuck_on == 0.0 and self.p_stuck_off == 0.0

    def sample_perturbation(self, n_mc: int, shape: Sequence[int],
                            role: str = "theta") -> Perturbation:
        if n_mc < 1:
            raise ValueError("n_mc must be >= 1")
        full_shape = (n_mc, *tuple(int(s) for s in shape))
        scale = np.ones(full_shape)
        if role != "theta" or self.is_nominal:
            return Perturbation(scale)
        draw = self.rng.uniform(size=full_shape)
        stuck_on = draw < self.p_stuck_on
        stuck_off = (draw >= self.p_stuck_on) & (draw < self.p_stuck_on + self.p_stuck_off)
        mask = stuck_on | stuck_off
        value = np.where(stuck_on, self.g_max, self.g_min)
        from repro import telemetry

        tel = telemetry.get()
        tel.count("defects.applied", int(mask.sum()))
        tel.count("defects.sampled", int(mask.size))
        return Perturbation(scale, mask, value)


class CorrelatedVariationModel(_EpsilonFamilyModel):
    """Spatially-correlated printing variation (shared blockwise factors).

    Printing heads drift slowly, so neighbouring devices err together.  A
    fraction ``correlation`` of the total variance (``σ = ϵ/√3``, variance-
    matched to the paper's uniform model) is carried by factors shared
    across the crossbar: half of it by one per-draw global factor and a
    quarter each by per-row and per-column factors (a rank-1 blockwise
    structure); the remaining ``1 − correlation`` stays i.i.d. per device.
    Non-2D shapes (the ω vectors) split global/local only.  Draws clip at
    ±3σ like the Gaussian family.
    """

    def __init__(self, epsilon: float, correlation: float = 0.5,
                 rng: Optional[np.random.Generator] = None,
                 seed: Optional[int] = None):
        super().__init__(epsilon, rng=rng, seed=seed)
        if not 0.0 <= correlation <= 1.0:
            raise ValueError("correlation must be in [0, 1]")
        self.correlation = float(correlation)
        self.sigma = self.epsilon / np.sqrt(3.0)

    def _draw(self, full_shape: Tuple[int, ...]) -> np.ndarray:
        n_mc, *shape = full_shape
        rho, sigma = self.correlation, self.sigma
        if len(shape) == 2:
            rows, cols = shape
            parts = (
                (np.sqrt(rho / 2.0) * sigma, (n_mc, 1, 1)),
                (np.sqrt(rho / 4.0) * sigma, (n_mc, rows, 1)),
                (np.sqrt(rho / 4.0) * sigma, (n_mc, 1, cols)),
                (np.sqrt(1.0 - rho) * sigma, full_shape),
            )
        else:
            parts = (
                (np.sqrt(rho) * sigma, (n_mc, *(1,) * len(shape))),
                (np.sqrt(1.0 - rho) * sigma, full_shape),
            )
        draws = np.ones(full_shape)
        for amplitude, part_shape in parts:
            draws = draws + amplitude * self.rng.standard_normal(part_shape)
        return np.clip(draws, 1.0 - 3.0 * sigma, 1.0 + 3.0 * sigma)


class ComposedModel(NonIdealityModel):
    """Chain of non-ideality models acting on the same devices.

    Multiplicative scales compose by multiplication in listed order; where
    models carry overrides, a **later model's override wins** and overrides
    always win over scales at apply time (``kernels.apply_nonideality``).
    Combines e.g. printing variation with aging.
    """

    def __init__(self, *models: NonIdealityModel):
        if not models:
            raise ValueError("ComposedModel needs at least one model")
        self.models = tuple(models)

    @property
    def is_nominal(self) -> bool:
        return all(model.is_nominal for model in self.models)

    def sample_perturbation(self, n_mc: int, shape: Sequence[int],
                            role: str = "theta") -> Perturbation:
        scale: Optional[np.ndarray] = None
        mask: Optional[np.ndarray] = None
        value: Optional[np.ndarray] = None
        for model in self.models:
            drawn = model.sample_perturbation(n_mc, shape, role=role)
            scale = drawn.scale if scale is None else scale * drawn.scale
            if drawn.override_mask is not None:
                if mask is None:
                    mask = drawn.override_mask.copy()
                    value = np.where(drawn.override_mask, drawn.override_value, 0.0)
                else:
                    value = np.where(drawn.override_mask, drawn.override_value, value)
                    mask = mask | drawn.override_mask
        return Perturbation(scale, mask, value)


@dataclass(frozen=True)
class Scenario:
    """A named, CLI-reachable non-ideality configuration.

    ``build(epsilon, seed)`` returns the model to train and evaluate with.
    """

    name: str
    description: str
    build: Callable[[float, Optional[int]], NonIdealityModel] = field(repr=False)


#: The scenario the whole pre-refactor stack is equivalent to.
DEFAULT_SCENARIO = "default"

#: Separates the defect RNG stream from the ε stream of the same seed.
_DEFECT_SEED_OFFSET = 60013


def _build_default(epsilon: float, seed: Optional[int]) -> VariationModel:
    return VariationModel(epsilon, seed=seed)


def _build_gaussian(epsilon: float, seed: Optional[int]) -> GaussianVariationModel:
    return GaussianVariationModel(epsilon, seed=seed)


def _build_stuck(epsilon: float, seed: Optional[int]) -> ComposedModel:
    defect_seed = None if seed is None else seed + _DEFECT_SEED_OFFSET
    return ComposedModel(
        VariationModel(epsilon, seed=seed),
        StuckAtModel(p_stuck_on=0.005, p_stuck_off=0.005, seed=defect_seed),
    )


def _build_correlated(epsilon: float, seed: Optional[int]) -> CorrelatedVariationModel:
    return CorrelatedVariationModel(epsilon, correlation=0.5, seed=seed)


SCENARIOS: Dict[str, Scenario] = {
    "default": Scenario(
        "default", "i.i.d. multiplicative U[1−ϵ, 1+ϵ] (paper baseline)", _build_default),
    "gaussian": Scenario(
        "gaussian", "variance-matched Gaussian ε, truncated at ±3σ", _build_gaussian),
    "stuck-1pct": Scenario(
        "stuck-1pct", "uniform ε composed with 1% stuck-on/off conductance defects",
        _build_stuck),
    "correlated": Scenario(
        "correlated", "spatially-correlated printing variation (ρ=0.5 shared factors)",
        _build_correlated),
}


def scenario_names() -> Tuple[str, ...]:
    return tuple(SCENARIOS)


def build_scenario_model(name: str, epsilon: float,
                         seed: Optional[int] = None) -> NonIdealityModel:
    """Build the non-ideality model for scenario ``name`` at level ``epsilon``.

    The default scenario builds ``VariationModel(epsilon, seed=seed)``,
    whose draws are pinned bit-identical to the recorded results
    (``tests/core/test_default_scenario_pinned.py``).
    """
    try:
        scenario = SCENARIOS[name]
    except KeyError:
        known = ", ".join(sorted(SCENARIOS))
        raise ValueError(f"unknown scenario {name!r}; known scenarios: {known}") from None
    return scenario.build(epsilon, seed)


def active_scenario_model(name: str, epsilon: float,
                          seed: Optional[int] = None) -> Optional[NonIdealityModel]:
    """Scenario ``name``'s model at ``epsilon``, or ``None`` when it is nominal.

    Training, validation and MC evaluation draw nothing for a nominal
    model: ``None`` tells them to run the single nominal forward pass.
    """
    model = build_scenario_model(name, epsilon, seed=seed)
    return None if model.is_nominal else model
