"""Immutable parameter snapshots of a trained pNN (the inference artifact).

A trained :class:`~repro.core.pnn.PrintedNeuralNetwork` is, at heart, a
circuit design: printable conductances θ per layer, printable nonlinear
component vectors ω per circuit, and the two ω → η surrogates.  This module
freezes exactly that — nothing learnable — into a :class:`PNNParams` struct
that the snapshot drivers (:mod:`repro.core.kernels`) execute directly.

``PNNParams`` is what crosses process boundaries in the experiment engine
and what the on-disk result cache stores (see
:mod:`repro.core.serialization`); :data:`PNN_PARAMS_VERSION` stamps the
serialized format so stale artifacts fail loudly instead of evaluating
silently wrong.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np

#: Version of the snapshot structure / serialized format.  Bump whenever a
#: field is added, removed or reinterpreted; loaders refuse other versions.
PNN_PARAMS_VERSION = 1


def _frozen(array: np.ndarray) -> np.ndarray:
    if (
        isinstance(array, np.ndarray)
        and array.dtype == np.float64
        and not array.flags.writeable
        and array.flags.c_contiguous
    ):
        # Already in frozen form — adopt it rather than copy.
        return array
    copy = np.array(array, dtype=np.float64, copy=True)
    copy.setflags(write=False)
    return copy


@dataclass(frozen=True)
class SurrogateParams:
    """Frozen ω → η surrogate: either an MLP snapshot or analytic constants.

    ``backend == "mlp"`` captures the NN surrogate (Fig. 3): min-max input
    statistics over the ten ratio-extended features, the MLP weights and
    biases, and the η denormalization statistics.  ``backend == "analytic"``
    captures the first-order circuit analysis constants plus the per-η
    affine calibration.
    """

    kind: str                       # "ptanh" | "negweight"
    backend: str                    # "mlp" | "analytic"
    # mlp backend
    weights: Tuple[np.ndarray, ...] = ()
    biases: Tuple[np.ndarray, ...] = ()
    input_min: Optional[np.ndarray] = None
    input_span: Optional[np.ndarray] = None
    eta_min: Optional[np.ndarray] = None
    eta_span: Optional[np.ndarray] = None
    # analytic backend
    scale: Optional[np.ndarray] = None
    shift: Optional[np.ndarray] = None
    k_prime: float = 0.0
    v_threshold: float = 0.0
    vdd: float = 0.0
    second_stage_load: float = 0.0

    def __post_init__(self):
        if self.kind not in ("ptanh", "negweight"):
            raise ValueError("kind must be 'ptanh' or 'negweight'")
        if self.backend not in ("mlp", "analytic"):
            raise ValueError("backend must be 'mlp' or 'analytic'")
        if self.backend == "mlp":
            if not self.weights or len(self.weights) != len(self.biases):
                raise ValueError("mlp backend needs matching weights/biases")
            for name in ("input_min", "input_span", "eta_min", "eta_span"):
                if getattr(self, name) is None:
                    raise ValueError(f"mlp backend needs {name}")
        else:
            if self.scale is None or self.shift is None:
                raise ValueError("analytic backend needs scale and shift")


@dataclass(frozen=True)
class LayerParams:
    """One printed layer as fabricated: θ and the printable circuit ωs."""

    theta: np.ndarray               # (in_features + 2, out_features), projected
    act_omega: np.ndarray           # (n_circuits, 7) printable activation ω
    neg_omega: np.ndarray           # (1, 7) printable negative-weight ω
    apply_activation: bool

    def __post_init__(self):
        object.__setattr__(self, "theta", _frozen(self.theta))
        object.__setattr__(self, "act_omega", _frozen(self.act_omega))
        object.__setattr__(self, "neg_omega", _frozen(self.neg_omega))
        if self.theta.ndim != 2:
            raise ValueError("theta must be (in_features + 2, out_features)")
        if self.act_omega.ndim != 2 or self.act_omega.shape[1] != 7:
            raise ValueError("act_omega must be (n_circuits, 7)")
        if self.neg_omega.ndim != 2 or self.neg_omega.shape[1] != 7:
            raise ValueError("neg_omega must be (n_circuits, 7)")

    @property
    def in_features(self) -> int:
        return self.theta.shape[0] - 2

    @property
    def out_features(self) -> int:
        return self.theta.shape[1]

    @property
    def circuit_counts(self) -> Tuple[int, int]:
        """Activation and negative-weight circuit counts (rows of ω_act, ω_neg)."""
        return len(self.act_omega), len(self.neg_omega)


@dataclass(frozen=True)
class PNNParams:
    """A complete, immutable pNN design, ready to execute.

    The struct carries everything :func:`repro.core.kernels.network_forward`
    needs: the per-layer printable parameters and the two surrogate
    snapshots.  It is cheap to pickle (plain arrays), safe to share across
    processes, and hashable by content via :func:`content_digest`.
    """

    layer_sizes: Tuple[int, ...]
    per_neuron_activation: bool
    activation_on_output: bool
    layers: Tuple[LayerParams, ...]
    act_surrogate: SurrogateParams
    neg_surrogate: SurrogateParams
    version: int = field(default=PNN_PARAMS_VERSION)

    def __post_init__(self):
        if self.version != PNN_PARAMS_VERSION:
            raise ValueError(
                f"PNNParams version {self.version} unsupported "
                f"(this build expects {PNN_PARAMS_VERSION})"
            )
        if len(self.layers) != len(self.layer_sizes) - 1:
            raise ValueError("need one LayerParams per consecutive size pair")
        for layer, (n_in, n_out) in zip(
            self.layers, zip(self.layer_sizes[:-1], self.layer_sizes[1:])
        ):
            if layer.theta.shape != (n_in + 2, n_out):
                raise ValueError(
                    f"layer theta shape {layer.theta.shape} does not match "
                    f"sizes ({n_in}+2, {n_out})"
                )

    # ---------------------------------------------------------------- #
    # execution conveniences (thin wrappers over the kernels)          #
    # ---------------------------------------------------------------- #

    def forward(self, x, variation=None, n_mc: int = 1) -> np.ndarray:
        """Output voltages ``(n_mc, batch, n_classes)`` — kernel path."""
        from repro.core import kernels

        return kernels.network_forward(self, x, variation=variation, n_mc=n_mc)

    def predict(self, x, variation=None, n_mc: int = 1) -> np.ndarray:
        """Class predictions ``(n_mc, batch)`` — kernel path."""
        from repro.core import kernels

        return kernels.predict(self, x, variation=variation, n_mc=n_mc)

    def content_digest(self) -> str:
        """Stable SHA-256 hex digest over every array in the snapshot."""
        import hashlib

        hasher = hashlib.sha256()
        hasher.update(repr((self.version, self.layer_sizes,
                            self.per_neuron_activation,
                            self.activation_on_output)).encode())
        for layer in self.layers:
            for array in (layer.theta, layer.act_omega, layer.neg_omega):
                hasher.update(np.ascontiguousarray(array).tobytes())
            hasher.update(repr(layer.apply_activation).encode())
        for surrogate in (self.act_surrogate, self.neg_surrogate):
            hasher.update(surrogate.backend.encode())
            hasher.update(surrogate.kind.encode())
            if surrogate.backend == "mlp":
                for array in (*surrogate.weights, *surrogate.biases,
                              surrogate.input_min, surrogate.input_span,
                              surrogate.eta_min, surrogate.eta_span):
                    hasher.update(np.ascontiguousarray(array).tobytes())
            else:
                for array in (surrogate.scale, surrogate.shift):
                    hasher.update(np.ascontiguousarray(array).tobytes())
                hasher.update(repr((surrogate.k_prime, surrogate.v_threshold,
                                    surrogate.vdd,
                                    surrogate.second_stage_load)).encode())
        return hasher.hexdigest()[:16]


# --------------------------------------------------------------------- #
# snapshotting                                                          #
# --------------------------------------------------------------------- #


def snapshot_surrogate(surrogate) -> SurrogateParams:
    """Freeze a live surrogate (NN or analytic) into a :class:`SurrogateParams`."""
    if hasattr(surrogate, "input_normalizer"):       # CircuitSurrogate (MLP)
        weights = []
        biases = []
        for module in surrogate.model.net:
            weight = getattr(module, "weight", None)
            if weight is None:
                continue                             # activation module
            weights.append(_frozen(weight.data))
            biases.append(_frozen(module.bias.data))
        return SurrogateParams(
            kind=surrogate.kind,
            backend="mlp",
            weights=tuple(weights),
            biases=tuple(biases),
            input_min=_frozen(surrogate.input_normalizer.minimum),
            input_span=_frozen(surrogate.input_normalizer.span),
            eta_min=_frozen(surrogate.eta_normalizer.minimum),
            eta_span=_frozen(surrogate.eta_normalizer.span),
        )
    # AnalyticSurrogate: physics constants + affine calibration.
    from repro.circuits.ptanh import SECOND_STAGE_LOAD, VDD

    return SurrogateParams(
        kind=surrogate.kind,
        backend="analytic",
        scale=_frozen(surrogate.scale),
        shift=_frozen(surrogate.shift),
        k_prime=float(surrogate.model.k_prime),
        v_threshold=float(surrogate.model.v_threshold),
        vdd=float(VDD),
        second_stage_load=float(SECOND_STAGE_LOAD),
    )


def snapshot_params(design) -> PNNParams:
    """Freeze a design for inference; a :class:`PNNParams` is returned as is.

    A live :class:`~repro.core.pnn.PrintedNeuralNetwork` is frozen from its
    arrays: θ through the printable-conductance projection, each circuit's
    𝔴 through the Fig. 5 steps 1–3 into printable ω.  It is the one
    snapshot path: training writes each lane's best-epoch arrays back into
    its network, which is then frozen here.  The snapshot copies — later
    training steps do not leak into it.
    """
    if isinstance(design, PNNParams):
        return design
    # Deferred: repro.core.grad_kernels imports this module.
    from repro.core.grad_kernels import project_printable, reassemble_omega_fwd

    g_min, g_max = design.conductance.g_min, design.conductance.g_max
    layers = tuple(
        LayerParams(
            theta=project_printable(layer.theta, g_min, g_max),
            act_omega=reassemble_omega_fwd(layer.w_act, design.space)[0],
            neg_omega=reassemble_omega_fwd(layer.w_neg, design.space)[0],
            apply_activation=layer.apply_activation,
        )
        for layer in design.layers
    )
    return PNNParams(
        layer_sizes=tuple(int(s) for s in design.layer_sizes),
        per_neuron_activation=bool(design.per_neuron_activation),
        activation_on_output=bool(design.layers[-1].apply_activation),
        layers=layers,
        act_surrogate=snapshot_surrogate(design.act_surrogate),
        neg_surrogate=snapshot_surrogate(design.neg_surrogate),
    )
