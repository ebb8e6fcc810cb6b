"""The printed layer, assembled once, and the snapshot drivers around it.

The equations themselves — Eq. 1 crossbar, the Fig. 5 reassembly, the
ω → η surrogates and the Eq. 2/3 transfer — are implemented once, in
:mod:`repro.core.grad_kernels`, each next to its hand-derived VJP.
:func:`layer_forward` assembles them into one printed layer over printable
θ and ω with any leading lane axes, and returns a :class:`LayerTape` with
the VJP contexts and the intermediates.  Every pNN forward runs it:

- training — :class:`repro.core.lanes.LaneNetwork` projects its raw arrays
  to printable values, calls it once per layer and descends the tape;
- Monte-Carlo evaluation, analysis and export — :func:`network_forward`
  loops it over an immutable :class:`~repro.core.params.PNNParams`
  snapshot;
- deploy verification — :mod:`repro.exporting.deploy` runs it as the
  kernel reference and drives its SPICE chain with the tape's θ_eff and η.

It also owns the canonical variation-sampling order
(:func:`sample_layer_epsilons`: per layer θ, then activation ω, then
negative-weight ω), which defines the training and evaluation noise
streams.  Each slot of a layer's draw is a
:class:`~repro.core.variation.Perturbation`, and a layer draws all three
slots or none.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.grad_kernels import (
    BIAS_VOLTAGE,
    Workspace,
    apply_nonideality,
    circuit_eta_fwd,
    crossbar_fwd,
    transfer_fwd,
)
from repro.core.variation import Perturbation

if TYPE_CHECKING:  # real imports would be cyclic and are not needed at runtime
    from repro.core.params import PNNParams, SurrogateParams


def augment_inputs(
    x: np.ndarray, ws: Optional[Workspace] = None, tag: str = "layer"
) -> np.ndarray:
    """Append the bias (1 V) and down (0 V) input lines: ``(..., B, F) → (..., B, F+2)``.

    Fills the workspace buffer ``{tag}.x_aug`` (a fresh array without ``ws``).
    """
    n_in = x.shape[-1]
    x_aug = (ws or Workspace()).buf(f"{tag}.x_aug", (*x.shape[:-1], n_in + 2))
    x_aug[..., :n_in] = x
    x_aug[..., n_in] = BIAS_VOLTAGE
    x_aug[..., n_in + 1] = 0.0
    return x_aug


#: One layer's variation draw: (ε_theta, ε_activation, ε_negweight), each
#: a :class:`~repro.core.variation.Perturbation`.  A layer draws all three
#: slots or none (``None``, the nominal pass).
LayerEpsilons = Tuple[Perturbation, Perturbation, Perturbation]


@dataclass
class LayerTape:
    """What one :func:`layer_forward` call keeps.

    The VJP contexts of its kernels (``crossbar``, the transfers and the
    :func:`~repro.core.grad_kernels.circuit_eta_fwd` steps, plus the θ
    draw) for the training backward, and the intermediates deploy
    verification drives its SPICE chain with.  The activation fields are
    ``None`` for a layer without an activation circuit; ``N`` is 1 for a
    nominal pass.
    """

    theta_eff: np.ndarray            # (..., N, I+2, O) θ under the draw
    eta_neg: np.ndarray              # (..., N, C_neg, 4)
    v_z: np.ndarray                  # (..., N, B, O) crossbar output
    eps_theta: Optional[Perturbation]
    crossbar: tuple
    neg_transfer: tuple
    neg_eta: tuple
    eta_act: Optional[np.ndarray] = None   # (..., N, C_act, 4)
    act_transfer: Optional[tuple] = None
    act_eta: Optional[tuple] = None


def layer_forward(
    x: np.ndarray,
    theta: np.ndarray,
    act_omega: Optional[np.ndarray],
    neg_omega: np.ndarray,
    apply_activation: bool,
    act_surrogate: "SurrogateParams",
    neg_surrogate: "SurrogateParams",
    epsilons: Optional[LayerEpsilons] = None,
    ws: Optional[Workspace] = None,
    tag: str = "layer",
) -> Tuple[np.ndarray, LayerTape]:
    """One printed layer: Eq. 1 with Eq. 3 negation, then (optionally) Eq. 2.

    ``x`` is ``(..., n_mc, batch, in)``; the printable θ
    ``(..., in+2, out)`` and circuit ω ``(..., C, 7)`` carry the same
    leading lane axes (none for a snapshot, ``L`` in the lane executor).
    ``epsilons`` is the layer's full ``(ε_θ, ε_act, ε_neg)`` draw, each slot
    with the Monte-Carlo axis ``n_mc`` in front of the device axes, or
    ``None`` for the nominal layer (``n_mc = 1``); a triple with a ``None``
    slot raises ``ValueError``.  ``ws`` holds the augmented inputs and
    crossbar products (fresh buffers without it); ``tag`` names the call
    site — the crossbar runs under ``tag``, the transfers under ``tag.neg``
    and ``tag.act``.
    Returns the layer output and its :class:`LayerTape`.
    """
    if x.ndim < 3:
        raise ValueError("expected a (..., n_mc, batch, features) input")
    if epsilons is not None and any(eps is None for eps in epsilons):
        raise ValueError("a layer draw fills all of (ε_θ, ε_act, ε_neg), or is None")
    eps_theta, eps_act, eps_neg = epsilons or (None, None, None)
    ws = ws or Workspace()
    x_aug = augment_inputs(x, ws, tag)                        # (..., N, B, I+2)

    theta_eff = theta[..., None, :, :]                        # (..., 1, I+2, O)
    if eps_theta is not None:
        if eps_theta.shape[-2:] != theta.shape[-2:]:
            raise ValueError("the θ draw must be (..., n_mc, in+2, out)")
        theta_eff = apply_nonideality(theta_eff, eps_theta)   # (..., N, I+2, O)

    eta_neg, neg_eta = circuit_eta_fwd(neg_omega, eps_neg, neg_surrogate)
    inverted, neg_transfer = transfer_fwd(x_aug, eta_neg, "negweight", tag=f"{tag}.neg")
    v_z, crossbar = crossbar_fwd(x_aug, inverted, theta_eff, ws=ws, tag=tag)
    tape = LayerTape(theta_eff, eta_neg, v_z, eps_theta, crossbar, neg_transfer, neg_eta)
    if not apply_activation:
        return v_z, tape
    tape.eta_act, tape.act_eta = circuit_eta_fwd(act_omega, eps_act, act_surrogate)
    out, tape.act_transfer = transfer_fwd(v_z, tape.eta_act, "ptanh", tag=f"{tag}.act")
    return out, tape


def sample_layer_epsilons(
    variation, n_mc: int, theta_shape: Tuple[int, int], n_act: int, n_neg: int
) -> LayerEpsilons:
    """Draw one layer's :data:`LayerEpsilons` triple in the canonical order.

    ``theta_shape`` is the crossbar's ``(in+2, out)``; ``n_act`` and
    ``n_neg`` count the layer's activation and negative-weight circuits.
    The order — crossbar θ, then activation ω, then negative-weight ω — is
    a **contract**: it defines the training and evaluation noise streams
    (recorded results depend on it; pinned by
    ``tests/core/test_sampling_order.py``).

    ``variation`` is a :class:`~repro.core.variation.NonIdealityModel`,
    sampled through ``sample_perturbation`` with each slot's role, which
    is how analysis tools like
    :class:`repro.analysis.sensitivity._SelectiveVariation` tell the
    component groups apart.
    """
    eps_theta = variation.sample_perturbation(n_mc, tuple(theta_shape), role="theta")
    eps_act = variation.sample_perturbation(n_mc, (n_act, 7), role="act")
    eps_neg = variation.sample_perturbation(n_mc, (n_neg, 7), role="neg")
    return eps_theta, eps_act, eps_neg


def sample_params_epsilons(variation, n_mc: int, design) -> List[LayerEpsilons]:
    """One :func:`sample_layer_epsilons` triple per layer of ``design``.

    The one per-layer loop: a live network (each training epoch, the
    frozen validation draw) and its :class:`~repro.core.params.PNNParams`
    snapshot (evaluation, deploy verification) both give each layer's θ
    and ``circuit_counts``, so both consume the same stream.
    """
    return [
        sample_layer_epsilons(variation, n_mc, layer.theta.shape, *layer.circuit_counts)
        for layer in design.layers
    ]


def network_forward(
    params: "PNNParams",
    x: np.ndarray,
    variation=None,
    n_mc: int = 1,
    epsilons: Optional[List[LayerEpsilons]] = None,
) -> np.ndarray:
    """Output voltages ``(n_mc, batch, n_classes)`` from a snapshot.

    Draws the variation factors in the canonical order (one
    :func:`sample_layer_epsilons` 3-cycle per layer) and runs
    :func:`layer_forward` layer by layer.  ``variation=None`` (or ε = 0)
    runs the nominal forward pass with a single Monte-Carlo sample.

    ``epsilons`` optionally supplies pre-drawn variation factors (one
    :data:`LayerEpsilons` triple per layer), bypassing the sampler — the
    hook :func:`repro.core.evaluation.evaluate_mc` uses to decouple the
    noise stream from compute chunking.
    """
    data = np.asarray(x, dtype=np.float64)
    if data.ndim != 2:
        raise ValueError("expected a (batch, features) input")
    if data.shape[1] != params.layer_sizes[0]:
        raise ValueError(
            f"input has {data.shape[1]} features, network expects {params.layer_sizes[0]}"
        )
    if epsilons is None and variation is not None and not variation.is_nominal:
        epsilons = sample_params_epsilons(variation, n_mc, params)
    n_mc = 1
    if epsilons is not None:
        if len(epsilons) != len(params.layers):
            raise ValueError("need one epsilon triple per layer")
        n_mc = int(epsilons[0][0].shape[0])

    hidden = data[None]                                       # (1, B, F)
    if n_mc > 1:
        hidden = np.broadcast_to(hidden, (n_mc, *data.shape))

    for index, layer in enumerate(params.layers):
        hidden, _ = layer_forward(
            hidden, layer.theta, layer.act_omega, layer.neg_omega, layer.apply_activation,
            params.act_surrogate, params.neg_surrogate,
            None if epsilons is None else epsilons[index],
        )
    return hidden


def predict(
    params: "PNNParams",
    x: np.ndarray,
    variation=None,
    n_mc: int = 1,
    epsilons: Optional[List[LayerEpsilons]] = None,
) -> np.ndarray:
    """Class predictions ``(n_mc, batch)`` (argmax voltage)."""
    voltages = network_forward(params, x, variation=variation, n_mc=n_mc, epsilons=epsilons)
    return np.argmax(voltages, axis=-1)
