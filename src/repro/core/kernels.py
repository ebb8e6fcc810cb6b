"""Snapshot drivers: the pNN forward over a frozen :class:`PNNParams` design.

The equations themselves — Eq. 1 crossbar, the Fig. 5 reassembly, the
ω → η surrogates and the Eq. 2/3 transfer — are implemented once, in
:mod:`repro.core.grad_kernels`, each next to its hand-derived VJP.
Training runs them there; this module runs the same forward kernels over
an immutable :class:`~repro.core.params.PNNParams` snapshot, which is what
Monte-Carlo evaluation, analysis, export and deploy verification execute:
plain ``numpy`` arrays, no parameters, no gradient context kept.

It also owns the canonical variation-sampling order
(:func:`sample_layer_epsilons`: per layer θ, then activation ω, then
negative-weight ω), which defines the training and evaluation noise
streams.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Tuple

import numpy as np

from repro.core.grad_kernels import (
    BIAS_VOLTAGE,
    apply_nonideality,
    crossbar_fwd,
    surrogate_eta_fwd,
    transfer_fwd,
)
from repro.core.variation import EpsilonLike, Perturbation

if TYPE_CHECKING:  # real imports would be cyclic and are not needed at runtime
    from repro.core.params import LayerParams, PNNParams, SurrogateParams


def augment_inputs(x: np.ndarray) -> np.ndarray:
    """Append the bias (1 V) and down (0 V) input lines: ``(N,B,F)→(N,B,F+2)``."""
    n_mc, batch = x.shape[0], x.shape[-2]
    ones = np.full((n_mc, batch, 1), BIAS_VOLTAGE)
    zeros = np.zeros((n_mc, batch, 1))
    return np.concatenate([x, ones, zeros], axis=-1)


def surrogate_eta(omega: np.ndarray, surrogate: "SurrogateParams") -> np.ndarray:
    """Map printable ω ``(..., 7)`` to η ``(..., 4)`` through a snapshot.

    The forward of :func:`repro.core.grad_kernels.surrogate_eta_fwd`
    (NN or analytic backend), without its VJP context.
    """
    eta, _ = surrogate_eta_fwd(np.asarray(omega, dtype=np.float64), surrogate)
    return eta


def circuit_eta(
    omega: np.ndarray,
    surrogate: "SurrogateParams",
    epsilon_omega: Optional[EpsilonLike] = None,
) -> np.ndarray:
    """η of one nonlinear circuit, optionally under printing variation.

    ``omega`` is the printable component matrix ``(n_circuits, 7)``;
    ``epsilon_omega`` optionally perturbs it with per-sample draws
    ``(n_mc, n_circuits, 7)`` (Fig. 5 step 4 — variation applies to the
    printable values).  Returns ``(n_mc | 1, n_circuits, 4)``.
    """
    n_circuits = omega.shape[0]
    omega = omega.reshape(1, n_circuits, 7)
    if epsilon_omega is not None:
        eps = epsilon_omega
        if not isinstance(eps, Perturbation):
            eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim != 3 or eps.shape[1:] != (n_circuits, 7):
            raise ValueError("epsilon_omega must be (n_mc, n_circuits, 7)")
        omega = apply_nonideality(omega, eps)
    return surrogate_eta(omega, surrogate)


#: One layer's variation draw: (ε_theta, ε_activation, ε_negweight).
#: Each slot is a bare multiplicative factor array (legacy) or a
#: generalized :class:`~repro.core.variation.Perturbation`.
LayerEpsilons = Tuple[
    Optional[EpsilonLike], Optional[EpsilonLike], Optional[EpsilonLike]
]


def layer_forward(
    x: np.ndarray,
    layer: "LayerParams",
    act_surrogate: "SurrogateParams",
    neg_surrogate: "SurrogateParams",
    epsilon_theta: Optional[EpsilonLike] = None,
    epsilon_act: Optional[EpsilonLike] = None,
    epsilon_neg: Optional[EpsilonLike] = None,
) -> np.ndarray:
    """One printed layer: Eq. 1 + (optionally) Eq. 2, forward only.

    The crossbar and transfer kernels training runs
    (:func:`~repro.core.grad_kernels.crossbar_fwd`,
    :func:`~repro.core.grad_kernels.transfer_fwd`), on printable values;
    the returned VJP contexts are dropped.
    """
    if x.ndim != 3:
        raise ValueError("expected (n_mc, batch, features) input")
    x_aug = augment_inputs(x)                                 # (N, B, I+2)

    theta_eff = layer.theta[None]                             # (1, I+2, O)
    if epsilon_theta is not None:
        eps = epsilon_theta
        if not isinstance(eps, Perturbation):
            eps = np.asarray(eps, dtype=np.float64)
        if eps.ndim != 3 or eps.shape[1:] != layer.theta.shape:
            raise ValueError("epsilon_theta must be (n_mc, in+2, out)")
        theta_eff = apply_nonideality(theta_eff, eps)         # (N, I+2, O)

    inv_eta = circuit_eta(layer.neg_omega, neg_surrogate, epsilon_neg)
    inverted, _ = transfer_fwd(x_aug, inv_eta, "negweight")

    v_z, _ = crossbar_fwd(x_aug, inverted, theta_eff)
    if not layer.apply_activation:
        return v_z
    act_eta = circuit_eta(layer.act_omega, act_surrogate, epsilon_act)
    out, _ = transfer_fwd(v_z, act_eta, "ptanh")
    return out


def sample_layer_epsilons(
    variation, n_mc: int, theta_shape: Tuple[int, int], n_act: int, n_neg: int
) -> LayerEpsilons:
    """Draw one layer's variation factors in the canonical order.

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


def sample_params_epsilons(variation, n_mc: int, params: "PNNParams") -> List[LayerEpsilons]:
    """One :func:`sample_layer_epsilons` triple per layer of a snapshot."""
    return [
        sample_layer_epsilons(
            variation, n_mc, layer.theta.shape, len(layer.act_omega), len(layer.neg_omega)
        )
        for layer in params.layers
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
        first = epsilons[0][0]
        n_mc = 1 if first is None else int(first.shape[0])

    hidden = data[None]                                       # (1, B, F)
    if n_mc > 1:
        hidden = np.broadcast_to(hidden, (n_mc, *data.shape))

    for index, layer in enumerate(params.layers):
        eps_theta = eps_act = eps_neg = None
        if epsilons is not None:
            eps_theta, eps_act, eps_neg = epsilons[index]
        hidden = layer_forward(
            hidden,
            layer,
            params.act_surrogate,
            params.neg_surrogate,
            epsilon_theta=eps_theta,
            epsilon_act=eps_act,
            epsilon_neg=eps_neg,
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
