"""Stateless circuit kernels: the pNN math as pure functions (Eqs. 1–3, Fig. 5).

This module is the single source of truth for the printed-circuit
mathematics.  Every function is a *kernel*: it owns no state, allocates no
modules, and records no autograd graph — it maps arrays to arrays.  Two
layers consume it:

- the **training path** (:mod:`repro.core.player`,
  :mod:`repro.core.nonlinear`, :mod:`repro.surrogate.analytic`) passes
  autograd tensors together with the tensor ops adapter
  (``repro.autograd.functional.TENSOR_OPS``), so gradients flow through the
  very same equations;
- the **inference path** (:mod:`repro.core.evaluation`, analysis, export,
  the experiment engine) passes plain ``numpy`` arrays with the default
  :data:`NUMPY_OPS` backend and an immutable parameter snapshot
  (:class:`repro.core.params.PNNParams`) — no ``Tensor`` objects, no graph
  bookkeeping, which is what makes Monte-Carlo evaluation fast.

The generic kernels take an ``ops`` backend exposing the handful of
non-operator primitives the equations need (``abs``, ``tanh``, ``sigmoid``,
``sqrt``, ``clip``, ``clip_ste``, ``concatenate``, ``const``, ``raw``);
shapes, arithmetic and indexing go through the common array protocol both
backends share.  The drivers at the bottom (:func:`layer_forward`,
:func:`network_forward`, :func:`predict`) are numpy-only conveniences over
a parameter snapshot.

This module deliberately imports nothing from :mod:`repro.autograd` — the
inference path must stay importable and runnable without touching the
autodiff machinery.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.variation import EpsilonLike, Perturbation, sample_role

if TYPE_CHECKING:  # real imports would be cyclic and are not needed at runtime
    from repro.core.params import LayerParams, PNNParams, SurrogateParams

#: Voltage of the bias rail feeding the crossbar bias row (the paper's V_b).
BIAS_VOLTAGE = 1.0


# --------------------------------------------------------------------- #
# numpy ops backend                                                     #
# --------------------------------------------------------------------- #


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function computed without overflow for any magnitude.

    Must stay formula-identical to ``repro.autograd.functional``'s sigmoid
    so the two backends agree bitwise (pinned by the kernel-equivalence
    tests).
    """
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


class _NumpyOps:
    """The plain-``ndarray`` backend of the kernel ops protocol."""

    @staticmethod
    def const(value) -> np.ndarray:
        return np.asarray(value, dtype=np.float64)

    @staticmethod
    def raw(x) -> np.ndarray:
        return np.asarray(x)

    @staticmethod
    def abs(x) -> np.ndarray:
        return np.abs(x)

    @staticmethod
    def tanh(x) -> np.ndarray:
        return np.tanh(x)

    @staticmethod
    def sigmoid(x) -> np.ndarray:
        return stable_sigmoid(x)

    @staticmethod
    def sqrt(x) -> np.ndarray:
        return np.sqrt(x)

    @staticmethod
    def clip(x, low, high) -> np.ndarray:
        return np.clip(x, low, high)

    @staticmethod
    def clip_ste(x, low, high) -> np.ndarray:
        # Without a gradient tape the straight-through clip is just a clip.
        return np.clip(x, low, high)

    @staticmethod
    def concatenate(parts, axis: int) -> np.ndarray:
        return np.concatenate(parts, axis=axis)

    @staticmethod
    def broadcast_to(x, shape) -> np.ndarray:
        return np.broadcast_to(x, shape)


#: Module-level singleton; the default backend of every generic kernel.
NUMPY_OPS = _NumpyOps()


# --------------------------------------------------------------------- #
# Eq. 1 — crossbar weighted sum with negative-weight routing            #
# --------------------------------------------------------------------- #


def augment_inputs(x, ops=NUMPY_OPS):
    """Append the bias (1 V) and down (0 V) input lines: ``(N,B,F)→(N,B,F+2)``."""
    batch = x.shape[-2]
    n_mc = x.shape[0]
    ones = ops.const(np.full((n_mc, batch, 1), BIAS_VOLTAGE))
    zeros = ops.const(np.zeros((n_mc, batch, 1)))
    return ops.concatenate([x, ones, zeros], axis=-1)


def positive_route_mask(theta_eff: np.ndarray) -> np.ndarray:
    """Routing mask of Eq. 1: 1 where the input feeds the crossbar directly.

    Negative surrogate conductances route their input through the
    negative-weight circuit.  The "down" row (second-to-last axis, last
    index) is a grounding resistor: its 0 V input must never be routed
    through the negative-weight circuit (its sign only matters for the
    denominator, where the magnitude is used anyway).  ``theta_eff`` may
    carry any leading axes (MC, lane): the row axis is addressed from the
    trailing end.
    """
    mask = (np.asarray(theta_eff) >= 0.0).astype(np.float64)
    mask[..., -1, :] = 1.0
    return mask


def crossbar_output(x_aug, inverted, theta_eff, ops=NUMPY_OPS):
    """Eq. 1: normalized weighted sum of direct and negated input voltages.

    Parameters
    ----------
    x_aug:
        Augmented input voltages ``(n_mc | 1, batch, in+2)``.
    inverted:
        The same voltages after the negative-weight circuit.
    theta_eff:
        Effective (variation-perturbed) surrogate conductances
        ``(n_mc | 1, in+2, out)``.
    """
    magnitude = ops.abs(theta_eff)
    route = positive_route_mask(ops.raw(theta_eff))
    pos_w = magnitude * ops.const(route)
    neg_w = magnitude * ops.const(1.0 - route)
    numerator = x_aug @ pos_w + inverted @ neg_w              # (N, B, O)
    denominator = magnitude.sum(axis=1)                       # (N, O) or (1, O)
    n_mc = denominator.shape[0]
    denominator = denominator.reshape(n_mc, 1, theta_eff.shape[-1])
    return numerator / (denominator + 1e-12)


# --------------------------------------------------------------------- #
# Fig. 5 — reduced parameterization → printable ω                       #
# --------------------------------------------------------------------- #


def reassemble_printable_omega(w_raw, space, ops=NUMPY_OPS):
    """Fig. 5 steps 1–3: raw parameters 𝔴 → printable component vector ω.

    A sigmoid squashes 𝔴 into (0, 1); the first five entries denormalize
    into their Table-I ranges while the divider ratios stay in (0, 1); then
    ``R2 = k1·R1`` and ``R4 = k2·R3`` are reassembled and clipped into
    their feasible ranges (straight-through on the autograd backend, so
    the ratios keep receiving gradient while clipped).
    """
    squashed = ops.sigmoid(w_raw)
    lower = ops.const(space.reduced_lower)
    span = ops.const(space.reduced_upper - space.reduced_lower)
    reduced = squashed * span + lower

    r1 = reduced[:, 0:1]
    r3 = reduced[:, 1:2]
    r5 = reduced[:, 2:3]
    width = reduced[:, 3:4]
    length = reduced[:, 4:5]
    k1 = reduced[:, 5:6]
    k2 = reduced[:, 6:7]
    r2 = ops.clip_ste(k1 * r1, space.lower[1], space.upper[1])
    r4 = ops.clip_ste(k2 * r3, space.lower[3], space.upper[3])
    return ops.concatenate([r1, r2, r3, r4, r5, width, length], axis=1)


def extend_with_ratios(omega, ops=NUMPY_OPS):
    """Append the critical ratio features [k1, k2, k3] to ω (Sec. III-A c)."""
    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    width = omega[..., 5:6]
    length = omega[..., 6:7]
    k1 = r2 / r1
    k2 = r4 / r3
    k3 = width / length
    return ops.concatenate([omega, k1, k2, k3], axis=-1)


# --------------------------------------------------------------------- #
# Eqs. 2–3 — tanh-like transfer of the nonlinear circuits               #
# --------------------------------------------------------------------- #


def circuit_transfer(voltage, eta, kind: str, ops=NUMPY_OPS):
    """Apply Eq. 2 (``ptanh``) or Eq. 3 (``negweight``) to voltages.

    ``eta`` has shape ``(n_mc, n_circuits, 4)``; with one shared circuit
    the same η applies to every output column, with per-neuron circuits
    the last voltage axis must match ``n_circuits``.
    """
    n_mc, n_circuits = eta.shape[0], eta.shape[1]
    if n_circuits == 1:
        shape = (n_mc, 1, 1)
    else:
        shape = (n_mc, 1, n_circuits)
    eta1 = eta[:, :, 0].reshape(*shape)
    eta2 = eta[:, :, 1].reshape(*shape)
    eta3 = eta[:, :, 2].reshape(*shape)
    eta4 = eta[:, :, 3].reshape(*shape)
    core = eta1 + eta2 * ops.tanh((voltage - eta3) * eta4)
    if kind == "negweight":
        return -core
    return core


# --------------------------------------------------------------------- #
# ω → η surrogates                                                      #
# --------------------------------------------------------------------- #


def mlp_forward(x, weights: Sequence, biases: Sequence, ops=NUMPY_OPS):
    """The surrogate MLP: tanh hidden layers, linear output."""
    for weight, bias in zip(weights[:-1], biases[:-1]):
        x = ops.tanh(x @ weight + bias)
    return x @ weights[-1] + biases[-1]


def analytic_eta(
    omega,
    kind: str,
    k_prime: float,
    v_threshold: float,
    vdd: float,
    second_stage_load: float,
    ops=NUMPY_OPS,
):
    """First-order circuit analysis ω → raw η (the analytic surrogate).

    Divider ratios attenuate the input, the stage-1 trip point sits where
    the EGT sinks ``VDD/2`` through its effective load, small-signal gains
    set the steepness, and the output swing rolls off smoothly when the
    trip point leaves the 0..1 V input window.  Returns the *uncalibrated*
    η; the caller applies the per-output affine calibration.
    """
    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    r5 = omega[..., 4:5]
    width = omega[..., 5:6]
    length = omega[..., 6:7]

    k1 = r2 / (r1 + r2)
    k2 = r4 / (r3 + r4)
    beta = k_prime * width / length

    divider_chain = r3 + r4
    load1 = r5 * divider_chain / (r5 + divider_chain)
    overdrive = ops.sqrt(ops.const(vdd) / (beta * load1))
    trip = (overdrive + v_threshold) / (k1 + 1e-9)

    gain1 = ops.sqrt(beta * vdd * load1)
    gain2 = ops.sqrt(beta * vdd * second_stage_load)

    # Fraction of the full swing reachable when the trip point sits inside
    # the 0..1 V input window (smooth roll-off outside).
    visibility = ops.sigmoid((ops.const(vdd) - trip) * 6.0) * ops.sigmoid(trip * 6.0)

    if kind == "ptanh":
        amplitude = 0.5 * vdd * visibility
        centre = ops.const(np.full(1, 0.5 * vdd)) + 0.0 * trip
        slope = k1 * gain1 * k2 * gain2 * 0.25
    else:
        # Negative-weight target is −inv(V) = VDD − k2·V_d1 (Eq. 3 fit).
        amplitude = 0.5 * vdd * k2 * visibility
        centre = ops.const(vdd) - k2 * (0.5 * vdd) + 0.0 * trip
        slope = k1 * gain1 * 0.5

    steepness = slope / (amplitude + 1e-3)
    steepness = ops.clip(steepness, 0.5, 200.0)
    return ops.concatenate([centre, amplitude, trip, steepness], axis=-1)


def surrogate_eta(omega: np.ndarray, surrogate: "SurrogateParams") -> np.ndarray:
    """Map printable ω ``(..., 7)`` to η ``(..., 4)`` through a snapshot.

    Dispatches on the snapshot's backend: the NN surrogate runs the
    ratio-extend → normalize → MLP → denormalize chain, the analytic
    surrogate runs the closed-form analysis plus its affine calibration.
    """
    omega = np.asarray(omega, dtype=np.float64)
    if surrogate.backend == "mlp":
        extended = extend_with_ratios(omega)
        normalized = (extended - surrogate.input_min) / surrogate.input_span
        eta_norm = mlp_forward(normalized, surrogate.weights, surrogate.biases)
        return eta_norm * surrogate.eta_span + surrogate.eta_min
    if surrogate.backend == "analytic":
        raw = analytic_eta(
            omega,
            surrogate.kind,
            surrogate.k_prime,
            surrogate.v_threshold,
            surrogate.vdd,
            surrogate.second_stage_load,
        )
        return raw * surrogate.scale + surrogate.shift
    raise ValueError(f"unknown surrogate backend {surrogate.backend!r}")


def apply_nonideality(nominal: np.ndarray, eps: EpsilonLike) -> np.ndarray:
    """Apply one sampled non-ideality draw to nominal printed values.

    The single variation-application kernel shared by the crossbar θ and
    circuit ω paths (serial, gradient and lane engines alike):

    - a bare ``ndarray`` is a pure multiplicative factor — exactly the
      pre-refactor ``nominal * eps`` instruction, which is what keeps the
      default ε-only scenario bit-identical to recorded results;
    - a :class:`~repro.core.variation.Perturbation` multiplies by its
      ``scale`` and then pins overridden devices to ``sign(nominal) *
      override_value`` (a stuck conductance keeps the crossbar routing
      sign; a zero nominal entry stays zero).
    """
    if isinstance(eps, Perturbation):
        effective = nominal * eps.scale
        if eps.override_mask is not None:
            effective = np.where(
                eps.override_mask, np.sign(nominal) * eps.override_value, effective
            )
        return effective
    return nominal * eps


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


# --------------------------------------------------------------------- #
# numpy-only drivers over a parameter snapshot                          #
# --------------------------------------------------------------------- #

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
    """One printed layer, autograd-free: Eq. 1 + (optionally) Eq. 2.

    Mirrors :meth:`repro.core.player.PrintedLayer.forward` bit for bit:
    same augmentation, same routing, same η pipeline — only without the
    gradient tape.
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
    inverted = circuit_transfer(x_aug, inv_eta, "negweight")

    v_z = crossbar_output(x_aug, inverted, theta_eff)
    if not layer.apply_activation:
        return v_z
    act_eta = circuit_eta(layer.act_omega, act_surrogate, epsilon_act)
    return circuit_transfer(v_z, act_eta, "ptanh")


def sample_layer_epsilons(variation, n_mc: int, layer: "LayerParams") -> LayerEpsilons:
    """Draw one layer's variation factors in the canonical order.

    The order — crossbar θ, then activation ω, then negative-weight ω — is
    a **contract**: it defines the evaluation noise stream (recorded
    results depend on it) and analysis tools like
    :class:`repro.analysis.sensitivity._SelectiveVariation` identify
    component groups by their position in this 3-cycle.

    Models implementing the :class:`~repro.core.variation.NonIdealityModel`
    protocol are sampled through ``sample_perturbation`` with the matching
    role hints; duck-typed legacy models fall back to bare ``sample`` —
    either way the RNG stream is consumed in the same canonical order
    (pinned by ``tests/core/test_sampling_order.py``).
    """
    eps_theta = sample_role(variation, n_mc, layer.theta.shape, "theta")
    eps_act = sample_role(variation, n_mc, (layer.act_omega.shape[0], 7), "act")
    eps_neg = sample_role(variation, n_mc, (layer.neg_omega.shape[0], 7), "neg")
    return eps_theta, eps_act, eps_neg


def network_forward(
    params: "PNNParams",
    x: np.ndarray,
    variation=None,
    n_mc: int = 1,
    epsilons: Optional[List[LayerEpsilons]] = None,
) -> np.ndarray:
    """Output voltages ``(n_mc, batch, n_classes)`` from a snapshot.

    The autograd-free counterpart of
    :meth:`repro.core.pnn.PrintedNeuralNetwork.forward`: identical
    validation, identical variation-sampling order (one 3-cycle per
    layer), identical arithmetic.  ``variation=None`` (or ε = 0) runs the
    nominal forward pass with a single Monte-Carlo sample.

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
    if epsilons is not None:
        if len(epsilons) != len(params.layers):
            raise ValueError("need one epsilon triple per layer")
        first = epsilons[0][0]
        n_mc = 1 if first is None else int(first.shape[0])
    elif variation is None or variation.is_nominal:
        n_mc = 1

    hidden = data[None]                                       # (1, B, F)
    if n_mc > 1:
        hidden = np.broadcast_to(hidden, (n_mc, *data.shape))

    for index, layer in enumerate(params.layers):
        eps_theta = eps_act = eps_neg = None
        if epsilons is not None:
            eps_theta, eps_act, eps_neg = epsilons[index]
        elif variation is not None and not variation.is_nominal:
            eps_theta, eps_act, eps_neg = sample_layer_epsilons(variation, n_mc, layer)
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
    """Class predictions ``(n_mc, batch)`` (argmax voltage), autograd-free."""
    voltages = network_forward(params, x, variation=variation, n_mc=n_mc, epsilons=epsilons)
    return np.argmax(voltages, axis=-1)
