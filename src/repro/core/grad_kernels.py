"""The pNN equations as forward kernels with hand-derived backward kernels.

Every equation of the paper's differentiable chain is implemented once,
here, as a plain-``numpy`` forward kernel paired with its hand-derived
vector–Jacobian product (VJP).  :func:`repro.core.kernels.layer_forward`
assembles them into a printed layer once; training runs it and descends
these VJPs, and Monte-Carlo evaluation, analysis, export and deploy
verification run the same assembly forward only.  One
variation-aware training epoch — the Monte-Carlo expected loss of
Sec. III-C over ``n_mc`` fabricated circuit instances — is a handful of
array operations:

- Eq. 1 crossbar routing (:func:`crossbar_fwd` / :func:`crossbar_bwd`),
  including the normalization denominator and the sign-based routing mask
  (which carries no gradient);
- the Fig. 5 ω-reassembly chain (:func:`reassemble_omega_fwd` /
  :func:`reassemble_omega_bwd`) with the straight-through gradient of the
  ``R2 = k1·R1`` / ``R4 = k2·R3`` feasibility clips, and the printable-θ
  projection (:func:`project_printable`, straight-through backward);
- both ω → η surrogate backends: the ratio-extend → normalize → MLP →
  denormalize chain (:func:`mlp_eta_fwd` / :func:`mlp_eta_bwd`; surrogate
  weights are frozen during pNN training, so only the input VJP is needed)
  and the closed-form analytic surrogate (:func:`analytic_eta_fwd` /
  :func:`analytic_eta_bwd`);
- the Eq. 2/3 tanh-like transfer (:func:`transfer_fwd` /
  :func:`transfer_bwd`);
- the printing non-idealities, one
  :class:`~repro.core.variation.Perturbation` draw applied to the
  printable θ or ω (:func:`apply_nonideality` /
  :func:`apply_nonideality_bwd`), and one
  circuit's η under a draw (:func:`circuit_eta_fwd` /
  :func:`circuit_eta_bwd`: MC axis, draw, surrogate);
- the margin and voltage-cross-entropy losses (:func:`margin_loss_fwd` /
  :func:`margin_loss_bwd`, :func:`ce_loss_fwd` / :func:`ce_loss_bwd`).

The VJPs are checked against central finite differences over the whole
configuration grid, and the forward values and gradients against
recordings of the taped autograd path this module replaced
(``tests/core/test_grad_kernels.py``, ``tests/core/golden/taped_reference.json``).

:class:`KernelNetwork` freezes the static structure (surrogate snapshots,
design-space bounds, conductance limits) of a
:class:`~repro.core.pnn.PrintedNeuralNetwork`.  One executor runs raw
parameter arrays, :class:`repro.core.lanes.LaneNetwork`: it projects
them to printable values and calls ``layer_forward`` with its
:class:`Workspace`; ``KernelNetwork.loss_and_grads`` and ``.loss_value``
answer one-network calls as its one-lane case.

Shape convention — the leading lane axis
----------------------------------------
Every kernel in this module is written against *trailing* axes (ellipsis
indexing, negative reduction axes, batched ``matmul``), so the canonical
shapes of one network

- parameters θ ``(in+2, out)``, 𝔴/ω ``(C, 7)``, η ``(C, 4)``,
- activations ``(n_mc, batch, features)``,

which :func:`repro.core.kernels.network_forward` passes, generalize
to an optional **leading lane axis** ``L`` — ``(L, in+2, out)``,
``(L, n_mc, batch, features)``, … — carrying ``L`` independent training
jobs in lockstep (:mod:`repro.core.lanes`).  The generalization is not a
convenience: it is a *bit-identity contract*.  For 3-D inputs the exact
historical call sequence executes (negative axes coincide with the old
positive ones), and for stacked inputs every lane's slice sees the same
elementwise operations, the same per-slice 2-D GEMMs, and reductions whose
memory-layout relationship to the reduced axis is unchanged — so lane ``l``
of a stacked call is bitwise equal to a 3-D call on lane ``l``'s data
alone (pinned by ``tests/core/test_lane_engine.py`` against the recorded
serial executor and by ``tests/core/test_grad_kernels.py`` against
``network_forward``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.params import SurrogateParams, snapshot_surrogate
from repro.core.variation import Perturbation

Epsilons = Optional[Sequence[Tuple[Perturbation, Perturbation, Perturbation]]]

#: Voltage of the bias rail feeding the crossbar bias row (the paper's V_b).
BIAS_VOLTAGE = 1.0


def stable_sigmoid(z: np.ndarray) -> np.ndarray:
    """Logistic function computed without overflow for any magnitude."""
    z = np.asarray(z, dtype=np.float64)
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# --------------------------------------------------------------------- #
# printing non-idealities                                               #
# --------------------------------------------------------------------- #


def apply_nonideality(nominal: np.ndarray, eps: Perturbation) -> np.ndarray:
    """Apply one sampled non-ideality draw to nominal printed values.

    The single variation-application kernel shared by the crossbar θ and
    circuit ω paths (training, lanes and evaluation alike): multiply by
    the draw's ``scale`` — for the paper's ε-only draws exactly the
    ``nominal * ε`` instruction the recorded results were made with —
    then pin overridden devices to ``sign(nominal) * override_value`` (a
    stuck conductance keeps the crossbar routing sign; a zero nominal
    entry stays zero).
    """
    effective = nominal * eps.scale
    if eps.override_mask is not None:
        effective = np.where(
            eps.override_mask, np.sign(nominal) * eps.override_value, effective
        )
    return effective


def apply_nonideality_bwd(
    d_effective: np.ndarray, eps: Perturbation, axis: int = 0
) -> np.ndarray:
    """VJP of :func:`apply_nonideality` onto the nominal printed values,
    reducing the Monte-Carlo ``axis``.

    The cotangent is scaled — ``(d_eff * ε).sum(axis)`` for an ε-only
    draw — and **zeroed through overridden devices**: a stuck conductance
    contributes no gradient to the printed value it replaced, which is
    what makes defect-aware training train around defects instead of
    fighting them.  ``axis=0`` reduces one network's ``(n_mc, ...)``
    block; the lane executor reduces ``axis=1`` (its leading axis is the
    lane stack).
    """
    grad = d_effective * eps.scale
    if eps.override_mask is not None:
        grad = np.where(eps.override_mask, 0.0, grad)
    return grad.sum(axis=axis)


# --------------------------------------------------------------------- #
# workspace                                                             #
# --------------------------------------------------------------------- #


class Workspace:
    """Named, shape-checked scratch buffers reused across epochs.

    Training shapes are constant over a run (full-batch, fixed ``n_mc``),
    so the large ``(n_mc, batch, features)`` intermediates of every epoch
    can live in preallocated buffers.  Buffers are keyed by name; a shape
    change (e.g. the first call, or switching between the train and
    validation batch) reallocates that one buffer.
    """

    def __init__(self):
        self._buffers: Dict[str, np.ndarray] = {}

    def buf(self, name: str, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        shape = tuple(int(s) for s in shape)
        buffer = self._buffers.get(name)
        if buffer is None or buffer.shape != shape or buffer.dtype != dtype:
            buffer = np.empty(shape, dtype=dtype)
            self._buffers[name] = buffer
        return buffer

    def nbytes(self) -> int:
        return sum(b.nbytes for b in self._buffers.values())


# --------------------------------------------------------------------- #
# Fig. 5 steps 1–3: raw 𝔴 → printable ω                                 #
# --------------------------------------------------------------------- #


def project_printable(theta: np.ndarray, g_min: float, g_max: float) -> np.ndarray:
    """Project surrogate conductances into the printable set (Sec. II-C).

    The printable set is ``[-g_max, -g_min] ∪ {0} ∪ [g_min, g_max]``:
    magnitudes above ``g_max`` saturate, magnitudes below ``g_min`` snap
    to the nearer of ``0`` and ``±g_min``.  The backward pass is the
    identity (straight-through, as the paper does citing Bengio et al.),
    so no companion ``_bwd`` function exists — callers pass the
    printable-θ gradient straight through to the raw θ.  Elementwise, so
    ``theta`` may carry any leading axes: ``(I, O)`` serial or
    ``(L, I, O)`` lane-stacked.
    """
    magnitude = np.abs(theta)
    snapped = np.where(magnitude < g_min / 2.0, 0.0, np.clip(magnitude, g_min, g_max))
    return np.sign(theta) * snapped


def reassemble_omega_fwd(w_raw: np.ndarray, space) -> Tuple[np.ndarray, tuple]:
    """Fig. 5 steps 1–3 forward: raw 𝔴 ``(..., C, 7)`` → printable ω.

    A sigmoid squashes 𝔴 into (0, 1); the first five entries denormalize
    into their Table-I ranges while the divider ratios stay in (0, 1); then
    ``R2 = k1·R1`` and ``R4 = k2·R3`` are reassembled and clipped into
    their feasible ranges.  Accepts the serial ``(C, 7)`` component matrix
    or any leading stack of them (e.g. ``(L, C, 7)`` lane-stacked
    parameters); all arithmetic is elementwise over the trailing component
    axis.  Returns the printable component matrix (same shape) and the
    context needed by the VJP :func:`reassemble_omega_bwd`.
    """
    squashed = stable_sigmoid(w_raw)
    lower = space.reduced_lower
    span = space.reduced_upper - space.reduced_lower
    reduced = squashed * span + lower

    r1 = reduced[..., 0:1]
    r3 = reduced[..., 1:2]
    r5 = reduced[..., 2:3]
    width = reduced[..., 3:4]
    length = reduced[..., 4:5]
    k1 = reduced[..., 5:6]
    k2 = reduced[..., 6:7]
    r2 = np.clip(k1 * r1, space.lower[1], space.upper[1])
    r4 = np.clip(k2 * r3, space.lower[3], space.upper[3])
    omega = np.concatenate([r1, r2, r3, r4, r5, width, length], axis=-1)
    return omega, (squashed, span, r1, r3, k1, k2)


def reassemble_omega_bwd(d_omega: np.ndarray, ctx: tuple) -> np.ndarray:
    """VJP of :func:`reassemble_omega_fwd`: dω ``(..., C, 7)`` → d𝔴.

    Shapes mirror the forward (optional leading lane/stack axes).  The
    feasibility clips on R2/R4 use the straight-through estimator, so
    their gradient reaches ``k1·R1`` / ``k2·R3`` unchanged even when the
    product is clipped (the ratios keep training while clipped).
    """
    squashed, span, r1, r3, k1, k2 = ctx
    d_r1 = d_omega[..., 0:1].copy()
    d_r2 = d_omega[..., 1:2]                   # straight-through clip
    d_r3 = d_omega[..., 2:3].copy()
    d_r4 = d_omega[..., 3:4]                   # straight-through clip
    d_k1 = d_r2 * r1
    d_r1 += d_r2 * k1
    d_k2 = d_r4 * r3
    d_r3 += d_r4 * k2
    d_reduced = np.concatenate(
        [d_r1, d_r3, d_omega[..., 4:5], d_omega[..., 5:6], d_omega[..., 6:7], d_k1, d_k2],
        axis=-1,
    )
    return d_reduced * span * squashed * (1.0 - squashed)


# --------------------------------------------------------------------- #
# ω → η surrogates                                                      #
# --------------------------------------------------------------------- #


def extend_with_ratios(omega: np.ndarray) -> np.ndarray:
    """Append the critical ratio features [k1, k2, k3] to ω (Sec. III-A c).

    ``k1 = R2/R1``, ``k2 = R4/R3`` and ``k3 = W/L``, over any leading
    axes: ``(..., 7)`` → ``(..., 10)``.
    """
    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    width = omega[..., 5:6]
    length = omega[..., 6:7]
    return np.concatenate([omega, r2 / r1, r4 / r3, width / length], axis=-1)


def mlp_eta_fwd(omega: np.ndarray, sp: SurrogateParams) -> Tuple[np.ndarray, tuple]:
    """NN-surrogate forward ω ``(..., 7)`` → η ``(..., 4)`` with context.

    Runs the ratio-extend → min-max normalize → tanh-MLP → denormalize
    chain and records the per-layer tanh activations the backward pass
    needs.  The MLP weights are part of the frozen surrogate snapshot —
    only the VJP w.r.t. ω is ever required during pNN training.  Leading
    axes are arbitrary: ``(n_mc, C, 7)`` serially, ``(L, n_mc, C, 7)``
    lane-stacked — the MLP matmuls batch over them.  VJP:
    :func:`mlp_eta_bwd`.
    """
    hidden = (extend_with_ratios(omega) - sp.input_min) / sp.input_span
    activations: List[np.ndarray] = []
    for weight, bias in zip(sp.weights[:-1], sp.biases[:-1]):
        hidden = np.tanh(hidden @ weight + bias)
        activations.append(hidden)
    eta_norm = hidden @ sp.weights[-1] + sp.biases[-1]
    eta = eta_norm * sp.eta_span + sp.eta_min
    return eta, (omega, activations)


def mlp_eta_bwd(d_eta: np.ndarray, ctx: tuple, sp: SurrogateParams) -> np.ndarray:
    """VJP of :func:`mlp_eta_fwd`: dη ``(..., 4)`` → dω ``(..., 7)``."""
    omega, activations = ctx
    grad = (d_eta * sp.eta_span) @ sp.weights[-1].T
    for weight, hidden in zip(reversed(sp.weights[:-1]), reversed(activations)):
        grad = (grad * (1.0 - hidden * hidden)) @ weight.T
    d_ext = grad / sp.input_span

    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    width = omega[..., 5:6]
    length = omega[..., 6:7]
    d_omega = d_ext[..., 0:7].copy()
    d_k1 = d_ext[..., 7:8]
    d_k2 = d_ext[..., 8:9]
    d_k3 = d_ext[..., 9:10]
    d_omega[..., 1:2] += d_k1 / r1
    d_omega[..., 0:1] += -d_k1 * r2 / (r1 * r1)
    d_omega[..., 3:4] += d_k2 / r3
    d_omega[..., 2:3] += -d_k2 * r4 / (r3 * r3)
    d_omega[..., 5:6] += d_k3 / length
    d_omega[..., 6:7] += -d_k3 * width / (length * length)
    return d_omega


def analytic_eta_fwd(omega: np.ndarray, sp: SurrogateParams) -> Tuple[np.ndarray, tuple]:
    """Analytic-surrogate forward ω ``(..., 7)`` → η ``(..., 4)`` + context.

    First-order circuit analysis followed by the per-η affine calibration
    ``η = raw · scale + shift``: divider ratios attenuate the input, the
    stage-1 trip point sits where the EGT sinks ``VDD/2`` through its
    effective load, small-signal gains set the steepness, and the output
    swing rolls off smoothly when the trip point leaves the 0..1 V input
    window.  Purely elementwise over the trailing component axis, so
    leading axes (MC, lane) are arbitrary.  VJP: :func:`analytic_eta_bwd`.
    """
    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    r5 = omega[..., 4:5]
    width = omega[..., 5:6]
    length = omega[..., 6:7]
    vdd, vt = sp.vdd, sp.v_threshold

    s1 = r1 + r2
    k1 = r2 / s1
    s2 = r3 + r4
    k2 = r4 / s2
    beta = sp.k_prime * width / length

    divider_chain = r3 + r4
    load_den = r5 + divider_chain
    load1 = r5 * divider_chain / load_den
    bl = beta * load1
    overdrive = np.sqrt(vdd / bl)
    k1_eps = k1 + 1e-9
    trip = (overdrive + vt) / k1_eps

    gain1 = np.sqrt(beta * vdd * load1)
    gain2 = np.sqrt(beta * vdd * sp.second_stage_load)

    sig_hi = stable_sigmoid((vdd - trip) * 6.0)
    sig_lo = stable_sigmoid(trip * 6.0)
    visibility = sig_hi * sig_lo

    if sp.kind == "ptanh":
        amplitude = 0.5 * vdd * visibility
        centre = np.broadcast_to(np.full(1, 0.5 * vdd), trip.shape).copy()
        slope = k1 * gain1 * k2 * gain2 * 0.25
    else:
        amplitude = 0.5 * vdd * k2 * visibility
        # Negative-weight target is −inv(V) = VDD − k2·V_d1 (Eq. 3 fit).
        centre = vdd - k2 * (0.5 * vdd) + 0.0 * trip
        slope = k1 * gain1 * 0.5

    amp_eps = amplitude + 1e-3
    steep_pre = slope / amp_eps
    steepness = np.clip(steep_pre, 0.5, 200.0)
    raw = np.concatenate([centre, amplitude, trip, steepness], axis=-1)
    eta = raw * sp.scale + sp.shift
    ctx = (
        omega, s1, k1, s2, k2, beta, divider_chain, load_den, load1, bl,
        overdrive, k1_eps, trip, gain1, gain2, sig_hi, sig_lo, visibility,
        slope, amp_eps, steep_pre,
    )
    return eta, ctx


def analytic_eta_bwd(d_eta: np.ndarray, ctx: tuple, sp: SurrogateParams) -> np.ndarray:
    """VJP of :func:`analytic_eta_fwd`: dη ``(..., 4)`` → dω ``(..., 7)``.

    The exact clip on the steepness contributes zero gradient outside
    ``[0.5, 200]`` (not straight-through), and the constant part of the
    centre carries no gradient.
    """
    (omega, s1, k1, s2, k2, beta, divider_chain, load_den, load1, bl,
     overdrive, k1_eps, trip, gain1, gain2, sig_hi, sig_lo, visibility,
     slope, amp_eps, steep_pre) = ctx
    r1 = omega[..., 0:1]
    r2 = omega[..., 1:2]
    r3 = omega[..., 2:3]
    r4 = omega[..., 3:4]
    r5 = omega[..., 4:5]
    width = omega[..., 5:6]
    length = omega[..., 6:7]
    vdd, vt = sp.vdd, sp.v_threshold

    d_raw = d_eta * sp.scale
    d_centre = d_raw[..., 0:1]
    d_amplitude = d_raw[..., 1:2].copy()
    d_trip = d_raw[..., 2:3].copy()
    d_steep = d_raw[..., 3:4]

    clip_mask = ((steep_pre >= 0.5) & (steep_pre <= 200.0)).astype(np.float64)
    d_pre = d_steep * clip_mask
    d_slope = d_pre / amp_eps
    d_amplitude += -d_pre * slope / (amp_eps * amp_eps)

    if sp.kind == "ptanh":
        d_visibility = 0.5 * vdd * d_amplitude
        d_k1 = d_slope * gain1 * k2 * gain2 * 0.25
        d_gain1 = d_slope * k1 * k2 * gain2 * 0.25
        d_k2 = d_slope * k1 * gain1 * gain2 * 0.25
        d_gain2 = d_slope * k1 * gain1 * k2 * 0.25
        # centre is the constant VDD/2: no gradient.
    else:
        d_visibility = 0.5 * vdd * k2 * d_amplitude
        d_k2 = 0.5 * vdd * visibility * d_amplitude
        d_k2 += -(0.5 * vdd) * d_centre          # centre = VDD − k2·VDD/2
        d_k1 = d_slope * gain1 * 0.5
        d_gain1 = d_slope * k1 * 0.5
        d_gain2 = np.zeros_like(d_slope)

    d_sig_hi = d_visibility * sig_lo
    d_sig_lo = d_visibility * sig_hi
    d_trip += -6.0 * d_sig_hi * sig_hi * (1.0 - sig_hi)
    d_trip += 6.0 * d_sig_lo * sig_lo * (1.0 - sig_lo)

    d_overdrive = d_trip / k1_eps
    d_k1 += -d_trip * (overdrive + vt) / (k1_eps * k1_eps)

    d_beta = d_gain2 * (vdd * sp.second_stage_load) * 0.5 / gain2
    d_beta += d_gain1 * (vdd * load1) * 0.5 / gain1
    d_load1 = d_gain1 * (beta * vdd) * 0.5 / gain1
    d_bl = -d_overdrive * 0.5 / overdrive * vdd / (bl * bl)
    d_beta += d_bl * load1
    d_load1 += d_bl * beta

    d_num = d_load1 / load_den
    d_den = -d_load1 * load1 / load_den
    d_r5 = d_num * divider_chain + d_den
    d_chain = d_num * r5 + d_den
    d_r3 = d_chain.copy()
    d_r4 = d_chain.copy()

    d_width = d_beta * sp.k_prime / length
    d_length = -d_beta * sp.k_prime * width / (length * length)

    d_r4 += d_k2 / s2
    d_s2 = -d_k2 * r4 / (s2 * s2)
    d_r3 += d_s2
    d_r4 += d_s2

    d_r2 = d_k1 / s1
    d_s1 = -d_k1 * r2 / (s1 * s1)
    d_r1 = d_s1.copy()
    d_r2 += d_s1

    return np.concatenate(
        [d_r1, d_r2, d_r3, d_r4, d_r5, d_width, d_length], axis=-1
    )


def surrogate_eta_fwd(omega: np.ndarray, sp: SurrogateParams) -> Tuple[np.ndarray, tuple]:
    """Dispatch ω ``(..., 7)`` → η ``(..., 4)`` on the surrogate backend.

    Thin router over :func:`mlp_eta_fwd` / :func:`analytic_eta_fwd`
    (arbitrary leading axes, including a lane axis); the returned context
    pairs with :func:`surrogate_eta_bwd`.
    """
    if sp.backend == "mlp":
        return mlp_eta_fwd(omega, sp)
    if sp.backend == "analytic":
        return analytic_eta_fwd(omega, sp)
    raise ValueError(f"unknown surrogate backend {sp.backend!r}")


def surrogate_eta_bwd(d_eta: np.ndarray, ctx: tuple, sp: SurrogateParams) -> np.ndarray:
    """VJP of :func:`surrogate_eta_fwd`: dη ``(..., 4)`` → dω ``(..., 7)``."""
    if sp.backend == "mlp":
        return mlp_eta_bwd(d_eta, ctx, sp)
    return analytic_eta_bwd(d_eta, ctx, sp)


def circuit_eta_fwd(
    omega: np.ndarray, eps: Optional[Perturbation], sp: SurrogateParams
) -> Tuple[np.ndarray, tuple]:
    """One circuit's η under printing variation (Fig. 5 step 4 and the surrogate).

    Inserts the Monte-Carlo axis in front of the circuit axis of the
    printable ω ``(..., C, 7)``, applies the draw ``eps``
    ``(..., N, C, 7)`` — variation multiplies printable values — and runs
    the surrogate: η ``(..., N, C, 4)``, or ``(..., 1, C, 4)`` for
    ``eps=None``.  VJP: :func:`circuit_eta_bwd`.
    """
    omega_mc = omega[..., None, :, :]
    if eps is not None:
        if eps.shape[-2:] != omega.shape[-2:]:
            raise ValueError("the ω draw must be (..., n_mc, n_circuits, 7)")
        omega_mc = apply_nonideality(omega_mc, eps)
    eta, ctx = surrogate_eta_fwd(omega_mc, sp)
    return eta, (eps, ctx)


def circuit_eta_bwd(d_eta: np.ndarray, ctx: tuple, sp: SurrogateParams) -> np.ndarray:
    """VJP of :func:`circuit_eta_fwd`: dη → printable dω, reducing the MC axis."""
    eps, ctx_sp = ctx
    d_omega_mc = surrogate_eta_bwd(d_eta, ctx_sp, sp)
    if eps is None:
        return d_omega_mc[..., 0, :, :]
    return apply_nonideality_bwd(d_omega_mc, eps, axis=-3)


# --------------------------------------------------------------------- #
# Eqs. 2–3 — tanh-like transfer                                         #
# --------------------------------------------------------------------- #


def transfer_fwd(
    voltage: np.ndarray, eta: np.ndarray, kind: str, tag: str = "tf",
) -> Tuple[np.ndarray, tuple]:
    """Eq. 2/3 forward: voltages ``(..., B, F)``, η ``(..., C, 4)`` → output.

    Serially the shapes are ``(n_mc, B, F)`` / ``(n_mc, C, 4)``; with a
    leading lane axis they become ``(L, n_mc, B, F)`` / ``(L, n_mc, C, 4)``.
    With one shared circuit (``C = 1``) the same η applies to every output
    column; with per-neuron circuits ``F`` must equal ``C``.  VJP:
    :func:`transfer_bwd`.

    ``tag`` names the call site (pass, layer and circuit, e.g.
    ``train.l0.act``) so profilers can attribute kernel time per pNN
    layer; the arithmetic never reads it.
    """
    *lead, n_circuits, _ = eta.shape
    shape = (*lead, 1, 1) if n_circuits == 1 else (*lead, 1, n_circuits)
    eta1 = eta[..., 0].reshape(shape)
    eta2 = eta[..., 1].reshape(shape)
    eta3 = eta[..., 2].reshape(shape)
    eta4 = eta[..., 3].reshape(shape)
    shifted = voltage - eta3
    tanh_u = np.tanh(shifted * eta4)
    core = eta1 + eta2 * tanh_u
    out = -core if kind == "negweight" else core
    return out, (kind, tuple(lead), n_circuits, eta2, eta4, shifted, tanh_u)


def transfer_bwd(
    grad: np.ndarray, ctx: tuple, tag: str = "tfb",
) -> Tuple[np.ndarray, np.ndarray]:
    """VJP of :func:`transfer_fwd` → (d_voltage ``(..., B, F)``, dη ``(..., C, 4)``).

    η gradients reduce over the batch axis, and — for a shared circuit —
    over the output-column axis as well.  All reductions address trailing
    axes, so the serial and lane-stacked layouts run the same code.
    ``tag`` names the call site for profilers, as in :func:`transfer_fwd`.
    """
    kind, lead, n_circuits, eta2, eta4, shifted, tanh_u = ctx
    axes = (-2, -1) if n_circuits == 1 else (-2,)

    def reduce(term):
        # Unbroadcast back to η's (*lead, n_circuits): the batch axis always,
        # and the column axis for a shared circuit.
        return term.sum(axis=axes, keepdims=True).reshape(*lead, n_circuits)

    d_core = -grad if kind == "negweight" else grad
    d_tanh = d_core * eta2
    d_u = d_tanh * (1.0 - tanh_u * tanh_u)
    d_voltage = d_u * eta4
    d_eta1 = reduce(d_core)
    d_eta2 = reduce(d_core * tanh_u)
    d_eta3 = -reduce(d_voltage)
    d_eta4 = reduce(d_u * shifted)
    d_eta = np.stack([d_eta1, d_eta2, d_eta3, d_eta4], axis=-1)
    return d_voltage, d_eta


# --------------------------------------------------------------------- #
# Eq. 1 — crossbar routing                                              #
# --------------------------------------------------------------------- #


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


def crossbar_fwd(
    x_aug: np.ndarray,
    inverted: np.ndarray,
    theta_eff: np.ndarray,
    ws: Optional[Workspace] = None,
    tag: str = "cb",
) -> Tuple[np.ndarray, tuple]:
    """Eq. 1 forward: normalized weighted sum with negative-weight routing.

    ``x_aug``/``inverted`` are ``(..., batch, in+2)`` and ``theta_eff`` is
    ``(..., N, in+2, out)`` on the same Monte-Carlo axis ``N`` (1 for a
    nominal pass) — serially ``(N, B, I)`` with θ ``(N, I, O)``,
    lane-stacked ``(L, N, B, I)`` with θ ``(L, N, I, O)``.  The routing
    mask follows the *sign* of the effective conductances and carries no
    gradient.  VJP: :func:`crossbar_bwd`.
    """
    ws = ws or Workspace()
    *lead, batch, _ = x_aug.shape
    n_out = theta_eff.shape[-1]
    magnitude = np.abs(theta_eff)
    route = positive_route_mask(theta_eff)
    pos_w = magnitude * route
    neg_w = magnitude * (1.0 - route)
    numerator = np.matmul(x_aug, pos_w, out=ws.buf(f"{tag}.num", (*lead, batch, n_out)))
    numerator += np.matmul(
        inverted, neg_w, out=ws.buf(f"{tag}.num2", (*lead, batch, n_out))
    )
    denom = magnitude.sum(axis=-2).reshape(*theta_eff.shape[:-2], 1, n_out) + 1e-12
    out = np.divide(numerator, denom, out=ws.buf(f"{tag}.out", (*lead, batch, n_out)))
    return out, (x_aug, inverted, theta_eff, route, pos_w, neg_w, numerator, denom)


def crossbar_bwd(
    grad: np.ndarray, ctx: tuple, ws: Optional[Workspace] = None, tag: str = "cb",
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """VJP of :func:`crossbar_fwd` → (d_x_aug, d_inverted, d_theta_eff).

    The normalization denominator receives the full quotient-rule gradient
    ``−g·num/denom²`` (reduced over the batch), which then broadcasts back
    over every crossbar row — this is the term a naive "matmul-only"
    backward would miss.  Shapes mirror :func:`crossbar_fwd` (optional
    leading lane axis), with θ's Monte-Carlo axis the inputs' own: a
    drawn θ and a drawn batch, or a nominal θ and a nominal batch.
    """
    ws = ws or Workspace()
    x_aug, inverted, theta_eff, route, pos_w, neg_w, numerator, denom = ctx
    *lead, batch, n_in = x_aug.shape
    n_out = theta_eff.shape[-1]

    d_num = np.divide(grad, denom, out=ws.buf(f"{tag}.dnum", (*lead, batch, n_out)))
    d_denom_full = -grad * numerator / (denom * denom)
    d_denom = d_denom_full.sum(axis=-2, keepdims=True)        # (..., N, 1, O)

    d_x_aug = np.matmul(
        d_num, pos_w.swapaxes(-1, -2), out=ws.buf(f"{tag}.dx", (*lead, batch, n_in))
    )
    d_inverted = np.matmul(
        d_num, neg_w.swapaxes(-1, -2), out=ws.buf(f"{tag}.dinv", (*lead, batch, n_in))
    )
    d_pos_w = np.matmul(x_aug.swapaxes(-1, -2), d_num)        # (..., N, I+2, O)
    d_neg_w = np.matmul(inverted.swapaxes(-1, -2), d_num)
    d_magnitude = d_denom + d_neg_w * (1.0 - route) + d_pos_w * route
    d_theta_eff = d_magnitude * np.sign(theta_eff)
    return d_x_aug, d_inverted, d_theta_eff


# --------------------------------------------------------------------- #
# losses                                                                #
# --------------------------------------------------------------------- #


def margin_loss_fwd(voltages: np.ndarray, targets: np.ndarray, margin: float = 0.3):
    """Mean squared hinge on voltage margins (Weller et al.).

    For a sample with true class ``c`` the loss is
    ``Σ_{j ≠ c} max(0, m − (V_c − V_j))²``, averaged over batch and
    Monte-Carlo samples — the Monte-Carlo estimate of the expected loss of
    Sec. III-C.  ``voltages`` is ``(n_mc, batch, classes)`` serially —
    returning a ``float`` — or lane-stacked ``(L, n_mc, batch, classes)``,
    returning a per-lane ``(L,)`` array.  Each lane's loss is the mean over its own
    (contiguous) ``n_mc·batch`` per-sample hinge sums, so lane ``l``'s
    value is bitwise equal to the serial call on ``voltages[l]``.  VJP:
    :func:`margin_loss_bwd`.
    """
    if voltages.ndim not in (3, 4):
        raise ValueError("expected (n_mc, batch, classes) or (L, n_mc, batch, classes) voltages")
    if margin <= 0:
        raise ValueError("margin must be positive")
    *lead, batch, _ = voltages.shape
    targets = np.asarray(targets, dtype=np.int64)
    if targets.shape != (batch,):
        raise ValueError("targets must be one class index per batch row")
    target_grid = np.broadcast_to(targets, (*lead, batch))
    expanded = target_grid[..., None]
    true_voltage = np.take_along_axis(voltages, expanded, axis=-1)     # (..., B, 1)
    pre = margin - (true_voltage - voltages)                           # (..., B, C)
    shortfall = np.maximum(pre, 0.0)
    mask = np.ones(voltages.shape)
    np.put_along_axis(mask, expanded, 0.0, axis=-1)
    per_sample = (shortfall * shortfall * mask).sum(axis=-1)
    if voltages.ndim == 4:
        loss = per_sample.reshape(per_sample.shape[0], -1).mean(axis=1)
    else:
        loss = float(per_sample.mean())
    return loss, (pre, shortfall, mask, expanded, voltages.shape)


def margin_loss_bwd(ctx: tuple) -> np.ndarray:
    """VJP of :func:`margin_loss_fwd` → d_voltages (same shape as input).

    The ``1/(n_mc·batch)`` mean scale is per lane (the lane axis, when
    present, is excluded — each lane carries its own loss).
    """
    pre, shortfall, mask, expanded, shape = ctx
    scale = 1.0 / (shape[-3] * shape[-2])
    d_shortfall = 2.0 * shortfall * mask * scale
    d_pre = d_shortfall * (pre > 0.0)          # strict ReLU mask
    d_voltages = d_pre.copy()
    d_true = -d_pre.sum(axis=-1, keepdims=True)
    scattered = np.zeros(shape)
    np.put_along_axis(scattered, expanded, d_true, axis=-1)
    d_voltages += scattered
    return d_voltages


def ce_loss_fwd(voltages: np.ndarray, targets: np.ndarray, temperature: float = 0.1):
    """Softmax cross-entropy on voltages scaled by ``1/temperature``.

    Accepts ``(n_mc, batch, classes)`` (returns ``float``) or lane-stacked
    ``(L, n_mc, batch, classes)`` (returns ``(L,)`` per-lane losses, each
    bitwise equal to the serial call on that lane's slice).  VJP:
    :func:`ce_loss_bwd`.
    """
    if voltages.ndim not in (3, 4):
        raise ValueError("expected (n_mc, batch, classes) or (L, n_mc, batch, classes) voltages")
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    *lead, batch, _ = voltages.shape
    targets = np.broadcast_to(np.asarray(targets, dtype=np.int64), (*lead, batch))
    logits = voltages * (1.0 / temperature)
    shifted = logits - logits.max(axis=-1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=-1, keepdims=True))
    log_probs = shifted - log_norm
    expanded = targets[..., None]
    gathered = np.take_along_axis(log_probs, expanded, axis=-1)
    if voltages.ndim == 4:
        loss = -gathered.reshape(gathered.shape[0], -1).mean(axis=1)
    else:
        loss = float(-gathered.mean())
    return loss, (log_probs, expanded, temperature, voltages.shape)


def ce_loss_bwd(ctx: tuple) -> np.ndarray:
    """VJP of :func:`ce_loss_fwd` → d_voltages (same shape as input).

    As with the margin loss, the mean scale ``1/(n_mc·batch)`` excludes
    the lane axis when one is present.
    """
    log_probs, expanded, temperature, shape = ctx
    softmax = np.exp(log_probs)
    one_hot = np.zeros(shape)
    np.put_along_axis(one_hot, expanded, 1.0, axis=-1)
    d_logits = (softmax - one_hot) / (shape[-3] * shape[-2])
    return d_logits * (1.0 / temperature)


#: Loss registry: name → (forward, backward) pair used by the engine.
LOSS_KERNELS = {
    "margin": (margin_loss_fwd, margin_loss_bwd),
    "ce": (ce_loss_fwd, ce_loss_bwd),
}


# --------------------------------------------------------------------- #
# the frozen network structure                                          #
# --------------------------------------------------------------------- #


@dataclass
class LayerMeta:
    """Static structure of one printed layer inside the engine."""

    in_features: int
    out_features: int
    apply_activation: bool
    g_min: float
    g_max: float


@dataclass
class LayerGrads:
    """Gradients of one layer's raw parameters (``None`` where not computed)."""

    theta: Optional[np.ndarray] = None
    w_act: Optional[np.ndarray] = None
    w_neg: Optional[np.ndarray] = None


def _first_lane(grad: Optional[np.ndarray]) -> Optional[np.ndarray]:
    return None if grad is None else grad[0]


class KernelNetwork:
    """The frozen structure of one pNN, and its one-network loss calls.

    Freezes everything that does not change during training — surrogate
    snapshots, design-space bounds, conductance limits, layer topology.
    :class:`repro.core.lanes.LaneNetwork`, the one executor of the kernels
    over raw parameter arrays, runs lane-stacked arrays over this
    structure.  :meth:`loss_and_grads` and :meth:`loss_value` take one
    network's arrays ``[θ, 𝔴_act, 𝔴_neg]`` per layer instead: they are the
    one-lane case of that executor.
    """

    def __init__(
        self,
        layers: Sequence[LayerMeta],
        act_surrogate: SurrogateParams,
        neg_surrogate: SurrogateParams,
        space,
        layer_sizes: Sequence[int],
    ):
        self.layers = list(layers)
        self.act_surrogate = act_surrogate
        self.neg_surrogate = neg_surrogate
        self.space = space
        self.layer_sizes = tuple(int(s) for s in layer_sizes)

    # ------------------------------------------------------------------ #
    # construction                                                       #
    # ------------------------------------------------------------------ #

    @classmethod
    def from_pnn(cls, pnn) -> "KernelNetwork":
        """Freeze a live network's static structure into an engine."""
        metas = [
            LayerMeta(
                in_features=layer.in_features,
                out_features=layer.out_features,
                apply_activation=layer.apply_activation,
                g_min=pnn.conductance.g_min,
                g_max=pnn.conductance.g_max,
            )
            for layer in pnn.layers
        ]
        return cls(
            metas,
            act_surrogate=snapshot_surrogate(pnn.act_surrogate),
            neg_surrogate=snapshot_surrogate(pnn.neg_surrogate),
            space=pnn.space,
            layer_sizes=pnn.layer_sizes,
        )

    @staticmethod
    def extract_arrays(pnn) -> List[List[np.ndarray]]:
        """Copy a network's raw parameters as ``[[θ, 𝔴_act, 𝔴_neg], ...]``."""
        return [
            [layer.theta.copy(), layer.w_act.copy(), layer.w_neg.copy()]
            for layer in pnn.layers
        ]

    # ------------------------------------------------------------------ #
    # one-network calls: the one-lane case of LaneNetwork                #
    # ------------------------------------------------------------------ #

    @cached_property
    def executor(self):
        """The :class:`~repro.core.lanes.LaneNetwork` over this structure.

        Built on first use and kept, so repeated one-network calls of
        constant shape reuse its workspace buffers.
        """
        # Deferred: repro.core.lanes imports this module.
        from repro.core.lanes import LaneNetwork

        return LaneNetwork(self)

    @staticmethod
    def _one_lane(arrays: Sequence[Sequence[np.ndarray]], epsilons: Epsilons):
        """One network's arrays and ε triples with a length-1 lane axis."""
        from repro.core.lanes import stack_epsilons

        stacked = [[array[None] for array in layer] for layer in arrays]
        return stacked, None if epsilons is None else stack_epsilons([epsilons])

    def loss_and_grads(
        self,
        arrays: Sequence[Sequence[np.ndarray]],
        x: np.ndarray,
        targets: np.ndarray,
        loss: str = "margin",
        epsilons: Epsilons = None,
        need_omega_grads: bool = True,
    ) -> Tuple[float, List[LayerGrads]]:
        """One full training step's math: MC loss and raw-parameter grads.

        ``epsilons`` supplies one ``(ε_θ, ε_act, ε_neg)`` triple per layer
        (pre-drawn, leading axis ``n_mc``) or ``None`` for the nominal
        pass.  𝔴 gradients are ``None`` when ``need_omega_grads`` is off
        or when a layer applies no activation circuit.
        """
        stacked, stacked_eps = self._one_lane(arrays, epsilons)
        values, grads = self.executor.loss_and_grads(
            stacked, x, targets, loss=loss, epsilons=stacked_eps,
            need_omega_grads=need_omega_grads,
        )
        return float(values[0]), [
            LayerGrads(_first_lane(g.theta), _first_lane(g.w_act), _first_lane(g.w_neg))
            for g in grads
        ]

    def loss_value(
        self,
        arrays: Sequence[Sequence[np.ndarray]],
        x: np.ndarray,
        targets: np.ndarray,
        loss: str = "margin",
        epsilons: Epsilons = None,
    ) -> float:
        """Forward-only loss (validation): no tape, no gradients."""
        stacked, stacked_eps = self._one_lane(arrays, epsilons)
        values = self.executor.loss_values(
            stacked, x, targets, loss=loss, epsilons=stacked_eps
        )
        return float(values[0])
