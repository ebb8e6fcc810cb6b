"""Compact model for printed electrolyte-gated transistors (EGTs).

The paper's nonlinear circuits use inorganic electrolyte-gated FETs
characterized in the printed PDK of Rasheed et al. [12].  That PDK is
proprietary, so this module provides a *synthetic* compact model with the
same qualitative behaviour:

- n-type, normally-off, operating below 1 V supply;
- drain current scaling with the printed geometry ``W/L``;
- smooth triode-to-saturation transition and subthreshold roll-off (so that
  Newton-Raphson converges and transfer curves are C¹);
- channel-length modulation.

The drain current for ``Vds >= 0`` is

    Veff = phi * ln(1 + exp((Vgs - Vt) / phi))          (smooth overdrive)
    Id   = 0.5 * k' * (W/L) * Veff^2
           * tanh(Vds / Veff) * (1 + lambda * Vds)

and the model is made symmetric for ``Vds < 0`` by exchanging the roles of
drain and source.  All constants are chosen so that the inverter stages of
the ptanh circuit switch within the 0–1 V input range across the whole
Table-I design space.

The evaluation is array-in/array-out (:func:`id_gm_gds`): the DC solver
(:func:`repro.spice.batch.solve_dc_batch`) stamps whole ``(lanes,
devices)`` blocks per Newton iteration.  :class:`EGTModel` only carries
the parameter set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np


def id_gm_gds(
    vgs: np.ndarray,
    vds: np.ndarray,
    beta: np.ndarray,
    v_threshold: float,
    phi: float,
    channel_lambda: float,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized drain current and small-signal derivatives.

    ``beta`` is the device transconductance factor ``k' * W / L``.  All
    voltage/β inputs broadcast together; the returned ``(id, gm, gds)`` —
    drain-to-source current (A), ``dId/dVgs`` and ``dId/dVds`` (S) — share
    the broadcast shape.  ``vds < 0`` elements are treated symmetrically
    (drain and source exchanged).
    """
    vgs = np.asarray(vgs, dtype=np.float64)
    vds = np.asarray(vds, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)

    reverse = vds < 0.0
    # Swap drain and source: Id(vgs, vds) = -Id'(vgd, -vds).
    vgs_fwd = np.where(reverse, vgs - vds, vgs)
    vds_fwd = np.where(reverse, -vds, vds)

    # --- smooth overdrive (three numerically-safe regimes) ------------- #
    z = (vgs_fwd - v_threshold) / phi
    high = z > 30.0
    low = z < -30.0
    # Clipping keeps exp() in range; mid-regime values are unchanged by it.
    z_mid = np.clip(z, -30.0, 30.0)
    exp_low = np.exp(np.minimum(z, -30.0))
    veff = np.where(
        high,
        vgs_fwd - v_threshold,
        np.where(low, phi * exp_low, phi * np.log1p(np.exp(z_mid))),
    )
    dveff = np.where(high, 1.0, np.where(low, exp_low, 1.0 / (1.0 + np.exp(-z_mid))))

    # --- forward drain current and derivatives ------------------------- #
    veff_safe = veff + 1e-12
    shape = np.tanh(vds_fwd / veff_safe)
    sech2 = 1.0 - shape * shape
    clm = 1.0 + channel_lambda * vds_fwd
    id0 = 0.5 * beta * veff * veff

    current_fwd = id0 * shape * clm
    gm_fwd = (
        beta * veff * dveff * shape * clm
        + id0 * sech2 * (-vds_fwd / (veff_safe * veff_safe)) * dveff * clm
    )
    gds_fwd = id0 * sech2 / veff_safe * clm + id0 * shape * channel_lambda

    # --- undo the drain/source exchange -------------------------------- #
    current = np.where(reverse, -current_fwd, current_fwd)
    gm = np.where(reverse, -gm_fwd, gm_fwd)
    gds = np.where(reverse, gm_fwd + gds_fwd, gds_fwd)
    return current, gm, gds


@dataclass(frozen=True)
class EGTModel:
    """Parameter set of the synthetic printed EGT.

    Attributes
    ----------
    k_prime:
        Process transconductance ``mu * C_ox`` in A/V².
    v_threshold:
        Threshold voltage in volts.
    phi:
        Subthreshold smoothing scale in volts (larger = softer turn-on).
    channel_lambda:
        Channel-length modulation coefficient in 1/V.
    """

    k_prime: float = 3.0e-5
    v_threshold: float = 0.03
    phi: float = 0.06
    channel_lambda: float = 0.05
