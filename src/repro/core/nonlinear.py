"""Learnable nonlinear circuits inside the pNN (Sec. III-B, Fig. 5).

The learnable parameter 𝔴 corresponds to the reduced parameterization
``[R1, R3, R5, W, L, k1, k2]``.  The forward processing follows Fig. 5
exactly:

1. a sigmoid keeps the normalized values in (0, 1);
2. the first five entries are denormalized into their Table-I ranges, the
   ratios stay in (0, 1);
3. the printable vector ω is reassembled with ``R2 = R1·k1`` and
   ``R4 = R3·k2``, clipped into their feasible ranges (straight-through, so
   the ratios keep receiving gradient while clipped);
4. *printing variation is applied here*, to the printable values — not to
   the raw learnable parameter (the paper is explicit about this);
5. the vector is ratio-extended, normalized with the surrogate's stored
   statistics, pushed through the surrogate NN and denormalized into η.

The resulting η parameterize the tanh-like transfer (Eq. 2) or its negated
form (Eq. 3).  Steps 1–3 are
:func:`repro.core.grad_kernels.reassemble_omega_fwd`; steps 4–5 and the
transfer run in the kernels too.  This module owns the learnable 𝔴 of one
shared circuit per layer (the default, matching the paper's per-layer
bespoke activation) or of one circuit per neuron.
"""

from __future__ import annotations

from typing import Optional, Union

import numpy as np

from repro.core.grad_kernels import reassemble_omega_fwd
from repro.nn.module import Module, Parameter
from repro.surrogate.analytic import AnalyticSurrogate
from repro.surrogate.design_space import DesignSpace
from repro.surrogate.pipeline import CircuitSurrogate

Surrogate = Union[CircuitSurrogate, AnalyticSurrogate]


class LearnableNonlinearCircuit(Module):
    """A (possibly learnable) nonlinear circuit: ptanh activation or negation.

    Parameters
    ----------
    surrogate:
        The ω → η map (NN surrogate or analytic baseline).
    space:
        The Table-I design space (supplies denormalization bounds).
    kind:
        ``"ptanh"`` applies Eq. 2; ``"negweight"`` applies Eq. 3 (negated).
    n_circuits:
        ``1`` for a layer-shared circuit, or the number of neurons for
        per-neuron bespoke circuits.
    """

    def __init__(
        self,
        surrogate: Surrogate,
        space: DesignSpace,
        kind: str,
        n_circuits: int = 1,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        if kind not in ("ptanh", "negweight"):
            raise ValueError("kind must be 'ptanh' or 'negweight'")
        self.surrogate = surrogate
        self.space = space
        self.kind = kind
        self.n_circuits = int(n_circuits)
        if self.n_circuits < 1:
            raise ValueError("n_circuits must be >= 1")
        rng = rng if rng is not None else np.random.default_rng()
        # Raw learnable parameter; sigmoid(0) = 0.5 is the mid-range
        # reference circuit used by the non-learnable baselines.  Small
        # noise breaks symmetry between per-neuron circuits.
        noise = 0.01 * rng.standard_normal((self.n_circuits, 7)) if self.n_circuits > 1 else 0.0
        self.w_raw = Parameter(np.zeros((self.n_circuits, 7)) + noise)

    def printable_omega(self) -> np.ndarray:
        """Component values to print: shape ``(n_circuits, 7)``.

        Fig. 5 steps 1–3 applied to :attr:`w_raw`; this is the matrix
        printing variation multiplies (step 4 in the module docstring).
        """
        omega, _ = reassemble_omega_fwd(self.w_raw.data, self.space)
        return omega
