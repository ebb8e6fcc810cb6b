"""The printed neural network: a stack of printed layers (Sec. II-C, III).

The experiments use the topology ``#input – 3 – #output`` (one hidden layer
of three printed neurons).  The network is its learnable arrays: per layer
a :class:`PrintedLayer` of the crossbar conductances θ and the raw Fig. 5
parameters 𝔴 of its activation and negative-weight circuits.  Training runs
the kernels of :mod:`repro.core.grad_kernels` over these arrays (the lane
loop of :mod:`repro.core.lanes`), and inference runs a frozen
:meth:`PrintedNeuralNetwork.snapshot`.

θ has shape ``(in_features + 2, out_features)``: one row per input line
plus a bias row (driven by the 1 V rail) and a "down" row (driven by
ground).  Eq. 1 routes negative weights through the learned
negative-weight circuit,

    V_z,j = [ Σ_{i: θ_ij ≥ 0} |θ_ij| V_i + Σ_{i: θ_ij < 0} |θ_ij| inv(V_i) ]
            / Σ_i |θ_ij|

followed by the (learned) ptanh activation.  Each circuit's 𝔴 is the
reduced parameterization ``[R1, R3, R5, W, L, k1, k2]`` before Fig. 5's
sigmoid and denormalization
(:func:`~repro.core.grad_kernels.reassemble_omega_fwd`); printing variation
multiplies the printable ω that comes out of it, never 𝔴 itself.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.core.conductance import ConductanceConfig
from repro.core.params import PNNParams, snapshot_params
from repro.core.variation import VariationModel
from repro.surrogate.design_space import DESIGN_SPACE, DesignSpace
from repro.surrogate.pipeline import SurrogateBundle


@dataclass
class PrintedLayer:
    """One printed layer's learnable arrays: crossbar θ and circuit 𝔴.

    ``theta`` is ``(in_features + 2, out_features)``; ``w_act`` is
    ``(C, 7)`` — one activation circuit shared by the layer (``C = 1``, as
    in the paper) or one per neuron — and ``w_neg`` is the ``(1, 7)``
    negative-weight circuit.
    """

    theta: np.ndarray
    w_act: np.ndarray
    w_neg: np.ndarray
    apply_activation: bool

    @property
    def in_features(self) -> int:
        return self.theta.shape[0] - 2

    @property
    def out_features(self) -> int:
        return self.theta.shape[1]

    @property
    def circuit_counts(self) -> Tuple[int, int]:
        """Activation and negative-weight circuit counts (rows of 𝔴_act, 𝔴_neg)."""
        return len(self.w_act), len(self.w_neg)


class PrintedNeuralNetwork:
    """A pNN whose nonlinear subcircuits can be learned alongside θ.

    Parameters
    ----------
    layer_sizes:
        E.g. ``[4, 3, 3]`` for a 4-input, 3-class network (the paper's
        ``#input-3-#output`` topology).
    surrogates:
        A :class:`~repro.surrogate.pipeline.SurrogateBundle` (NN surrogates)
        or a ``(ptanh, negweight)`` pair of
        :class:`~repro.surrogate.analytic.AnalyticSurrogate`.
    per_neuron_activation:
        When ``True`` every neuron gets its own bespoke activation circuit;
        the default is one shared circuit per layer, as in the paper.
    activation_on_output:
        Whether the final layer drives an activation circuit too (the
        printed neuron always contains one; classification reads the
        voltages after it).
    """

    def __init__(
        self,
        layer_sizes: Sequence[int],
        surrogates: Union[SurrogateBundle, tuple],
        conductance: ConductanceConfig = ConductanceConfig(),
        space: Optional[DesignSpace] = None,
        per_neuron_activation: bool = False,
        activation_on_output: bool = True,
        rng: Optional[np.random.Generator] = None,
    ):
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValueError("layer_sizes must list at least input and output widths")
        rng = rng if rng is not None else np.random.default_rng()

        if isinstance(surrogates, SurrogateBundle):
            self.act_surrogate, self.neg_surrogate = surrogates.ptanh, surrogates.negweight
            space = space or surrogates.space
        else:
            self.act_surrogate, self.neg_surrogate = surrogates
            space = space or DESIGN_SPACE
        # The executor runs the first as the Eq. 2 activation and the second
        # as the Eq. 3 negation; a swapped pair would train silently.
        if (self.act_surrogate.kind, self.neg_surrogate.kind) != ("ptanh", "negweight"):
            raise ValueError("surrogates must be a (ptanh, negweight) pair, in that order")

        self.layer_sizes = layer_sizes
        self.space = space
        self.conductance = conductance
        self.per_neuron_activation = per_neuron_activation
        self.layers: List[PrintedLayer] = []
        for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            # sigmoid(0) = 0.5 is the mid-range reference circuit of the
            # non-learnable baselines.  Small noise breaks symmetry between
            # per-neuron circuits; it is drawn before θ.
            n_act = n_out if per_neuron_activation else 1
            w_act = np.zeros((n_act, 7))
            if n_act > 1:
                w_act = w_act + 0.01 * rng.standard_normal((n_act, 7))
            self.layers.append(
                PrintedLayer(
                    theta=conductance.init_theta((n_in + 2, n_out), rng),
                    w_act=w_act,
                    w_neg=np.zeros((1, 7)),
                    apply_activation=activation_on_output or i < len(layer_sizes) - 2,
                )
            )

    def predict(
        self,
        x: np.ndarray,
        variation: Optional[VariationModel] = None,
        n_mc: int = 1,
    ) -> np.ndarray:
        """Class predictions of shape ``(n_mc, batch)`` (argmax voltage).

        The network is snapshotted into a
        :class:`~repro.core.params.PNNParams` and executed by
        :func:`repro.core.kernels.predict`.  For repeated inference,
        snapshot once with :func:`~repro.core.params.snapshot_params` and
        reuse it.
        """
        return self.snapshot().predict(x, variation=variation, n_mc=n_mc)

    def snapshot(self) -> PNNParams:
        """Freeze the current design into an immutable inference snapshot."""
        return snapshot_params(self)
