"""The printed neural network: a stack of printed layers (Sec. II-C, III).

The experiments use the topology ``#input – 3 – #output`` (one hidden layer
of three printed neurons).  Each layer owns its own learnable activation
circuit and negative-weight circuit.  The network is a container of the
learnable parameters (θ and 𝔴 per layer, with their ``state_dict``);
training runs the kernels of :mod:`repro.core.grad_kernels` over its raw
arrays, and inference runs a frozen :meth:`PrintedNeuralNetwork.snapshot`.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np

from repro.core.conductance import ConductanceConfig
from repro.core.nonlinear import LearnableNonlinearCircuit
from repro.core.params import PNNParams, snapshot_params
from repro.core.player import PrintedLayer
from repro.core.variation import VariationModel
from repro.nn.module import Module, Parameter
from repro.surrogate.design_space import DESIGN_SPACE, DesignSpace
from repro.surrogate.pipeline import SurrogateBundle


class PrintedNeuralNetwork(Module):
    """A pNN whose nonlinear subcircuits can be learned alongside θ.

    Parameters
    ----------
    layer_sizes:
        E.g. ``[4, 3, 3]`` for a 4-input, 3-class network (the paper's
        ``#input-3-#output`` topology).
    surrogates:
        A :class:`~repro.surrogate.pipeline.SurrogateBundle` (NN surrogates)
        or a pair of :class:`~repro.surrogate.analytic.AnalyticSurrogate`.
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
        super().__init__()
        layer_sizes = [int(s) for s in layer_sizes]
        if len(layer_sizes) < 2 or any(s < 1 for s in layer_sizes):
            raise ValueError("layer_sizes must list at least input and output widths")
        rng = rng if rng is not None else np.random.default_rng()

        if isinstance(surrogates, SurrogateBundle):
            act_surrogate, neg_surrogate = surrogates.ptanh, surrogates.negweight
            space = space or surrogates.space
        else:
            act_surrogate, neg_surrogate = surrogates
            space = space or DESIGN_SPACE

        self.layer_sizes = layer_sizes
        self.space = space
        self.per_neuron_activation = per_neuron_activation
        self._layer_names: List[str] = []
        for i, (n_in, n_out) in enumerate(zip(layer_sizes[:-1], layer_sizes[1:])):
            is_last = i == len(layer_sizes) - 2
            activation = LearnableNonlinearCircuit(
                act_surrogate,
                space,
                "ptanh",
                n_circuits=n_out if per_neuron_activation else 1,
                rng=rng,
            )
            negation = LearnableNonlinearCircuit(neg_surrogate, space, "negweight", rng=rng)
            layer = PrintedLayer(
                n_in,
                n_out,
                activation=activation,
                negation=negation,
                conductance=conductance,
                apply_activation=activation_on_output or not is_last,
                rng=rng,
            )
            name = f"layer{i}"
            setattr(self, name, layer)
            self._layer_names.append(name)

    # ------------------------------------------------------------------ #
    # structure                                                          #
    # ------------------------------------------------------------------ #

    @property
    def layers(self) -> List[PrintedLayer]:
        return [getattr(self, name) for name in self._layer_names]

    def theta_parameters(self) -> List[Parameter]:
        """Crossbar conductances (learning rate α_θ in the paper)."""
        return [layer.theta for layer in self.layers]

    def nonlinear_parameters(self) -> List[Parameter]:
        """Nonlinear-circuit parameters 𝔴 (learning rate α_ω)."""
        params: List[Parameter] = []
        for layer in self.layers:
            params.append(layer.activation.w_raw)
            params.append(layer.negation.w_raw)
        return params

    # ------------------------------------------------------------------ #
    # inference helpers                                                  #
    # ------------------------------------------------------------------ #

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

    def snapshot(self) -> "PNNParams":
        """Freeze the current design into an immutable inference snapshot."""
        return snapshot_params(self)
