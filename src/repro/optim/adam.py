"""Adam optimizer (Kingma & Ba, 2014) — the optimizer used in the paper."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Union

import numpy as np

from repro.nn.module import Parameter


class RawParameter:
    """A bare ndarray parameter: ``data``/``grad`` without a graph node.

    Duck-type compatible with :class:`repro.nn.module.Parameter` as far as
    the optimizer is concerned, but never participates in autograd — the
    lane training engine (:mod:`repro.core.lanes`) writes hand-derived
    gradients into ``grad`` directly, so :class:`Adam` updates the arrays
    with zero Tensor/graph overhead in the steady-state epoch.
    """

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = None

    def zero_grad(self) -> None:
        self.grad = None

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self) -> str:
        return f"RawParameter(shape={self.data.shape})"


ParamGroups = Union[Iterable[Parameter], Sequence[dict]]


class Adam:
    """Adam with bias-corrected first and second moments.

    Defaults match the paper's "Adam with default settings":
    ``lr=1e-3, betas=(0.9, 0.999), eps=1e-8``.

    Parameter groups follow the PyTorch convention: either a flat iterable
    of parameters (one group with the default settings) or a list of dicts,
    each with a ``params`` entry and optional per-group overrides.  The
    paper relies on this to use different learning rates for the crossbar
    conductances (``α_θ = 0.1``) and the nonlinear-circuit parameters
    (``α_ω = 0.005``).
    """

    def __init__(
        self,
        params: ParamGroups,
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        if lr <= 0:
            raise ValueError("learning rate must be positive")
        if not (0.0 <= betas[0] < 1.0 and 0.0 <= betas[1] < 1.0):
            raise ValueError("betas must be in [0, 1)")
        defaults = {"lr": lr, "betas": tuple(betas), "eps": eps}
        self.param_groups: List[dict] = []
        params = list(params)
        if params and isinstance(params[0], dict):
            for group in params:
                merged = dict(defaults)
                merged.update({k: v for k, v in group.items() if k != "params"})
                merged["params"] = list(group["params"])
                self.param_groups.append(merged)
        else:
            merged = dict(defaults)
            merged["params"] = params
            self.param_groups.append(merged)
        for group in self.param_groups:
            if not all(isinstance(p, (Parameter, RawParameter)) for p in group["params"]):
                raise TypeError("optimizer expects Parameter or RawParameter instances")
        self._state: dict = {}

    def zero_grad(self) -> None:
        for _, param in self.iter_params():
            param.zero_grad()

    def iter_params(self):
        for group in self.param_groups:
            for param in group["params"]:
                yield group, param

    def step(self) -> None:
        for group, param in self.iter_params():
            if param.grad is None:
                continue
            grad = param.grad
            state = self._state.setdefault(
                id(param),
                {"step": 0, "m": np.zeros_like(param.data), "v": np.zeros_like(param.data)},
            )
            beta1, beta2 = group["betas"]
            state["step"] += 1
            state["m"] = beta1 * state["m"] + (1.0 - beta1) * grad
            state["v"] = beta2 * state["v"] + (1.0 - beta2) * grad * grad
            m_hat = state["m"] / (1.0 - beta1 ** state["step"])
            v_hat = state["v"] / (1.0 - beta2 ** state["step"])
            param.data = param.data - group["lr"] * m_hat / (np.sqrt(v_hat) + group["eps"])
